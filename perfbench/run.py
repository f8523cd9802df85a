#!/usr/bin/env python3
"""Builds the pmcs benchmark from source and runs one workload.

    python3 perfbench/run.py --workload sweep|admission|campaign \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds `perfbench` (its own Cargo
workspace) and the `pmcs-serve` daemon in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs the workload.
Build output goes to standard error, so the last line of standard
output is the benchmark's JSON result. Exits nonzero when the build
fails, when a correctness check fails, or when the run overruns.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; leave room to report the overrun.
RUN_TIMEOUT_S = 170


def build(target_dir):
    """Builds the benchmark and the server; returns their executables."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "pmcs-serve", "--bin", "pmcs-serve"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("error: build failed: " + " ".join(cmd))
    release = os.path.join(target_dir, "release")
    return (os.path.join(release, "pmcs-perfbench"),
            os.path.join(release, "pmcs-serve"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep", "admission", "campaign"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    bench, serve = build(target)
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--serve-bin", serve, "--out", os.path.join(HERE, "out")]
    # A process group of its own, so an overrun takes the server down too.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"error: the run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
