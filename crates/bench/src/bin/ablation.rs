//! Ablation study: where does the proposed approach's schedulability gain
//! come from?
//!
//! The paper (Section VIII) notes its formulation doubles as an improved
//! analysis of \[3\] when no task is latency-sensitive. This binary
//! decomposes the gap between the WP baseline and the full proposed
//! approach into:
//!
//! 1. **analysis tightening** — WP closed form → all-NLS MILP/engine
//!    (same protocol, sharper math);
//! 2. **LS support** — all-NLS → greedy LS marking (the protocol change:
//!    rules R3–R5).
//!
//! The three variants run through the `pmcs-analysis` registry: the
//! all-NLS column is the non-standard `wp-milp` analyzer, registered
//! with one line — exactly the extension path a fifth approach would
//! take (`pmcs_bench::ablation_registry`). The study is one
//! `pmcs_bench::sweep_with` over its eight utilization steps: every
//! `(step, set)` item runs on the worker pool (`--jobs N` /
//! `PMCS_JOBS`, resolved at this CLI edge), seeded
//! `derive_seed(0xAB1A, step, set)`, so the table is identical for every
//! thread count. The all-NLS pass and the greedy pass solve many windows
//! of the same shape; each worker's exact engine carries its DP memo
//! from one to the next. A failed analysis counts as unschedulable, is
//! reported on stderr and lands in `analysis_failures`. A perf record
//! goes to `BENCH_ablation.json`.
//!
//! With `--cross-validate N` (or `PMCS_CROSS_VALIDATE`), every analyzed
//! set is simulated under `N` adversarial release plans per column whose
//! name has a simulator policy (`wp`, `proposed`; the all-NLS `wp-milp`
//! column has none and is skipped), checking observed worst responses
//! against the analytical bounds; refutations exit nonzero.
//!
//! With `--emit-certs` (or `PMCS_EMIT_CERTS=1`), every set is certified
//! right after its item analyses it (per-step timings exclude it): the
//! proposed analysis re-runs with a recorded proof transcript and the
//! bundle is validated by the independent `pmcs-cert` checker; `cert_*`
//! counters land in the perf record and any rejection exits nonzero.
//!
//! Usage: `cargo run --release -p pmcs-bench --bin ablation -- \
//!     [--sets N] [--jobs N] [--cross-validate N] [--emit-certs]`

use std::process::ExitCode;

use pmcs_analysis::{AnalysisConfig, CliOverrides};
use pmcs_bench::{
    ablation_points, ablation_registry, finish_run, sweep_with, PerfPoint, PerfRecord,
};

fn main() -> ExitCode {
    let mut sets = 50usize;
    let mut cli = CliOverrides::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--sets" => sets = args.next().and_then(|v| v.parse().ok()).expect("--sets N"),
            "--jobs" => {
                cli.jobs = Some(args.next().and_then(|v| v.parse().ok()).expect("--jobs N"));
            }
            "--cross-validate" => {
                cli.cross_validate = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--cross-validate N"),
                );
            }
            "--emit-certs" => cli.emit_certs = Some(true),
            other => {
                eprintln!("unknown argument '{other}'");
                return ExitCode::from(2);
            }
        }
    }
    let cfg = AnalysisConfig::resolve(&cli);
    let points = ablation_points();
    let out = sweep_with(&points, sets, 0xAB1A, &ablation_registry(), &cfg);

    println!(
        "{:>5} | {:>10} {:>12} {:>12} | {:>10} {:>10}",
        "U", "wp-closed", "all-NLS", "greedy-LS", "Δ analysis", "Δ LS"
    );
    for row in &out.rows {
        let [closed, all_nls, greedy] = row.ratios[..] else {
            unreachable!("the ablation registry has three columns")
        };
        println!(
            "{:>5.2} | {closed:>10.2} {all_nls:>12.2} {greedy:>12.2} | {:>+10.2} {:>+10.2}",
            row.x,
            all_nls - closed,
            greedy - all_nls,
        );
    }
    println!(
        "\nΔ analysis = all-NLS formulation vs WP closed form (same protocol);\n\
         Δ LS       = greedy latency-sensitive marking on top (rules R3-R5)."
    );
    let failures = out.total_failures();
    if failures > 0 {
        eprintln!("ablation: {failures} analyses FAILED (counted as unschedulable in the ratios)");
    }

    let mut perf = PerfRecord::new("ablation");
    perf.jobs = out.jobs;
    perf.wall_secs = out.wall_secs;
    for (point, secs) in points.iter().zip(&out.point_secs) {
        perf.points.push(PerfPoint {
            label: format!("U={:.2}", point.x),
            secs: *secs,
        });
    }
    perf.extra_num("sets_per_step", sets as f64);
    perf.extra_num("analysis_failures", failures as f64);
    for (label, stats) in out.labels.iter().zip(&out.solver) {
        perf.extra_solver(&format!("solver_{label}"), *stats);
    }
    perf.extra_sim(&out.sim);
    if let Some(certs) = &out.certs {
        println!("certificates: {certs}");
    }
    perf.extra_cert(out.certs.as_ref());
    finish_run(&perf, out.certs.as_ref(), &out.refutations)
}
