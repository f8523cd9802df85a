//! The pmcs benchmark: one workload per run, end-to-end metrics with
//! tracing off, per-layer metrics from a separate traced run.
//!
//! ```text
//! pmcs-perfbench --workload sweep|admission|campaign --seed N --seconds S
//!                --trace 0|1 [--serve-bin PATH] [--out DIR]
//! ```
//!
//! Prints every metric as `name value unit`, then one JSON line
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`, and exits
//! nonzero when a correctness check fails. See `README.md` for the
//! workloads and the metric-to-layer map.

mod admission;
mod campaign;
mod layers;
mod loadgen;
mod report;
mod stats;
mod sweep;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Options shared by every workload.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Workload seed; every input derives from it.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// The `pmcs-serve` executable (admission only).
    pub serve_bin: PathBuf,
    /// Where traced runs write their spans.
    pub out: Option<PathBuf>,
}

impl RunOpts {
    /// The timed phase as a duration.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Writes a traced run's spans to `<out>/spans-<workload>.tsv`.
    pub fn write_spans(&self, workload: &str, recorders: &[trace::Recorder]) {
        let Some(dir) = &self.out else {
            return;
        };
        let path = dir.join(format!("spans-{workload}.tsv"));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, trace::spans_tsv(recorders)));
        match written {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
}

/// FNV-1a over the verdict fields a digest covers: stable across runs,
/// platforms and thread counts.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// The empty digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mixes in raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mixes in an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Mixes in a length-prefixed string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

const USAGE: &str = "usage: pmcs-perfbench --workload sweep|admission|campaign --seed N \
                     --seconds S --trace 0|1 [--serve-bin PATH] [--out DIR]";

fn parse(args: &[String]) -> Result<(String, RunOpts), String> {
    let mut workload = None;
    let mut opts = RunOpts {
        seed: 1,
        seconds: 10.0,
        trace: false,
        serve_bin: PathBuf::from("pmcs-serve"),
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = || format!("invalid value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--serve-bin" => opts.serve_bin = PathBuf::from(value),
            "--out" => opts.out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let report = match workload.as_str() {
        "sweep" => sweep::run(&opts),
        "admission" => match admission::run(&opts) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: admission workload failed: {e}");
                return ExitCode::FAILURE;
            }
        },
        "campaign" => campaign::run(&opts),
        other => {
            eprintln!("error: unknown workload {other:?}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.render());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: a correctness check failed");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let (w, o) = parse(&args("--workload sweep --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(w, "sweep");
        assert_eq!(o.seed, 7);
        assert_eq!(o.seconds, 3.0);
        assert!(o.trace);
        assert!(parse(&args("--workload sweep --trace 2")).is_err());
        assert!(parse(&args("--seed 1")).is_err());
        assert!(parse(&args("--workload sweep --seconds")).is_err());
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::new();
        a.u64(1);
        a.u64(2);
        let mut b = Digest::new();
        b.u64(2);
        b.u64(1);
        assert_ne!(a.finish(), b.finish());
    }
}
