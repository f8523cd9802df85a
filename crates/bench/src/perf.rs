//! Machine-readable performance records (`BENCH_<bin>.json`).
//!
//! Every bench binary drops a small JSON file at the repository root
//! recording wall-clock time, worker count, solver effort, and
//! per-point timings, so performance changes leave a comparable trail
//! across commits. The format is hand-rolled (the container is offline —
//! no serde): flat object, stable key order, finite numbers only.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use pmcs_analysis::SimCounters;
use pmcs_core::DpStats;

use crate::certs::CertSummary;

/// One labeled timing entry (a sweep point, a figure inset, a config row).
#[derive(Debug, Clone)]
pub struct PerfPoint {
    /// Human-readable label, e.g. `"fig2a"` or `"U=0.25"`.
    pub label: String,
    /// Aggregate compute seconds spent on this point.
    pub secs: f64,
}

/// A performance record destined for `BENCH_<bin>.json`.
#[derive(Debug, Clone)]
pub struct PerfRecord {
    /// Binary name (`fig2`, `fig1`, `ablation`, `runtime_table`).
    pub bin: String,
    /// End-to-end wall-clock seconds of the measured phase.
    pub wall_secs: f64,
    /// Worker threads used.
    pub jobs: usize,
    /// Per-point timings.
    pub points: Vec<PerfPoint>,
    /// Extra key/value pairs; values must already be valid JSON
    /// fragments (use [`PerfRecord::extra_num`] / [`PerfRecord::extra_str`]).
    extras: Vec<(String, String)>,
}

impl PerfRecord {
    /// Starts an empty record for `bin`.
    pub fn new(bin: &str) -> Self {
        PerfRecord {
            bin: bin.to_string(),
            wall_secs: 0.0,
            jobs: 1,
            points: Vec::new(),
            extras: Vec::new(),
        }
    }

    /// Attaches a numeric field (NaN/∞ are recorded as `null`).
    pub fn extra_num(&mut self, key: &str, value: f64) {
        self.extras.push((key.to_string(), json_num(value)));
    }

    /// Attaches a string field.
    pub fn extra_str(&mut self, key: &str, value: &str) {
        self.extras.push((key.to_string(), json_str(value)));
    }

    /// Attaches one exact-DP effort record under `prefix` as
    /// `<prefix>_bb_nodes` (search nodes) and `<prefix>_dp_fallbacks`,
    /// e.g. `solver_proposed_bb_nodes`.
    pub fn extra_solver(&mut self, prefix: &str, stats: DpStats) {
        self.extra_num(&format!("{prefix}_bb_nodes"), stats.nodes as f64);
        self.extra_num(&format!("{prefix}_dp_fallbacks"), stats.fallbacks as f64);
    }

    /// Attaches the certificate counters as the four `cert_*` keys plus
    /// `certs_enabled`; `None` means emission was off (`"no"`, counters
    /// zero).
    pub fn extra_cert(&mut self, certs: Option<&CertSummary>) {
        let zero = CertSummary::default();
        let c = certs.unwrap_or(&zero);
        self.extra_num("cert_emitted", c.emitted as f64);
        self.extra_num("cert_checked", c.checked as f64);
        self.extra_num("cert_rejected", c.rejected as f64);
        self.extra_num("cert_secs", c.secs);
        self.extra_str("certs_enabled", if certs.is_some() { "yes" } else { "no" });
    }

    /// Attaches the simulation cross-validation counters as the `sim_*`
    /// keys (all zero when cross-validation was off), including the
    /// simulation throughput and the workspace-reuse counter — how many
    /// runs recycled a worker's pooled buffers instead of allocating.
    pub fn extra_sim(&mut self, sim: &SimCounters) {
        self.extra_num("sim_plans_run", sim.plans_run as f64);
        self.extra_num("sim_traces_validated", sim.traces_validated as f64);
        self.extra_num("sim_refutations", sim.refutations as f64);
        self.extra_num("sim_secs", sim.sim_secs);
        self.extra_num("sim_plans_per_sec", sim.plans_per_sec());
        self.extra_num("sim_ws_reused", sim.ws_reused as f64);
    }

    /// Renders the record as a JSON object.
    pub fn to_json(&self) -> String {
        let mut o = String::from("{\n");
        let _ = writeln!(o, "  \"bin\": {},", json_str(&self.bin));
        let _ = writeln!(o, "  \"wall_secs\": {},", json_num(self.wall_secs));
        let _ = writeln!(o, "  \"jobs\": {},", self.jobs);
        for (k, v) in &self.extras {
            let _ = writeln!(o, "  {}: {},", json_str(k), v);
        }
        let _ = writeln!(o, "  \"points\": [");
        for (i, p) in self.points.iter().enumerate() {
            let comma = if i + 1 < self.points.len() { "," } else { "" };
            let _ = writeln!(
                o,
                "    {{\"label\": {}, \"secs\": {}}}{comma}",
                json_str(&p.label),
                json_num(p.secs)
            );
        }
        let _ = writeln!(o, "  ]");
        o.push('}');
        o.push('\n');
        o
    }

    /// Writes `BENCH_<bin>.json` at the repository root (falling back to
    /// the current directory when run outside the source tree) and
    /// returns the path written.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self) -> io::Result<PathBuf> {
        let path = repo_root().join(format!("BENCH_{}.json", self.bin));
        fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// The ending every bench binary shares: writes `perf` to
/// `BENCH_<bin>.json` and prints `perf record: <path>`, then fails
/// the run when a certificate was rejected (printing the rejection lines)
/// or, failing that, when cross-validation refuted an analytical bound
/// (printing the refutation lines). `certs` is `None` when nothing was
/// certified.
///
/// # Panics
///
/// Panics if the record cannot be written.
pub fn finish_run(
    perf: &PerfRecord,
    certs: Option<&CertSummary>,
    refutations: &[String],
) -> ExitCode {
    let path = perf.write().expect("write perf record");
    println!("perf record: {}", path.display());
    if let Some(certs) = certs.filter(|c| !c.ok()) {
        for line in &certs.rejections {
            eprintln!("{line}");
        }
        eprintln!(
            "certificate pass REJECTED {} certificate(s)",
            certs.rejected
        );
        return ExitCode::FAILURE;
    }
    if !refutations.is_empty() {
        eprintln!(
            "cross-validation REFUTED {} analytical bound(s):",
            refutations.len()
        );
        for line in refutations {
            eprintln!("{line}");
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The repository root: two levels above this crate's manifest when that
/// directory still exists (source checkout), else the current directory.
fn repo_root() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    if root.is_dir() {
        root
    } else {
        PathBuf::from(".")
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_stable() {
        let mut r = PerfRecord::new("fig2");
        r.wall_secs = 1.5;
        r.jobs = 4;
        r.extra_num("speedup", 3.2);
        r.extra_str("note", "a \"quoted\"\nline");
        r.points.push(PerfPoint {
            label: "fig2a".into(),
            secs: 0.25,
        });
        r.points.push(PerfPoint {
            label: "fig2b".into(),
            secs: 1.25,
        });
        let j = r.to_json();
        assert!(j.contains("\"bin\": \"fig2\""));
        assert!(j.contains("\"wall_secs\": 1.5"));
        assert!(j.contains("\"jobs\": 4"));
        assert!(!j.contains("cache"));
        assert!(j.contains("\"speedup\": 3.2"));
        assert!(j.contains("\\\"quoted\\\"\\nline"));
        assert!(j.contains("{\"label\": \"fig2a\", \"secs\": 0.25},"));
        assert!(j.ends_with("}\n"));
    }

    #[test]
    fn solver_extras_are_prefixed() {
        let mut r = PerfRecord::new("x");
        r.extra_solver(
            "solver_proposed",
            DpStats {
                nodes: 7,
                fallbacks: 2,
            },
        );
        let j = r.to_json();
        assert!(j.contains("\"solver_proposed_bb_nodes\": 7"));
        assert!(j.contains("\"solver_proposed_dp_fallbacks\": 2"));
        assert!(!j.contains("lp_"), "the DP records no LP keys: {j}");
    }

    #[test]
    fn cert_counters_land_under_cert_keys() {
        let mut r = PerfRecord::new("x");
        r.extra_cert(Some(&CertSummary {
            emitted: 5,
            checked: 40,
            rejected: 0,
            secs: 0.5,
            rejections: Vec::new(),
        }));
        let j = r.to_json();
        assert!(j.contains("\"cert_emitted\": 5"));
        assert!(j.contains("\"cert_checked\": 40"));
        assert!(j.contains("\"cert_rejected\": 0"));
        assert!(j.contains("\"cert_secs\": 0.5"));
        assert!(j.contains("\"certs_enabled\": \"yes\""));
        let mut off = PerfRecord::new("x");
        off.extra_cert(None);
        let j = off.to_json();
        assert!(j.contains("\"cert_emitted\": 0"));
        assert!(j.contains("\"certs_enabled\": \"no\""));
    }

    #[test]
    fn finish_run_fails_on_rejections_and_refutations() {
        let r = PerfRecord::new("perf_finish_selftest");
        let rejected = CertSummary {
            rejected: 1,
            rejections: vec!["set=0 REJECTED code=x detail=y".into()],
            ..CertSummary::default()
        };
        let refuted = ["REFUTATION approach=proposed".to_string()];
        assert_eq!(finish_run(&r, None, &[]), ExitCode::SUCCESS);
        assert_eq!(
            finish_run(&r, Some(&CertSummary::default()), &[]),
            ExitCode::SUCCESS
        );
        assert_eq!(finish_run(&r, Some(&rejected), &[]), ExitCode::FAILURE);
        assert_eq!(finish_run(&r, None, &refuted), ExitCode::FAILURE);
        let _ = fs::remove_file(repo_root().join("BENCH_perf_finish_selftest.json"));
    }

    #[test]
    fn sim_counters_land_under_sim_keys() {
        let mut r = PerfRecord::new("x");
        r.extra_sim(&SimCounters {
            plans_run: 12,
            traces_validated: 9,
            refutations: 1,
            sim_secs: 0.25,
            ws_reused: 11,
        });
        let j = r.to_json();
        assert!(j.contains("\"sim_plans_run\": 12"));
        assert!(j.contains("\"sim_traces_validated\": 9"));
        assert!(j.contains("\"sim_refutations\": 1"));
        assert!(j.contains("\"sim_secs\": 0.25"));
        assert!(j.contains("\"sim_plans_per_sec\": 48"));
        assert!(j.contains("\"sim_ws_reused\": 11"));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let mut r = PerfRecord::new("x");
        r.extra_num("bad", f64::NAN);
        assert!(r.to_json().contains("\"bad\": null"));
    }

    #[test]
    fn record_writes_to_repo_root() {
        let mut r = PerfRecord::new("perf_selftest");
        r.wall_secs = 0.01;
        let path = r.write().expect("writable repo root");
        let text = fs::read_to_string(&path).expect("file just written");
        assert!(text.contains("\"bin\": \"perf_selftest\""));
        assert!(path.ends_with("BENCH_perf_selftest.json"));
        let _ = fs::remove_file(&path);
    }
}
