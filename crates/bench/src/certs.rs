//! Proof-carrying verdicts for bench runs.
//!
//! With `--emit-certs` (or `PMCS_EMIT_CERTS=1`), every bench binary
//! certifies each task set in the pass that analyses it: right after
//! the timed analysis (and its cross-validation), the worker re-runs the
//! proposed analysis on the same set with the proof transcript recorded
//! ([`pmcs_core::certify_task_set`]) and validates the emitted bundle
//! with the independent `pmcs-cert` checker. Certification sits outside
//! every timed region and never touches the measured rows or CSVs — the
//! outputs are byte-identical with the flag on or off. It only adds
//! `cert_emitted` / `cert_checked` / `cert_rejected` / `cert_secs` to
//! `BENCH_<bin>.json`, and any rejected certificate (or one that cannot
//! be emitted) makes the binary exit non-zero.
//!
//! Each set is generated once, so the certified sets are exactly the
//! measured ones. Rejection lines carry the caller's item label and are
//! merged in item order, byte-identical for every thread count.

use std::fmt;

use pmcs_cert::check_certificate_set;
use pmcs_core::{certify_task_set, ExactEngine};

/// Counters and rejection lines accumulated over certified task sets.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CertSummary {
    /// Certificate bundles successfully emitted (one per task set).
    pub emitted: u64,
    /// Individual certificates the independent checker accepted
    /// (windows + WCRT fixed points + set-level transcripts).
    pub checked: u64,
    /// Rejections: checker refusals plus emission failures.
    pub rejected: u64,
    /// Wall-clock seconds spent emitting and checking (outside every
    /// timed region).
    pub secs: f64,
    /// Machine-readable rejection lines, in deterministic item order.
    pub rejections: Vec<String>,
}

impl CertSummary {
    /// Folds another summary into this one.
    pub fn merge(&mut self, other: &CertSummary) {
        self.emitted += other.emitted;
        self.checked += other.checked;
        self.rejected += other.rejected;
        self.secs += other.secs;
        self.rejections.extend(other.rejections.iter().cloned());
    }

    /// `true` iff every bundle was emitted and accepted.
    pub fn ok(&self) -> bool {
        self.rejected == 0
    }
}

impl fmt::Display for CertSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} bundle(s) emitted, {} proof(s) accepted, {} rejection(s) ({:.1}s)",
            self.emitted, self.checked, self.rejected, self.secs,
        )
    }
}

/// Certifies one task set and validates the bundle, labelling any
/// rejection lines with `label`.
pub fn certify_set(set: &pmcs_model::TaskSet, label: &str) -> CertSummary {
    let t0 = std::time::Instant::now();
    let mut summary = CertSummary::default();
    match certify_task_set(set, &ExactEngine::default()) {
        Ok((_, bundle)) => {
            summary.emitted += 1;
            let report = check_certificate_set(&bundle);
            summary.checked += report.checked as u64;
            summary.rejected += report.rejections.len() as u64;
            summary.rejections.extend(
                report
                    .rejections
                    .iter()
                    .map(|r| format!("{label} REJECTED code={} detail={}", r.code, r.detail)),
            );
        }
        Err(e) => {
            summary.rejected += 1;
            summary
                .rejections
                .push(format!("{label} REJECTED code=emit.failed detail={e}"));
        }
    }
    summary.secs = t0.elapsed().as_secs_f64();
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcs_workload::{TaskSetConfig, TaskSetGenerator};

    #[test]
    fn single_set_certification_counts_once() {
        let set = TaskSetGenerator::new(
            TaskSetConfig {
                n: 3,
                utilization: 0.2,
                ..TaskSetConfig::default()
            },
            7,
        )
        .generate();
        let summary = certify_set(&set, "demo");
        assert_eq!(summary.emitted, 1);
        assert!(summary.ok(), "rejections: {:?}", summary.rejections);
    }
}
