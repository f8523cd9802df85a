//! The result of one benchmark run: named metrics with units, checks,
//! and the closing JSON line.

use std::fmt::Write as _;

use crate::stats::Tail;

/// Metrics, details and checks of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics that go into the closing JSON line.
    metrics: Vec<(String, f64, &'static str)>,
    /// Printed lines that stay out of the JSON line.
    lines: Vec<String>,
    /// Correctness checks, by name.
    checks: Vec<(String, bool)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

impl Report {
    /// Records a metric of the closing JSON line.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), finite(value), unit));
    }

    /// Prints a measured value that is not a metric of this run's mode.
    pub fn detail(&mut self, name: &str, value: f64, unit: &str) {
        self.lines.push(format!("{name} {} {unit}", finite(value)));
    }

    /// Prints a tail value with its percentile and sample count.
    pub fn tail_detail(&mut self, name: &str, t: Tail, unit: &str) {
        self.lines.push(format!(
            "{name} {} {unit} (p{:.3} of {} samples)",
            t.value, t.percentile, t.samples
        ));
    }

    /// Prints a free-form line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Records a correctness check.
    pub fn check(&mut self, name: &str, ok: bool) {
        self.checks.push((name.to_string(), ok));
    }

    /// `true` when nothing failed and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Renders every line, the JSON line last.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            let _ = writeln!(out, "{line}");
        }
        for (name, ok) in &self.checks {
            let _ = writeln!(out, "check {name} {}", if *ok { "ok" } else { "FAILED" });
        }
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "{name} {value} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_is_last_and_carries_every_metric() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("setup_s", 0.5, "s");
        r.metric("latency_us_p50", 12.25, "us");
        r.detail("extra", 1.0, "count");
        r.check("digest", true);
        let text = r.render();
        let last = text.lines().last().expect("non-empty");
        assert_eq!(
            last,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"latency_us_p50\": {\"value\": 12.25, \"unit\": \"us\"}}}"
        );
        assert!(text.contains("extra 1 count"));
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = Report {
            attempted: 1,
            ..Report::default()
        };
        r.check("replay", false);
        assert!(!r.correct());
        r.metric("x", f64::NAN, "s");
        assert!(r.render().contains("\"x\": {\"value\": 0.0,"));
    }
}
