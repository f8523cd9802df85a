//! Typed analysis configuration, resolved exactly once at the CLI edge.
//!
//! Every knob that used to leak through scattered `std::env` reads
//! (`PMCS_JOBS` in the bench worker pool, `PMCS_AUDIT` deep inside the
//! MILP engine) now lives on [`AnalysisConfig`]. Binaries call
//! [`AnalysisConfig::resolve`] with whatever their command line provided;
//! the environment is consulted **only there**, with the documented
//! precedence *flag > environment > default*. Library code receives the
//! resolved struct and never touches the process environment.

use std::thread;

/// Environment variable naming the worker-thread count (CLI edge only;
/// an explicit `--jobs` flag wins).
pub const JOBS_ENV_VAR: &str = "PMCS_JOBS";

/// Environment variable requesting audited analysis (`1`/`true`; CLI
/// edge only, an explicit `--audit`/`--no-audit` flag wins). When on,
/// every delay bound is cross-checked against the MILP formulation,
/// whose solves are re-verified with exact rational arithmetic
/// (`pmcs_milp::audit`); a refuted answer surfaces as
/// `CoreError::AuditFailed` instead of silently feeding a wrong bound
/// into the fixed point.
pub const AUDIT_ENV_VAR: &str = "PMCS_AUDIT";

/// Environment variable naming the number of adversarial release plans
/// to cross-validate per schedulable set (CLI edge only; an explicit
/// `--cross-validate` flag wins). `0` (the default) disables
/// cross-validation.
pub const CROSS_VALIDATE_ENV_VAR: &str = "PMCS_CROSS_VALIDATE";

/// Environment variable enabling certificate emission (`1`/`true`; CLI
/// edge only, an explicit `--emit-certs` flag wins). When on, every
/// analyzed set is re-certified *outside* the timed regions: the
/// proposed analysis re-runs with its proof transcript recorded, the
/// resulting bundle is validated by the independent `pmcs-cert` checker,
/// and `cert_*` counters land in the perf record.
pub const EMIT_CERTS_ENV_VAR: &str = "PMCS_EMIT_CERTS";

/// Resolved analysis configuration.
///
/// Construction paths:
///
/// * [`AnalysisConfig::default`] — single-threaded, cached, unaudited,
///   default solver limits; what library callers and tests want.
/// * [`AnalysisConfig::resolve`] — the CLI edge: merges explicit flags
///   with the `PMCS_*` environment variables (precedence
///   flag > env > default) and defaults `jobs` to the machine's
///   available parallelism.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// Worker threads for sweep executors (always ≥ 1).
    pub jobs: usize,
    /// Wrap the delay engine in a window-level delay-bound cache.
    pub cache: bool,
    /// Cross-check every delay bound against the audited MILP
    /// formulation (exact rational arithmetic). Orders of magnitude
    /// slower; meant for validation runs.
    pub audit: bool,
    /// Memoization-entry budget of the exact engine (the solver limit:
    /// roughly bounds per-window memory and time).
    pub max_states: usize,
    /// Number of adversarial release plans to simulate per schedulable
    /// set, checking observed worst responses against the analytical WCRT
    /// bounds (`0` disables cross-validation).
    pub cross_validate: usize,
    /// Emit a machine-checkable certificate bundle for every analyzed
    /// set (outside the timed regions) and validate it with the
    /// independent `pmcs-cert` checker.
    pub emit_certs: bool,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            jobs: 1,
            cache: true,
            audit: false,
            max_states: pmcs_core::engine::DEFAULT_MAX_STATES,
            cross_validate: 0,
            emit_certs: false,
        }
    }
}

/// Explicit command-line overrides handed to [`AnalysisConfig::resolve`].
/// `None` means "the flag was not given" and falls through to the
/// environment, then the default.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CliOverrides {
    /// `--jobs N`.
    pub jobs: Option<usize>,
    /// `--no-cache` (as `Some(false)`) / `--cache` (as `Some(true)`).
    pub cache: Option<bool>,
    /// `--audit` / `--no-audit`.
    pub audit: Option<bool>,
    /// `--max-states N`.
    pub max_states: Option<usize>,
    /// `--cross-validate N`.
    pub cross_validate: Option<usize>,
    /// `--emit-certs`.
    pub emit_certs: Option<bool>,
}

impl AnalysisConfig {
    /// Resolves the effective configuration at the CLI edge.
    ///
    /// Precedence per field: explicit flag > environment > default.
    /// Honored environment variables:
    ///
    /// * [`JOBS_ENV_VAR`] (`PMCS_JOBS`, a thread count);
    /// * [`AUDIT_ENV_VAR`] (`PMCS_AUDIT`, `1`/`true` enables auditing);
    /// * [`CROSS_VALIDATE_ENV_VAR`] (`PMCS_CROSS_VALIDATE`, plans per
    ///   schedulable set);
    /// * [`EMIT_CERTS_ENV_VAR`] (`PMCS_EMIT_CERTS`, `1`/`true` enables
    ///   certificate emission).
    ///
    /// `jobs` defaults to [`std::thread::available_parallelism`] rather
    /// than 1, matching the historical bench-binary behavior.
    pub fn resolve(cli: &CliOverrides) -> Self {
        let defaults = AnalysisConfig::default();
        let jobs = cli
            .jobs
            .or_else(|| {
                std::env::var(JOBS_ENV_VAR)
                    .ok()
                    .and_then(|v| v.parse().ok())
            })
            .unwrap_or_else(|| {
                thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .max(1);
        let audit = cli.audit.unwrap_or_else(|| {
            std::env::var(AUDIT_ENV_VAR)
                .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
                .unwrap_or(defaults.audit)
        });
        let cross_validate = cli
            .cross_validate
            .or_else(|| {
                std::env::var(CROSS_VALIDATE_ENV_VAR)
                    .ok()
                    .and_then(|v| v.parse().ok())
            })
            .unwrap_or(defaults.cross_validate);
        let emit_certs = cli.emit_certs.unwrap_or_else(|| {
            std::env::var(EMIT_CERTS_ENV_VAR)
                .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
                .unwrap_or(defaults.emit_certs)
        });
        AnalysisConfig {
            jobs,
            cache: cli.cache.unwrap_or(defaults.cache),
            audit,
            max_states: cli.max_states.unwrap_or(defaults.max_states).max(1),
            cross_validate,
            emit_certs,
        }
    }

    /// A copy with a different worker count (convenience for sweeps).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// A copy with the delay cache enabled or disabled.
    pub fn with_cache(mut self, cache: bool) -> Self {
        self.cache = cache;
        self
    }

    /// A copy with a different number of cross-validation plans per
    /// schedulable set (`0` disables cross-validation).
    pub fn with_cross_validate(mut self, plans: usize) -> Self {
        self.cross_validate = plans;
        self
    }

    /// A copy with certificate emission enabled or disabled.
    pub fn with_emit_certs(mut self, emit: bool) -> Self {
        self.emit_certs = emit;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_single_threaded_cached_unaudited() {
        let cfg = AnalysisConfig::default();
        assert_eq!(cfg.jobs, 1);
        assert!(cfg.cache);
        assert!(!cfg.audit);
        assert!(cfg.max_states > 0);
    }

    #[test]
    fn explicit_flags_win() {
        let cfg = AnalysisConfig::resolve(&CliOverrides {
            jobs: Some(3),
            cache: Some(false),
            audit: Some(true),
            max_states: Some(7),
            cross_validate: Some(5),
            emit_certs: Some(true),
        });
        assert_eq!(cfg.jobs, 3);
        assert!(!cfg.cache);
        assert!(cfg.audit);
        assert_eq!(cfg.max_states, 7);
        assert_eq!(cfg.cross_validate, 5);
        assert!(cfg.emit_certs);
    }

    #[test]
    fn zero_requests_are_clamped() {
        let cfg = AnalysisConfig::resolve(&CliOverrides {
            jobs: Some(0),
            max_states: Some(0),
            ..CliOverrides::default()
        });
        assert_eq!(cfg.jobs, 1);
        assert_eq!(cfg.max_states, 1);
    }

    #[test]
    fn builder_helpers_compose() {
        let cfg = AnalysisConfig::default()
            .with_jobs(4)
            .with_cache(false)
            .with_cross_validate(3);
        assert_eq!(cfg.jobs, 4);
        assert!(!cfg.cache);
        assert_eq!(cfg.cross_validate, 3);
    }

    #[test]
    fn cross_validate_defaults_off() {
        assert_eq!(AnalysisConfig::default().cross_validate, 0);
    }

    #[test]
    fn emit_certs_defaults_off() {
        assert!(!AnalysisConfig::default().emit_certs);
        assert!(AnalysisConfig::default().with_emit_certs(true).emit_certs);
    }
}
