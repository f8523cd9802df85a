//! The [`Analyzer`] trait and the per-worker [`AnalysisContext`].

use std::sync::Arc;

use pmcs_core::{DpStats, SharedDelayCache};
use pmcs_model::TaskSet;

use crate::config::AnalysisConfig;
use crate::engine_stack::EngineStack;
use crate::error::AnalysisError;
use crate::report::ApproachReport;

/// Per-worker analysis state: the resolved configuration plus the engine
/// stack built from it.
///
/// The stack holds scratch and the exact engine's DP memo behind
/// interior mutability, so a context is cheap to call into but not
/// `Sync`. Sweep drivers build **one context per worker thread** and
/// reuse it across task sets, so the memo's tables are allocated once
/// per worker rather than once per set. Nothing a context keeps changes
/// a result: a fresh context analyses every set identically.
#[derive(Debug)]
pub struct AnalysisContext {
    cfg: AnalysisConfig,
    engine: EngineStack,
}

impl AnalysisContext {
    /// Builds a context (and its engine stack) for `cfg`.
    pub fn new(cfg: &AnalysisConfig) -> Self {
        AnalysisContext {
            cfg: cfg.clone(),
            engine: EngineStack::build(cfg),
        }
    }

    /// The same as [`new`](AnalysisContext::new); the cache is ignored.
    ///
    /// Kept so that callers written when the stack had a shared
    /// window-cache layer still compile. Batch analysis no longer caches
    /// windows (see [`EngineStack`]); a long-lived service that repeats
    /// windows wraps its engine in a
    /// [`SharedCachedEngine`](pmcs_core::SharedCachedEngine) directly.
    pub fn with_shared_cache(cfg: &AnalysisConfig, _cache: Arc<SharedDelayCache>) -> Self {
        Self::new(cfg)
    }

    /// The configuration this context was built from.
    pub fn config(&self) -> &AnalysisConfig {
        &self.cfg
    }

    /// The engine stack (for analyzers that run the delay maximization).
    pub fn engine(&self) -> &EngineStack {
        &self.engine
    }

    /// Cumulative exact-DP effort accumulated by the stack's engine.
    /// Analyzers snapshot this before and after a run and attribute the
    /// difference (via [`DpStats::since`]) to their report.
    pub fn solver_stats(&self) -> DpStats {
        self.engine.solver_stats()
    }
}

/// A schedulability-analysis approach with a stable name and a uniform
/// report shape.
///
/// Implementations must be stateless apart from their construction-time
/// parameters (`Send + Sync`, shared across worker threads); all mutable
/// analysis state lives in the [`AnalysisContext`].
pub trait Analyzer: Send + Sync {
    /// Stable machine-readable name ("proposed", "wp", "nps", ...); used
    /// as the registry key and as the CSV column header.
    fn name(&self) -> &str;

    /// Analyzes `set` using a caller-provided context.
    ///
    /// Sweeps call this with a long-lived per-worker context, so the
    /// engine's tables are reused across task sets.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError`] when the analysis *fails* (solver
    /// failure, non-convergence, audit refutation) — as opposed to
    /// completing with an unschedulable verdict, which is an `Ok` report.
    fn analyze_with(
        &self,
        set: &TaskSet,
        ctx: &AnalysisContext,
    ) -> Result<ApproachReport, AnalysisError>;

    /// Analyzes `set` with a fresh context built from `cfg`.
    ///
    /// One-shot convenience; see [`Analyzer::analyze_with`] for the
    /// reusable-context variant and the error contract.
    ///
    /// # Errors
    ///
    /// As for [`Analyzer::analyze_with`].
    fn analyze(
        &self,
        set: &TaskSet,
        cfg: &AnalysisConfig,
    ) -> Result<ApproachReport, AnalysisError> {
        self.analyze_with(set, &AnalysisContext::new(cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_exposes_its_config_and_stack() {
        let cfg = AnalysisConfig::default();
        let ctx = AnalysisContext::new(&cfg);
        assert_eq!(ctx.config(), &cfg);
        assert_eq!(ctx.engine().layers(), "exact");
        assert!(ctx.solver_stats().is_empty());
    }
}
