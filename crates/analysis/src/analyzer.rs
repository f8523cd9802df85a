//! The [`Analyzer`] trait and the per-worker [`AnalysisContext`].

use std::sync::Arc;

use pmcs_core::{CacheStats, DpStats, SharedDelayCache};
use pmcs_model::TaskSet;

use crate::config::AnalysisConfig;
use crate::engine_stack::EngineStack;
use crate::error::AnalysisError;
use crate::report::ApproachReport;

/// Per-worker analysis state: the resolved configuration plus the engine
/// stack built from it.
///
/// The stack holds scratch and cache state behind interior mutability,
/// so a context is cheap to call into but not `Sync`. Sweep drivers
/// build **one context per worker thread** and reuse it across task
/// sets — that is what makes the window-level delay cache pay off across
/// sets, exactly as the old `WorkerEngine` did.
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

    /// Builds a context whose cache layer shares `cache` with every
    /// other context built from the same `Arc` (see
    /// [`EngineStack::build_with_cache`]). Parallel drivers create one
    /// process-wide [`SharedDelayCache`] and hand a clone of the `Arc`
    /// to each worker's context, so a window solved by any worker is a
    /// hit for all. [`cache_stats`](AnalysisContext::cache_stats) still
    /// reports only *this* context's lookups, so merging per-worker
    /// stats never double-counts.
    pub fn with_shared_cache(cfg: &AnalysisConfig, cache: Arc<SharedDelayCache>) -> Self {
        AnalysisContext {
            cfg: cfg.clone(),
            engine: EngineStack::build_with_cache(cfg, cache),
        }
    }

    /// The configuration this context was built from.
    pub fn config(&self) -> &AnalysisConfig {
        &self.cfg
    }

    /// The engine stack (for analyzers that run the delay maximization).
    pub fn engine(&self) -> &EngineStack {
        &self.engine
    }

    /// Hit/miss counters accumulated by the stack's caching layers.
    pub fn cache_stats(&self) -> CacheStats {
        self.engine.cache_stats()
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
    /// Sweeps call this with a long-lived per-worker context so delay
    /// bounds cache across task sets.
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
        assert_eq!(ctx.engine().layers(), "cached(exact)");
        assert_eq!(ctx.cache_stats(), CacheStats::default());
    }
}
