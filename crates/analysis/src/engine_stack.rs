//! The composable delay-engine stack.
//!
//! Pre-facade, engine assembly was scattered: the bench sweeps hid a
//! `WorkerEngine` enum special-casing the cached/uncached split, and the
//! `PMCS_AUDIT` environment variable flipped the MILP engine into audited
//! mode from deep inside `pmcs-core`. Here the stack is built in one
//! place, from one [`AnalysisConfig`], as plain decorator layers:
//!
//! ```text
//! SharedCachedEngine     (cfg.cache — window-level delay-bound memo)
//!   └─ AuditedEngine     (cfg.audit — cross-check vs audited MILP)
//!        └─ ExactEngine  (always — memoized-DP base, cfg.max_states)
//! ```
//!
//! The cache sits outermost so that audited solves only run on cache
//! misses. Each layer implements [`StackEngine`] — [`DelayEngine`] plus
//! cache-statistics observability — so the stack composes without any
//! enum dispatch and a new layer is one `impl` away.

use std::fmt;
use std::sync::Arc;

use pmcs_core::cache::DEFAULT_CAPACITY;
use pmcs_core::wcrt::DelayBound;
use pmcs_core::{
    CacheStats, CoreError, DelayEngine, ExactEngine, MilpEngine, SharedCachedEngine,
    SharedDelayCache, SolverStats, WindowModel,
};

use crate::config::AnalysisConfig;

/// A delay engine usable as a stack layer: a [`DelayEngine`] that can be
/// moved to a worker thread and reports cache statistics (zero for
/// layers that do not cache) plus cumulative solver effort.
pub trait StackEngine: DelayEngine + Send {
    /// Hit/miss counters of every cache in this layer and below.
    fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    /// Cumulative solver effort (nodes, LP pivots, presolve reductions,
    /// warm starts) of this layer and below.
    fn solver_stats(&self) -> SolverStats {
        SolverStats::default()
    }
}

impl StackEngine for ExactEngine {
    fn solver_stats(&self) -> SolverStats {
        self.solver_stats()
    }
}

impl<E: StackEngine> StackEngine for SharedCachedEngine<E> {
    /// Local counters only (this stack's lookups into the shared cache),
    /// so per-worker merging never double-counts — see
    /// [`SharedDelayCache::stats`] for the global view.
    fn cache_stats(&self) -> CacheStats {
        let mut stats = self.stats();
        stats.merge(self.inner().cache_stats());
        stats
    }

    fn solver_stats(&self) -> SolverStats {
        self.inner().solver_stats()
    }
}

impl DelayEngine for Box<dyn StackEngine> {
    fn max_total_delay(&self, w: &WindowModel) -> Result<DelayBound, CoreError> {
        (**self).max_total_delay(w)
    }
}

impl StackEngine for Box<dyn StackEngine> {
    fn cache_stats(&self) -> CacheStats {
        (**self).cache_stats()
    }

    fn solver_stats(&self) -> SolverStats {
        (**self).solver_stats()
    }
}

/// Decorator that cross-checks every delay bound against the paper's
/// MILP formulation solved in audited mode (exact rational arithmetic,
/// see [`pmcs_milp::audit`]). The MILP pipeline shares nothing with the
/// exact DP engine it checks but the [`WindowModel`].
///
/// * Both bounds exact → they must agree tick-for-tick.
/// * Inner bound inexact (budget fallback) → it must still dominate the
///   certified exact optimum (safety of the over-approximation).
/// * Reference inexact → nothing can be certified; the inner bound
///   passes through (the MILP relaxation bound is itself audit-checked).
///
/// Exponentially slower than the bare engine on large windows; meant for
/// validation runs, enabled by `AnalysisConfig { audit: true, .. }`.
#[derive(Debug)]
pub struct AuditedEngine<E> {
    inner: E,
    reference: MilpEngine,
}

impl<E> AuditedEngine<E> {
    /// Wraps `inner` with an audited-MILP cross-check.
    pub fn new(inner: E) -> Self {
        AuditedEngine {
            inner,
            reference: MilpEngine::new(),
        }
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }
}

impl<E: DelayEngine> DelayEngine for AuditedEngine<E> {
    fn max_total_delay(&self, w: &WindowModel) -> Result<DelayBound, CoreError> {
        let bound = self.inner.max_total_delay(w)?;
        let reference = self.reference.max_total_delay(w)?;
        if reference.exact {
            if bound.exact && bound.delay != reference.delay {
                return Err(CoreError::AuditFailed {
                    check: "engine-vs-audited-milp",
                    detail: format!(
                        "engine bound {} disagrees with the audited MILP optimum {}",
                        bound.delay, reference.delay
                    ),
                });
            }
            if !bound.exact && bound.delay < reference.delay {
                return Err(CoreError::AuditFailed {
                    check: "fallback-dominates-optimum",
                    detail: format!(
                        "inexact fallback bound {} is below the audited optimum {}",
                        bound.delay, reference.delay
                    ),
                });
            }
        }
        Ok(bound)
    }
}

impl<E: StackEngine> StackEngine for AuditedEngine<E> {
    fn cache_stats(&self) -> CacheStats {
        self.inner.cache_stats()
    }

    fn solver_stats(&self) -> SolverStats {
        let mut stats = self.inner.solver_stats();
        stats.merge(self.reference.solver_stats());
        stats
    }
}

/// The assembled engine stack: a boxed pile of [`StackEngine`] layers
/// built by [`EngineStack::build`] from one [`AnalysisConfig`].
///
/// Holds per-call scratch and cache state behind interior mutability, so
/// it is cheap to call but not `Sync`: parallel drivers build one stack
/// per worker (see [`AnalysisContext`](crate::AnalysisContext)).
pub struct EngineStack {
    engine: Box<dyn StackEngine>,
    layers: String,
}

impl EngineStack {
    /// Assembles the stack described by `cfg`; the window-cache layer
    /// (when `cfg.cache` is on) gets a private one-shard cache.
    pub fn build(cfg: &AnalysisConfig) -> Self {
        let private = SharedDelayCache::with_config(1, DEFAULT_CAPACITY);
        Self::build_with_cache(cfg, Arc::new(private))
    }

    /// Like [`build`](EngineStack::build), but the window-cache layer
    /// (when `cfg.cache` is on) reads and writes `shared`, so every stack
    /// handed the same `Arc` — bench workers, server threads — shares one
    /// warm cache. Bounds are content-addressed, so results are
    /// identical either way; only hit/miss telemetry depends on who
    /// solved a window first. With `cfg.cache` off the `Arc` is ignored.
    pub fn build_with_cache(cfg: &AnalysisConfig, shared: Arc<SharedDelayCache>) -> Self {
        // Each layer wraps the pile once and names itself around the
        // name of what it wraps, so the description cannot drift from
        // the composition.
        let mut engine: Box<dyn StackEngine> =
            Box::new(ExactEngine::with_max_states(cfg.max_states));
        let mut layers = String::from("exact");
        if cfg.audit {
            engine = Box::new(AuditedEngine::new(engine));
            layers = format!("audited({layers})");
        }
        if cfg.cache {
            engine = Box::new(SharedCachedEngine::new(engine, shared));
            layers = format!("cached({layers})");
        }
        EngineStack { engine, layers }
    }

    /// Hit/miss counters of every caching layer in the stack.
    pub fn cache_stats(&self) -> CacheStats {
        self.engine.cache_stats()
    }

    /// Cumulative solver effort of every layer in the stack.
    pub fn solver_stats(&self) -> SolverStats {
        self.engine.solver_stats()
    }

    /// Human-readable layer composition, outermost first.
    pub fn layers(&self) -> &str {
        &self.layers
    }
}

impl DelayEngine for EngineStack {
    fn max_total_delay(&self, w: &WindowModel) -> Result<DelayBound, CoreError> {
        self.engine.max_total_delay(w)
    }
}

impl fmt::Debug for EngineStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineStack")
            .field("layers", &self.layers)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcs_core::window::{test_task, WindowCase};
    use pmcs_model::{TaskId, TaskSet, Time};

    fn demo_window() -> WindowModel {
        let set = TaskSet::new(vec![
            test_task(0, 10, 2, 2, 1_000, 0, false),
            test_task(1, 20, 5, 5, 1_000, 1, false),
        ])
        .expect("valid task set");
        WindowModel::build(&set, TaskId(1), WindowCase::Nls, Time::from_ticks(10))
            .expect("task id is in the set")
    }

    #[test]
    fn every_stack_shape_agrees_with_the_bare_engine() {
        let w = demo_window();
        let reference = ExactEngine::default()
            .max_total_delay(&w)
            .expect("engine result");
        for (cache, audit) in [(false, false), (true, false), (false, true), (true, true)] {
            let cfg = AnalysisConfig {
                cache,
                audit,
                ..AnalysisConfig::default()
            };
            let stack = EngineStack::build(&cfg);
            let bound = stack.max_total_delay(&w).expect("stack result");
            assert_eq!(bound.delay, reference.delay, "stack {}", stack.layers());
        }
    }

    #[test]
    fn cached_stack_reports_hits_on_repeat_solves() {
        let cfg = AnalysisConfig::default();
        let stack = EngineStack::build(&cfg);
        let w = demo_window();
        let _ = stack.max_total_delay(&w).expect("stack result");
        let _ = stack.max_total_delay(&w).expect("stack result");
        let stats = stack.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn uncached_stack_reports_zero_stats() {
        let cfg = AnalysisConfig {
            cache: false,
            ..AnalysisConfig::default()
        };
        let stack = EngineStack::build(&cfg);
        let _ = stack.max_total_delay(&demo_window()).expect("stack result");
        assert_eq!(stack.cache_stats(), CacheStats::default());
    }

    #[test]
    fn audited_layer_passes_agreeing_bounds() {
        let audited = AuditedEngine::new(ExactEngine::default());
        let bound = audited.max_total_delay(&demo_window()).expect("agreement");
        assert!(bound.exact);
    }

    #[test]
    fn audited_layer_refutes_a_lying_engine() {
        /// An engine that returns an exact-but-wrong bound.
        #[derive(Debug)]
        struct Liar;
        impl DelayEngine for Liar {
            fn max_total_delay(&self, _: &WindowModel) -> Result<DelayBound, CoreError> {
                Ok(DelayBound {
                    delay: Time::from_ticks(1),
                    exact: true,
                    nodes: 0,
                })
            }
        }
        let audited = AuditedEngine::new(Liar);
        let err = audited
            .max_total_delay(&demo_window())
            .expect_err("the audit must refute the wrong bound");
        assert!(matches!(err, CoreError::AuditFailed { .. }), "{err}");
    }

    #[test]
    fn layer_names_follow_the_wrapping_order() {
        for (cache, audit, expected) in [
            (false, false, "exact"),
            (true, false, "cached(exact)"),
            (false, true, "audited(exact)"),
            (true, true, "cached(audited(exact))"),
        ] {
            let cfg = AnalysisConfig {
                cache,
                audit,
                ..AnalysisConfig::default()
            };
            let stack = EngineStack::build(&cfg);
            assert_eq!(stack.layers(), expected);
            assert!(format!("{stack:?}").contains(expected));
        }
    }

    #[test]
    fn shared_cache_is_reused_across_stacks() {
        let cfg = AnalysisConfig::default();
        let shared = Arc::new(SharedDelayCache::default());
        let a = EngineStack::build_with_cache(&cfg, Arc::clone(&shared));
        let b = EngineStack::build_with_cache(&cfg, Arc::clone(&shared));
        let w = demo_window();
        let first = a.max_total_delay(&w).expect("stack result");
        let second = b.max_total_delay(&w).expect("stack result");
        assert_eq!(first.delay, second.delay);
        assert_eq!(b.cache_stats().hits, 1, "the second stack hits");
        assert_eq!(shared.len(), 1);
    }

    #[test]
    fn solver_stats_flow_through_the_stack() {
        let exact = EngineStack::build(&AnalysisConfig {
            cache: false,
            ..AnalysisConfig::default()
        });
        assert!(exact.solver_stats().is_empty());
        let _ = exact.max_total_delay(&demo_window()).expect("stack result");
        assert!(exact.solver_stats().bb_nodes > 0);
        // The audit layer adds its reference MILP's LP effort.
        let audited = EngineStack::build(&AnalysisConfig {
            cache: false,
            audit: true,
            ..AnalysisConfig::default()
        });
        let _ = audited
            .max_total_delay(&demo_window())
            .expect("stack result");
        let stats = audited.solver_stats();
        assert!(stats.lp_solves > 0, "stats not threaded: {stats}");
    }
}
