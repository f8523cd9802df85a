//! The composable delay-engine stack.
//!
//! Pre-facade, engine assembly was scattered: the bench sweeps hid a
//! `WorkerEngine` enum special-casing the cached/uncached split, and the
//! `PMCS_AUDIT` environment variable flipped the MILP engine into audited
//! mode from deep inside `pmcs-core`. Here the stack is built in one
//! place, from one [`AnalysisConfig`], as plain decorator layers:
//!
//! ```text
//! AuditedEngine     (cfg.audit — cross-check vs audited MILP)
//!   └─ ExactEngine  (always — memoized-DP base, cfg.max_states)
//! ```
//!
//! There is no window-cache layer: batch analysis almost never meets a
//! window twice outside a fixed point's confirming iteration, which the
//! WCRT iteration answers itself, and the exact engine's carried DP memo
//! already reuses the states of growing windows. With `cfg.audit` every
//! window the analysis solves is therefore audited. (`pmcs-serve`, whose
//! connections do repeat windows, wraps its engines in a
//! [`SharedCachedEngine`](pmcs_core::SharedCachedEngine) itself.) Each
//! layer implements [`StackEngine`] — [`DelayEngine`] plus DP-effort
//! observability — so the stack composes without any enum dispatch and a
//! new layer is one `impl` away.

use std::fmt;

use pmcs_core::wcrt::DelayBound;
use pmcs_core::{CoreError, DelayEngine, DpStats, ExactEngine, WindowModel};

use crate::config::AnalysisConfig;
use crate::formulation::MilpEngine;

/// A delay engine usable as a stack layer: a [`DelayEngine`] that can be
/// moved to a worker thread and reports the cumulative exact-DP effort.
pub trait StackEngine: DelayEngine + Send {
    /// Cumulative exact-DP effort (search nodes, budget fallbacks) of
    /// this layer and below.
    fn solver_stats(&self) -> DpStats {
        DpStats::default()
    }
}

impl StackEngine for ExactEngine {
    fn solver_stats(&self) -> DpStats {
        self.solver_stats()
    }
}

impl DelayEngine for Box<dyn StackEngine> {
    fn max_total_delay(&self, w: &WindowModel) -> Result<DelayBound, CoreError> {
        (**self).max_total_delay(w)
    }
}

impl StackEngine for Box<dyn StackEngine> {
    fn solver_stats(&self) -> DpStats {
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
/// validation runs, enabled by `AnalysisConfig { audit: true, .. }`. The
/// reference's effort stays out of [`StackEngine::solver_stats`], which
/// reports the production DP's alone, so audited and unaudited runs
/// record the same counts.
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
    fn solver_stats(&self) -> DpStats {
        self.inner.solver_stats()
    }
}

/// The assembled engine stack: a boxed pile of [`StackEngine`] layers
/// built by [`EngineStack::build`] from one [`AnalysisConfig`].
///
/// Holds per-call scratch and the DP memo behind interior mutability, so
/// it is cheap to call but not `Sync`: parallel drivers build one stack
/// per worker (see [`AnalysisContext`](crate::AnalysisContext)).
pub struct EngineStack {
    engine: Box<dyn StackEngine>,
    layers: String,
}

impl EngineStack {
    /// Assembles the stack described by `cfg`.
    pub fn build(cfg: &AnalysisConfig) -> Self {
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
        EngineStack { engine, layers }
    }

    /// Cumulative exact-DP effort of the stack's base engine.
    pub fn solver_stats(&self) -> DpStats {
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
        for audit in [false, true] {
            let cfg = AnalysisConfig {
                audit,
                ..AnalysisConfig::default()
            };
            let stack = EngineStack::build(&cfg);
            let bound = stack.max_total_delay(&w).expect("stack result");
            assert_eq!(bound.delay, reference.delay, "stack {}", stack.layers());
        }
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
        for (audit, expected) in [(false, "exact"), (true, "audited(exact)")] {
            let cfg = AnalysisConfig {
                audit,
                ..AnalysisConfig::default()
            };
            let stack = EngineStack::build(&cfg);
            assert_eq!(stack.layers(), expected);
            assert!(format!("{stack:?}").contains(expected));
        }
    }

    #[test]
    fn solver_stats_flow_through_the_stack() {
        let stack = EngineStack::build(&AnalysisConfig::default());
        assert!(stack.solver_stats().is_empty());
        let w = demo_window();
        let _ = stack.max_total_delay(&w).expect("stack result");
        let solved = stack.solver_stats();
        assert!(solved.nodes > 0, "stats not threaded: {solved:?}");
        // The audit layer reports the production DP's counts only.
        for audit in [false, true] {
            let stack = EngineStack::build(&AnalysisConfig {
                audit,
                ..AnalysisConfig::default()
            });
            let _ = stack.max_total_delay(&w).expect("stack result");
            assert_eq!(stack.solver_stats(), solved, "stack {}", stack.layers());
        }
    }
}
