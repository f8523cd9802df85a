//! Fixed-point worst-case response-time iteration (Section VI).
//!
//! For a tentative response time `R̄_i`, the delay window has length
//! `t = R̄_i − C_i − u_i`; the delay engine maximizes `Σ_k Δ_k` over all
//! protocol-legal schedules of the `N_i(t)` intervals, yielding a new
//! tentative `R̄_i' = Σ_k Δ_k + u_i` (Eq. (1): the final copy-out runs
//! undelayed at the start of interval `N_i(t)`, rule R2). The iteration
//! starts from the interference-free response `l_i + C_i + u_i` and stops
//! at the first fixed point, or as soon as the bound exceeds the deadline.
//! An iteration that rebuilds the previous window (same budgets) reuses
//! the previous bound instead of asking the engine again: that
//! confirming iteration is where the fixed point usually ends.

use pmcs_model::{Sensitivity, TaskId, TaskSet, Time};

use crate::error::CoreError;
use crate::window::{WindowCase, WindowModel};

/// Result of one window optimization: the maximal total delay `Σ_k Δ_k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelayBound {
    /// Upper bound on `Σ_k Δ_k`.
    pub delay: Time,
    /// `true` iff the bound is the exact optimum (engines degrade to safe
    /// over-approximations when their search budgets run out).
    pub exact: bool,
    /// Search effort indicator (nodes explored / solver nodes). Counts
    /// only this call's new work: states an engine reuses from an earlier
    /// call's memo are not counted again.
    pub nodes: u64,
}

/// A delay-maximization engine: the specialized combinatorial solver
/// ([`ExactEngine`](crate::ExactEngine)), or the MILP of Section V
/// (`pmcs_analysis::MilpEngine`, the audit oracle).
pub trait DelayEngine {
    /// Upper-bounds the total delay `Σ_k Δ_k` over all protocol-legal
    /// schedules of the window.
    ///
    /// # Errors
    ///
    /// Implementations report solver failures as [`CoreError`].
    fn max_total_delay(&self, window: &WindowModel) -> Result<DelayBound, CoreError>;
}

impl<E: DelayEngine + ?Sized> DelayEngine for &E {
    fn max_total_delay(&self, window: &WindowModel) -> Result<DelayBound, CoreError> {
        (**self).max_total_delay(window)
    }
}

/// Per-task analysis outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskAnalysis {
    /// The analyzed task.
    pub task: TaskId,
    /// WCRT bound. When the iteration aborts on a deadline miss this is
    /// the first bound that exceeded the deadline (still a valid lower
    /// bound on the true WCRT bound).
    pub wcrt: Time,
    /// `true` iff `wcrt ≤ D_i`.
    pub schedulable: bool,
    /// Fixed-point iterations performed.
    pub iterations: usize,
    /// `true` iff every engine invocation returned an exact optimum.
    pub exact: bool,
    /// For LS tasks, the response time of the urgent-promotion case (b);
    /// `None` for NLS tasks.
    pub case_b_response: Option<Time>,
}

/// Fixed-point WCRT analyzer.
///
/// # Example
///
/// ```
/// use pmcs_core::{ExactEngine, WcrtAnalyzer};
/// use pmcs_core::window::test_task;
/// use pmcs_model::{TaskId, TaskSet};
///
/// let set = TaskSet::new(vec![
///     test_task(0, 10, 2, 2, 100, 0, false),
///     test_task(1, 20, 4, 4, 200, 1, false),
/// ]).expect("valid task set");
/// let analyzer = WcrtAnalyzer::default();
/// let a = analyzer.analyze_task(&set, TaskId(1), &ExactEngine::default())?;
/// assert!(a.schedulable);
/// # Ok::<(), pmcs_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct WcrtAnalyzer {
    /// Cap on fixed-point rounds (a safety net; convergence or a deadline
    /// miss normally occurs within a handful of rounds).
    pub max_iterations: usize,
}

impl Default for WcrtAnalyzer {
    fn default() -> Self {
        WcrtAnalyzer {
            max_iterations: 512,
        }
    }
}

impl WcrtAnalyzer {
    /// Creates an analyzer with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Computes the WCRT bound of `task` within `set` under the proposed
    /// protocol, honoring the task's current LS/NLS marking.
    ///
    /// # Errors
    ///
    /// Propagates engine failures and unknown-task errors; returns
    /// [`CoreError::NoConvergence`] if the iteration cap is exhausted
    /// before a fixed point or deadline miss, and
    /// [`CoreError::TimeOverflow`] if a response leaves the tick range.
    pub fn analyze_task(
        &self,
        set: &TaskSet,
        task: TaskId,
        engine: &impl DelayEngine,
    ) -> Result<TaskAnalysis, CoreError> {
        self.analyze_inner(set, task, engine, None)
    }

    /// [`WcrtAnalyzer::analyze_task`] plus a transcript of the fixed-point
    /// iteration (one [`TraceStep`] per engine invocation), the basis of
    /// certificate emission (see [`certify`](crate::certify)).
    ///
    /// # Errors
    ///
    /// Same as [`WcrtAnalyzer::analyze_task`].
    pub fn analyze_task_traced(
        &self,
        set: &TaskSet,
        task: TaskId,
        engine: &impl DelayEngine,
    ) -> Result<(TaskAnalysis, TaskTrace), CoreError> {
        let mut trace = TaskTrace {
            case: WindowCase::Nls,
            steps: Vec::new(),
            case_b: None,
        };
        let analysis = self.analyze_inner(set, task, engine, Some(&mut trace))?;
        Ok((analysis, trace))
    }

    fn analyze_inner(
        &self,
        set: &TaskSet,
        task: TaskId,
        engine: &impl DelayEngine,
        mut trace: Option<&mut TaskTrace>,
    ) -> Result<TaskAnalysis, CoreError> {
        let t = set.require(task)?;
        let deadline = t.deadline();
        match t.sensitivity() {
            Sensitivity::Nls => {
                let fp = self.fixed_point(
                    set,
                    task,
                    WindowCase::Nls,
                    deadline,
                    engine,
                    trace.as_deref_mut().map(|tr| &mut tr.steps),
                )?;
                Ok(TaskAnalysis {
                    task,
                    wcrt: fp.response,
                    schedulable: fp.response <= deadline,
                    iterations: fp.iterations,
                    exact: fp.exact,
                    case_b_response: None,
                })
            }
            Sensitivity::Ls => {
                if let Some(tr) = trace.as_deref_mut() {
                    tr.case = WindowCase::LsCaseA;
                }
                // Case (b) is a closed form, independent of the window
                // length (Section V-B.2).
                let w0 = WindowModel::build(set, task, WindowCase::LsCaseA, Time::ZERO)?;
                let case_b = w0.ls_case_b_response();
                if let Some(tr) = trace.as_deref_mut() {
                    tr.case_b = Some(case_b);
                }
                if case_b > deadline {
                    return Ok(TaskAnalysis {
                        task,
                        wcrt: case_b,
                        schedulable: false,
                        iterations: 0,
                        exact: true,
                        case_b_response: Some(case_b),
                    });
                }
                let fp = self.fixed_point(
                    set,
                    task,
                    WindowCase::LsCaseA,
                    deadline,
                    engine,
                    trace.map(|tr| &mut tr.steps),
                )?;
                let wcrt = fp.response.max(case_b);
                Ok(TaskAnalysis {
                    task,
                    wcrt,
                    schedulable: wcrt <= deadline,
                    iterations: fp.iterations,
                    exact: fp.exact,
                    case_b_response: Some(case_b),
                })
            }
        }
    }

    fn fixed_point(
        &self,
        set: &TaskSet,
        task: TaskId,
        case: WindowCase,
        deadline: Time,
        engine: &impl DelayEngine,
        mut trace: Option<&mut Vec<TraceStep>>,
    ) -> Result<FixedPoint, CoreError> {
        let t = set.require(task)?;
        let add = |a: Time, b: Time| a.checked_add(b).ok_or(CoreError::TimeOverflow);
        let base = add(t.exec(), t.copy_out())?;
        // Interference-free response: copy-in + execute + copy-out.
        let mut response = add(t.copy_in(), base)?;
        let mut exact = true;
        let mut last: Option<(WindowModel, DelayBound)> = None;
        for iteration in 1..=self.max_iterations {
            let window_len = response - base;
            debug_assert!(window_len.is_duration());
            let window = WindowModel::build(set, task, case, window_len)?;
            // The window sees `t` only through the budgets `η_j(t) + 1`:
            // rebuilding the last window means the previous bound repeats,
            // so this iteration confirms the fixed point without a solve.
            let bound = match last.take() {
                Some((prev, bound)) if prev == window => bound,
                _ => engine.max_total_delay(&window)?,
            };
            last = Some((window, bound));
            exact &= bound.exact;
            if let Some(steps) = trace.as_deref_mut() {
                steps.push(TraceStep {
                    window_len,
                    delay: bound.delay,
                    exact: bound.exact,
                });
            }
            let next = add(bound.delay, t.copy_out())?;
            if next > deadline {
                return Ok(FixedPoint {
                    response: next,
                    iterations: iteration,
                    exact,
                });
            }
            if next <= response {
                return Ok(FixedPoint {
                    response,
                    iterations: iteration,
                    exact,
                });
            }
            response = next;
        }
        Err(CoreError::NoConvergence {
            task,
            iterations: self.max_iterations,
        })
    }
}

/// One engine invocation of the fixed-point iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStep {
    /// The window length `t = R̄ − C − u` fed to the engine.
    pub window_len: Time,
    /// The engine's bound on `Σ_k Δ_k`.
    pub delay: Time,
    /// Whether the bound was exact.
    pub exact: bool,
}

/// Transcript of one task analysis, sufficient to re-derive every window
/// the fixed point solved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskTrace {
    /// The analysis case used by the fixed point.
    pub case: WindowCase,
    /// One step per engine invocation, in iteration order (empty when the
    /// LS case (b) closed form already misses the deadline).
    pub steps: Vec<TraceStep>,
    /// LS case (b) closed-form response; `None` for NLS tasks.
    pub case_b: Option<Time>,
}

struct FixedPoint {
    response: Time,
    iterations: usize,
    exact: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExactEngine;
    use crate::window::test_task;
    use pmcs_model::TaskSet;

    #[test]
    fn isolated_task_gets_structural_minimum() {
        let set =
            TaskSet::new(vec![test_task(0, 10, 3, 2, 100, 0, false)]).expect("valid task set");
        let a = WcrtAnalyzer::default()
            .analyze_task(&set, TaskId(0), &ExactEngine::default())
            .expect("analysis of an isolated task cannot fail");
        // From the engine test: Σ Δ = 15 → R = 15 + u = 17.
        assert_eq!(a.wcrt, Time::from_ticks(17));
        assert!(a.schedulable);
        assert!(a.exact);
        assert!(a.case_b_response.is_none());
    }

    #[test]
    fn wcrt_is_at_least_interference_free_response() {
        let set = TaskSet::new(vec![
            test_task(0, 10, 2, 2, 100, 0, false),
            test_task(1, 20, 4, 4, 200, 1, false),
        ])
        .expect("valid task set");
        for id in [0u32, 1] {
            let a = WcrtAnalyzer::default()
                .analyze_task(&set, TaskId(id), &ExactEngine::default())
                .expect("two-task analysis converges");
            let t = set.get(TaskId(id)).expect("task id is in the set");
            assert!(a.wcrt >= t.copy_in() + t.exec() + t.copy_out());
        }
    }

    #[test]
    fn hp_task_unaffected_by_lp_exec_time_growth_beyond_blocking() {
        // Growing an lp task's WCET grows the hp task's bound linearly
        // through one (NLS: via two intervals) blocking term, but the
        // budget caps it at one execution.
        let mk = |c_lp: i64| {
            TaskSet::new(vec![
                test_task(0, 10, 2, 2, 10_000, 0, false),
                test_task(1, c_lp, 2, 2, 10_000, 1, false),
            ])
            .expect("valid task set")
        };
        let engine = ExactEngine::default();
        let a100 = WcrtAnalyzer::default()
            .analyze_task(&mk(100), TaskId(0), &engine)
            .expect("analysis converges for C_lp = 100");
        let a200 = WcrtAnalyzer::default()
            .analyze_task(&mk(200), TaskId(0), &engine)
            .expect("analysis converges for C_lp = 200");
        // One extra blocking execution of +100.
        assert_eq!(a200.wcrt - a100.wcrt, Time::from_ticks(100));
    }

    #[test]
    fn ls_marking_reduces_wcrt_under_heavy_lp_blocking() {
        let base = vec![
            test_task(0, 10, 2, 2, 10_000, 0, false),
            test_task(1, 300, 2, 2, 10_000, 1, false),
            test_task(2, 400, 2, 2, 10_000, 2, false),
        ];
        let nls_set = TaskSet::new(base.clone()).expect("valid task set");
        let ls_set = nls_set
            .with_sensitivity(TaskId(0), Sensitivity::Ls)
            .expect("τ0 is in the set");
        let engine = ExactEngine::default();
        let nls = WcrtAnalyzer::default()
            .analyze_task(&nls_set, TaskId(0), &engine)
            .expect("NLS analysis converges");
        let ls = WcrtAnalyzer::default()
            .analyze_task(&ls_set, TaskId(0), &engine)
            .expect("LS analysis converges");
        assert!(ls.case_b_response.is_some());
        assert!(
            ls.wcrt < nls.wcrt,
            "LS ({}) must beat NLS ({}) with two heavy lp tasks",
            ls.wcrt,
            nls.wcrt
        );
    }

    #[test]
    fn deadline_miss_reported_not_erred() {
        // Utilization far above 1 → the lowest-priority task misses.
        let set = TaskSet::new(vec![
            test_task(0, 90, 5, 5, 100, 0, false),
            test_task(1, 90, 5, 5, 100, 1, false),
        ])
        .expect("valid task set");
        let a = WcrtAnalyzer::default()
            .analyze_task(&set, TaskId(1), &ExactEngine::default())
            .expect("a deadline miss is a result, not an error");
        assert!(!a.schedulable);
        assert!(
            a.wcrt
                > set
                    .get(TaskId(1))
                    .expect("task id is in the set")
                    .deadline()
        );
    }

    /// An exact engine that counts the solves reaching it.
    #[derive(Default)]
    struct Counting {
        inner: ExactEngine,
        calls: std::cell::Cell<usize>,
    }

    impl DelayEngine for Counting {
        fn max_total_delay(&self, w: &WindowModel) -> Result<DelayBound, CoreError> {
            self.calls.set(self.calls.get() + 1);
            self.inner.max_total_delay(w)
        }
    }

    #[test]
    fn each_distinct_window_is_solved_once() {
        // τ0's short period lets the window cross an arrival boundary
        // before the fixed point settles.
        let set = TaskSet::new(vec![
            test_task(0, 3, 1, 1, 8, 0, false),
            test_task(1, 20, 4, 4, 400, 1, false),
        ])
        .expect("valid task set");
        let engine = Counting::default();
        let (a, trace) = WcrtAnalyzer::default()
            .analyze_task_traced(&set, TaskId(1), &engine)
            .expect("two-task analysis converges");
        assert!(a.schedulable);
        assert_eq!(a.iterations, trace.steps.len());
        let windows: Vec<WindowModel> = trace
            .steps
            .iter()
            .map(|s| {
                WindowModel::build(&set, TaskId(1), trace.case, s.window_len)
                    .expect("task id is in the set")
            })
            .collect();
        let distinct = 1 + windows.windows(2).filter(|p| p[0] != p[1]).count();
        assert!(distinct >= 2, "one window only: {:?}", trace.steps);
        assert_eq!(engine.calls.get(), distinct);
        // The transcript is the one an engine call per iteration records:
        // every step holds its window's optimum, each window length follows
        // from the previous delay, and the confirming step repeats the
        // previous delay on the same window.
        let t = set.get(TaskId(1)).expect("task id is in the set");
        assert_eq!(trace.steps[0].window_len, t.copy_in());
        for (step, w) in trace.steps.iter().zip(&windows) {
            let fresh = ExactEngine::default()
                .max_total_delay(w)
                .expect("engine result");
            assert_eq!((step.delay, step.exact), (fresh.delay, fresh.exact));
        }
        for pair in trace.steps.windows(2) {
            assert_eq!(pair[1].window_len, pair[0].delay - t.exec());
        }
        let [.., prev, last] = trace.steps.as_slice() else {
            panic!("expected at least two steps, got {:?}", trace.steps);
        };
        assert_eq!(last.delay, prev.delay);
        assert_eq!(windows[windows.len() - 1], windows[windows.len() - 2]);
        assert_eq!(a.wcrt, last.delay + t.copy_out());
    }

    #[test]
    fn iterations_are_counted() {
        let set = TaskSet::new(vec![
            test_task(0, 10, 2, 2, 100, 0, false),
            test_task(1, 20, 4, 4, 400, 1, false),
        ])
        .expect("valid task set");
        let a = WcrtAnalyzer::default()
            .analyze_task(&set, TaskId(1), &ExactEngine::default())
            .expect("two-task analysis converges");
        assert!(a.iterations >= 1);
    }
}
