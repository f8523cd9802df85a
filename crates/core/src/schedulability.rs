//! Schedulability analysis with greedy LS marking (Section VI).
//!
//! The greedy algorithm starts with every task NLS. Whenever the analysis
//! finds a task missing its deadline, that task is promoted to
//! latency-sensitive and the whole set is re-analyzed (the promotion
//! reduces the task's own blocking but may increase the interference it
//! inflicts on lower-priority tasks through urgent executions). If a task
//! that is *already* LS misses its deadline, the set is deemed
//! unschedulable.
//!
//! Re-analysis after a promotion skips every task whose windows the
//! promotion provably cannot change (see [`promotion_affects`]): the
//! previous round's [`TaskAnalysis`] is reused verbatim. Combined with a
//! [`SharedCachedEngine`](crate::SharedCachedEngine) this makes greedy rounds after
//! the first one cheap.

use std::fmt;

use pmcs_model::{Sensitivity, TaskId, TaskSet, Time};

use crate::error::CoreError;
use crate::session::{AnalysisSession, VerdictCache, VerdictKey};
use crate::wcrt::{DelayEngine, TaskAnalysis, TaskTrace, WcrtAnalyzer};

/// `true` iff promoting `promoted` to latency-sensitive can change the
/// WCRT analysis of `analyzed`.
///
/// The analysis windows of `analyzed` contain every other task of the
/// set, so a promotion flips the LS bit of `promoted` inside all of them.
/// That bit is *inert*, however, when both
///
/// * `promoted` has a zero copy-in — an urgent execution then has exactly
///   the CPU demand of a plain one, and no cancellation charge can be
///   attributed to its prefetch; and
/// * no third task has strictly lower priority than `promoted` — rules
///   R3/R4 (Constraint 8) let an LS task trigger cancellations and urgent
///   executions only at the expense of a lower-priority victim, so with no
///   victim the flag enables nothing.
///
/// This is [`WindowModel::ls_inert`](crate::window::WindowModel::ls_inert)
/// asked of `promoted` in the windows of `analyzed`, the rule
/// [`cache::WindowKey`](crate::cache::WindowKey) and the DP engine apply,
/// so a "not affected" verdict is exact, not heuristic: every window of
/// `analyzed` before and after the promotion maps to the same canonical
/// key and the same delay bound.
pub fn promotion_affects(set: &TaskSet, promoted: TaskId, analyzed: TaskId) -> bool {
    if promoted == analyzed {
        return true;
    }
    let Some(pj) = set.get(promoted) else {
        return true; // Unknown task: be conservative.
    };
    if pj.copy_in() > Time::ZERO {
        return true;
    }
    set.iter().any(|t| {
        t.id() != analyzed && t.id() != promoted && pj.priority().is_higher_than(t.priority())
    })
}

/// Per-task verdict in a [`SchedulabilityReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskVerdict {
    /// The task.
    pub task: TaskId,
    /// WCRT bound under the final LS assignment.
    pub wcrt: Time,
    /// The task's relative deadline.
    pub deadline: Time,
    /// `wcrt ≤ deadline`.
    pub schedulable: bool,
    /// Final sensitivity marking.
    pub sensitivity: Sensitivity,
}

/// The final latency-sensitivity assignment chosen by the greedy
/// algorithm.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LsAssignment {
    /// Tasks marked latency-sensitive, in promotion order.
    pub promoted: Vec<TaskId>,
}

impl fmt::Display for LsAssignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.promoted.is_empty() {
            return write!(f, "no LS tasks");
        }
        write!(f, "LS: ")?;
        for (i, t) in self.promoted.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

/// Outcome of [`analyze_task_set`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulabilityReport {
    verdicts: Vec<TaskVerdict>,
    assignment: LsAssignment,
    rounds: usize,
}

impl SchedulabilityReport {
    /// `true` iff every task meets its deadline under the final marking.
    pub fn schedulable(&self) -> bool {
        self.verdicts.iter().all(|v| v.schedulable)
    }

    /// Per-task verdicts (decreasing priority order).
    pub fn verdicts(&self) -> &[TaskVerdict] {
        &self.verdicts
    }

    /// The verdict for one task.
    pub fn verdict(&self, task: TaskId) -> Option<&TaskVerdict> {
        self.verdicts.iter().find(|v| v.task == task)
    }

    /// The final LS assignment.
    pub fn assignment(&self) -> &LsAssignment {
        &self.assignment
    }

    /// Greedy rounds performed (1 = no promotion needed; 0 = empty
    /// session, nothing analyzed).
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The report of an empty [`AnalysisSession`]: no verdicts, no LS
    /// tasks, trivially schedulable, zero rounds.
    pub(crate) fn empty() -> Self {
        SchedulabilityReport {
            verdicts: Vec::new(),
            assignment: LsAssignment::default(),
            rounds: 0,
        }
    }
}

impl fmt::Display for SchedulabilityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} after {} round(s); {}",
            if self.schedulable() {
                "SCHEDULABLE"
            } else {
                "NOT SCHEDULABLE"
            },
            self.rounds,
            self.assignment
        )?;
        for v in &self.verdicts {
            writeln!(
                f,
                "  {} [{}] R={} D={} {}",
                v.task,
                v.sensitivity,
                v.wcrt,
                v.deadline,
                if v.schedulable { "ok" } else { "MISS" }
            )?;
        }
        Ok(())
    }
}

/// Runs the greedy LS-marking schedulability analysis of Section VI on a
/// task set (initial markings are ignored: the algorithm starts all-NLS).
///
/// This is the trivial [`AnalysisSession`] use: admit every task into a
/// fresh session and read its report — batch and incremental analysis
/// share one code path.
///
/// # Errors
///
/// Propagates engine and model errors from the per-task analyses.
///
/// # Example
///
/// See the [crate-level example](crate).
pub fn analyze_task_set(
    set: &TaskSet,
    engine: &impl DelayEngine,
) -> Result<SchedulabilityReport, CoreError> {
    let mut session = AnalysisSession::new(engine);
    session.admit_all(set.iter().cloned())?;
    Ok(session.into_report())
}

/// One per-task entry of a greedy round transcript.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundEntry {
    /// The analyzed task.
    pub task: TaskId,
    /// WCRT bound under the round's marking.
    pub wcrt: Time,
    /// `wcrt ≤ deadline`.
    pub schedulable: bool,
    /// The fixed-point transcript when the analysis ran fresh this round;
    /// `None` when the verdict was reused from an earlier round across a
    /// provably inert promotion (see [`promotion_affects`]).
    pub fresh: Option<TaskTrace>,
}

/// Transcript of a greedy LS-marking run: per round the scanned tasks in
/// priority order with the fixed-point transcript of every fresh
/// analysis, plus the promotion sequence — everything certificate
/// emission needs to prove the verdicts and the marking decisions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GreedyTrace {
    /// One entry list per round, in scan order (a prefix of the set's
    /// priority order; non-final rounds stop at the promoted task).
    pub rounds: Vec<Vec<RoundEntry>>,
    /// Promoted task ids, in promotion order (round `r` scans under the
    /// marking `promoted[..r]`).
    pub promoted: Vec<TaskId>,
    /// Final verdict.
    pub schedulable: bool,
}

/// [`analyze_task_set`] plus the greedy-round transcript used by
/// certificate emission (see [`certify`](crate::certify)).
///
/// # Errors
///
/// Same as [`analyze_task_set`].
pub fn analyze_task_set_traced(
    set: &TaskSet,
    engine: &impl DelayEngine,
) -> Result<(SchedulabilityReport, GreedyTrace), CoreError> {
    let mut trace = GreedyTrace::default();
    let report = greedy_analyze(set, engine, true, Some(&mut trace), None)?;
    Ok((report, trace))
}

/// [`analyze_task_set`] with the cross-round verdict reuse disabled:
/// every greedy round re-runs every task's fixed point from scratch.
///
/// Exists only as a differential-testing oracle for the reuse logic; it is
/// never faster and never gives a different report.
#[doc(hidden)]
pub fn analyze_task_set_no_reuse(
    set: &TaskSet,
    engine: &impl DelayEngine,
) -> Result<SchedulabilityReport, CoreError> {
    greedy_analyze(set, engine, false, None, None)
}

/// The greedy LS-marking loop shared by every analysis entry point:
/// batch ([`analyze_task_set`]), traced ([`analyze_task_set_traced`]),
/// the no-reuse oracle, and incremental
/// [`AnalysisSession`](crate::AnalysisSession) operations.
///
/// `verdicts`, when present, is a session-lifetime content-addressed
/// cache of per-task analyses: each fixed point is looked up under its
/// [`VerdictKey`] before running and stored after. This is orthogonal to
/// the *round-level* `carried` reuse (which survives provably inert
/// promotions within one call) — the cache additionally survives across
/// calls, i.e. across session operations. A traced run bypasses the
/// cache: every fresh analysis runs traced.
pub(crate) fn greedy_analyze(
    set: &TaskSet,
    engine: &impl DelayEngine,
    reuse: bool,
    mut trace: Option<&mut GreedyTrace>,
    mut verdict_cache: Option<&mut VerdictCache>,
) -> Result<SchedulabilityReport, CoreError> {
    let analyzer = WcrtAnalyzer::default();
    let mut current = set.all_nls();
    let mut promoted = Vec::new();
    // Analyses carried over from earlier rounds, indexed like the set's
    // iteration order; an entry survives a promotion only when
    // `promotion_affects` proves the promotion inert for that task.
    let mut carried: Vec<Option<TaskAnalysis>> = vec![None; set.len()];

    // Each round either terminates or promotes one task; at most n
    // promotions are possible.
    for round in 1..=set.len() + 1 {
        if let Some(tr) = trace.as_deref_mut() {
            tr.rounds.push(Vec::new());
        }
        let mut verdicts = Vec::with_capacity(current.len());
        let mut failing: Option<TaskId> = None;
        for (idx, task) in current.iter().enumerate() {
            let mut fresh = None;
            let analysis = match carried[idx].as_ref() {
                Some(a) => a.clone(),
                None => {
                    let a = if trace.is_some() {
                        let (a, task_trace) =
                            analyzer.analyze_task_traced(&current, task.id(), engine)?;
                        fresh = Some(task_trace);
                        a
                    } else if let Some(cache) = verdict_cache.as_deref_mut() {
                        let key = VerdictKey::of(&current, task.id());
                        match cache.get(&key, task.id()) {
                            Some(hit) => hit,
                            None => {
                                let a = analyzer.analyze_task(&current, task.id(), engine)?;
                                cache.insert(key, a.clone());
                                a
                            }
                        }
                    } else {
                        analyzer.analyze_task(&current, task.id(), engine)?
                    };
                    carried[idx] = Some(a.clone());
                    a
                }
            };
            if let Some(tr) = trace.as_deref_mut() {
                tr.rounds
                    .last_mut()
                    .expect("round entry pushed above")
                    .push(RoundEntry {
                        task: task.id(),
                        wcrt: analysis.wcrt,
                        schedulable: analysis.schedulable,
                        fresh,
                    });
            }
            verdicts.push(TaskVerdict {
                task: task.id(),
                wcrt: analysis.wcrt,
                deadline: task.deadline(),
                schedulable: analysis.schedulable,
                sensitivity: task.sensitivity(),
            });
            if !analysis.schedulable && failing.is_none() {
                failing = Some(task.id());
                // An NLS miss triggers a promotion and a full re-analysis
                // anyway — skip the rest of this round (the paper's
                // algorithm restarts at the first miss). An LS miss is
                // final, so finish the scan for a complete report.
                if !task.is_ls() {
                    break;
                }
            }
        }
        match failing {
            None => {
                if let Some(tr) = trace.as_deref_mut() {
                    tr.promoted = promoted.clone();
                    tr.schedulable = true;
                }
                return Ok(SchedulabilityReport {
                    verdicts,
                    assignment: LsAssignment { promoted },
                    rounds: round,
                });
            }
            Some(task) => {
                let is_ls = current.get(task).map(|t| t.is_ls()).unwrap_or(false);
                if is_ls {
                    // Already LS and still missing: unschedulable.
                    if let Some(tr) = trace.as_deref_mut() {
                        tr.promoted = promoted.clone();
                        tr.schedulable = false;
                    }
                    return Ok(SchedulabilityReport {
                        verdicts,
                        assignment: LsAssignment { promoted },
                        rounds: round,
                    });
                }
                for (idx, t) in current.iter().enumerate() {
                    if !reuse || promotion_affects(&current, task, t.id()) {
                        carried[idx] = None;
                    }
                }
                current = current.with_sensitivity(task, Sensitivity::Ls)?;
                promoted.push(task);
            }
        }
    }
    unreachable!("greedy LS marking performs at most n+1 rounds");
}

/// Analyzes a task set with its **current** LS/NLS markings (no greedy
/// promotion). Useful to evaluate a hand-chosen assignment, and used by
/// the baselines to run the formulation in all-NLS mode.
///
/// # Errors
///
/// Propagates engine and model errors from the per-task analyses.
pub fn analyze_fixed_marking(
    set: &TaskSet,
    engine: &impl DelayEngine,
) -> Result<SchedulabilityReport, CoreError> {
    let analyzer = WcrtAnalyzer::default();
    let mut verdicts = Vec::with_capacity(set.len());
    for task in set.iter() {
        let analysis = analyzer.analyze_task(set, task.id(), engine)?;
        verdicts.push(TaskVerdict {
            task: task.id(),
            wcrt: analysis.wcrt,
            deadline: task.deadline(),
            schedulable: analysis.schedulable,
            sensitivity: task.sensitivity(),
        });
    }
    Ok(SchedulabilityReport {
        verdicts,
        assignment: LsAssignment {
            promoted: set.latency_sensitive().map(|t| t.id()).collect(),
        },
        rounds: 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{SharedCachedEngine, SharedDelayCache};
    use crate::engine::ExactEngine;
    use crate::wcrt::DelayBound;
    use crate::window::{test_task, WindowModel};
    use std::cell::Cell;

    /// Wraps an engine and counts invocations, to make the greedy loop's
    /// re-analysis skipping observable.
    struct CountingEngine<E> {
        inner: E,
        calls: Cell<u64>,
    }

    impl<E> CountingEngine<E> {
        fn new(inner: E) -> Self {
            CountingEngine {
                inner,
                calls: Cell::new(0),
            }
        }
    }

    impl<E: DelayEngine> DelayEngine for CountingEngine<E> {
        fn max_total_delay(&self, w: &WindowModel) -> Result<DelayBound, CoreError> {
            self.calls.set(self.calls.get() + 1);
            self.inner.max_total_delay(w)
        }
    }

    #[test]
    fn easy_set_is_schedulable_without_promotions() {
        let set = TaskSet::new(vec![
            test_task(0, 10, 2, 2, 1_000, 0, false),
            test_task(1, 20, 4, 4, 2_000, 1, false),
        ])
        .unwrap();
        let r = analyze_task_set(&set, &ExactEngine::default()).unwrap();
        assert!(r.schedulable());
        assert!(r.assignment().promoted.is_empty());
        assert_eq!(r.rounds(), 1);
        assert_eq!(r.verdicts().len(), 2);
    }

    #[test]
    fn overload_is_unschedulable() {
        let set = TaskSet::new(vec![
            test_task(0, 90, 5, 5, 100, 0, false),
            test_task(1, 90, 5, 5, 100, 1, false),
        ])
        .unwrap();
        let r = analyze_task_set(&set, &ExactEngine::default()).unwrap();
        assert!(!r.schedulable());
    }

    #[test]
    fn promotion_rescues_a_tightly_constrained_task() {
        // τ0 has a deadline that tolerates one heavy blocking interval but
        // not two → NLS analysis fails, LS promotion succeeds.
        let tasks = vec![
            {
                let mut t = test_task(0, 10, 2, 2, 10_000, 0, false);
                // Deadline between the LS and NLS response times.
                t = pmcs_model::Task::builder(t.id())
                    .exec(t.exec())
                    .copy_in(t.copy_in())
                    .copy_out(t.copy_out())
                    .sporadic(Time::from_ticks(10_000))
                    .deadline(Time::from_ticks(600))
                    .priority(t.priority())
                    .build()
                    .unwrap();
                t
            },
            test_task(1, 300, 2, 2, 10_000, 1, false),
            test_task(2, 400, 2, 2, 10_000, 2, false),
        ];
        let set = TaskSet::new(tasks).unwrap();
        let r = analyze_task_set(&set, &ExactEngine::default()).unwrap();
        assert!(r.schedulable(), "{r}");
        assert_eq!(r.assignment().promoted, vec![TaskId(0)]);
        assert!(r.rounds() > 1);
        assert_eq!(r.verdict(TaskId(0)).unwrap().sensitivity, Sensitivity::Ls);
    }

    #[test]
    fn fixed_marking_respects_existing_ls_flags() {
        let set = TaskSet::new(vec![
            test_task(0, 10, 2, 2, 1_000, 0, true),
            test_task(1, 20, 4, 4, 2_000, 1, false),
        ])
        .unwrap();
        let r = analyze_fixed_marking(&set, &ExactEngine::default()).unwrap();
        assert_eq!(r.assignment().promoted, vec![TaskId(0)]);
        assert_eq!(r.verdict(TaskId(0)).unwrap().sensitivity, Sensitivity::Ls);
    }

    #[test]
    fn promotion_affects_is_exact_about_inert_promotions() {
        // τ1: zero copy-in, lowest priority → its promotion is inert for
        // everyone else; τ0: positive copy-in → always relevant.
        let set = TaskSet::new(vec![
            test_task(0, 50, 5, 5, 200, 0, false),
            test_task(1, 100, 0, 0, 1_000, 1, false),
        ])
        .unwrap();
        assert!(promotion_affects(&set, TaskId(1), TaskId(1)));
        assert!(!promotion_affects(&set, TaskId(1), TaskId(0)));
        assert!(promotion_affects(&set, TaskId(0), TaskId(1)));
        // With a third, even-lower task, τ1's promotion gains a victim.
        let set3 = TaskSet::new(vec![
            test_task(0, 50, 5, 5, 200, 0, false),
            test_task(1, 100, 0, 0, 1_000, 1, false),
            test_task(2, 10, 0, 3, 5_000, 2, false),
        ])
        .unwrap();
        assert!(promotion_affects(&set3, TaskId(1), TaskId(0)));
        // But τ1's promotion stays inert for τ2: inside τ2's windows the
        // only lower-priority candidate is τ2 itself, which never appears.
        assert!(!promotion_affects(&set3, TaskId(1), TaskId(2)));
        // τ2 (zero copy-in, lowest priority) promotes inertly for all.
        assert!(!promotion_affects(&set3, TaskId(2), TaskId(0)));
    }

    #[test]
    fn inert_promotion_skips_unaffected_reanalyses() {
        // τ1 misses as NLS, is promoted (copy-in 0, lowest priority → the
        // promotion is provably inert for τ0), and misses again as LS.
        // Round 2 must reuse τ0's verdict: the counting engine sees
        // strictly fewer calls with reuse than without, with an identical
        // report.
        let set = TaskSet::new(vec![test_task(0, 50, 5, 5, 200, 0, false), {
            let t = test_task(1, 100, 0, 0, 1_000, 1, false);
            pmcs_model::Task::builder(t.id())
                .exec(t.exec())
                .sporadic(Time::from_ticks(1_000))
                .deadline(Time::from_ticks(120))
                .priority(t.priority())
                .build()
                .unwrap()
        }])
        .unwrap();

        let counting = CountingEngine::new(ExactEngine::default());
        let with_reuse = analyze_task_set(&set, &counting).unwrap();
        let calls_reuse = counting.calls.get();

        let counting = CountingEngine::new(ExactEngine::default());
        let no_reuse = analyze_task_set_no_reuse(&set, &counting).unwrap();
        let calls_no_reuse = counting.calls.get();

        assert_eq!(with_reuse, no_reuse);
        assert!(with_reuse.rounds() > 1, "{with_reuse}");
        assert!(
            calls_reuse < calls_no_reuse,
            "reuse must skip τ0's round-2 windows ({calls_reuse} vs {calls_no_reuse})"
        );
    }

    #[test]
    fn reuse_matches_no_reuse_on_promoting_sets() {
        // A promotion with positive copy-in invalidates everything; the
        // reuse path must still agree with the from-scratch oracle.
        let set = TaskSet::new(vec![
            {
                let t = test_task(0, 10, 2, 2, 10_000, 0, false);
                pmcs_model::Task::builder(t.id())
                    .exec(t.exec())
                    .copy_in(t.copy_in())
                    .copy_out(t.copy_out())
                    .sporadic(Time::from_ticks(10_000))
                    .deadline(Time::from_ticks(600))
                    .priority(t.priority())
                    .build()
                    .unwrap()
            },
            test_task(1, 300, 2, 2, 10_000, 1, false),
            test_task(2, 400, 2, 2, 10_000, 2, false),
        ])
        .unwrap();
        let a = analyze_task_set(&set, &ExactEngine::default()).unwrap();
        let b = analyze_task_set_no_reuse(&set, &ExactEngine::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn greedy_rounds_hit_the_delay_cache() {
        // Across fixed-point iterations and greedy rounds many windows
        // repeat; a cached engine must observe a non-zero hit-rate.
        let set = TaskSet::new(vec![
            {
                let t = test_task(0, 10, 2, 2, 10_000, 0, false);
                pmcs_model::Task::builder(t.id())
                    .exec(t.exec())
                    .copy_in(t.copy_in())
                    .copy_out(t.copy_out())
                    .sporadic(Time::from_ticks(10_000))
                    .deadline(Time::from_ticks(600))
                    .priority(t.priority())
                    .build()
                    .unwrap()
            },
            test_task(1, 300, 2, 2, 10_000, 1, false),
            test_task(2, 400, 2, 2, 10_000, 2, false),
        ])
        .unwrap();
        let engine = SharedCachedEngine::new(
            ExactEngine::default(),
            std::sync::Arc::new(SharedDelayCache::default()),
        );
        let cached = analyze_task_set(&set, &engine).unwrap();
        let stats = engine.stats();
        assert!(stats.hits > 0, "expected cache hits, got {stats}");
        let plain = analyze_task_set(&set, &ExactEngine::default()).unwrap();
        assert_eq!(cached, plain, "caching must not change the report");
    }

    #[test]
    fn report_display_mentions_verdicts() {
        let set = TaskSet::new(vec![test_task(0, 10, 2, 2, 1_000, 0, false)]).unwrap();
        let r = analyze_task_set(&set, &ExactEngine::default()).unwrap();
        let s = r.to_string();
        assert!(s.contains("SCHEDULABLE"));
        assert!(s.contains("τ0"));
        assert!(LsAssignment::default().to_string().contains("no LS"));
    }
}
