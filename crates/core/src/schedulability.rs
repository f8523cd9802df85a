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
//! Every round re-runs the fixed point of every task it scans, and batch
//! analysis ([`analyze_task_set`]) memoizes nothing itself. A promotion
//! changes a non-inert LS flag in nearly every window of the re-scanned
//! tasks, so windows and per-task verdicts almost never repeat within one
//! run; the repeats that do occur — a fixed point's confirming iteration —
//! are answered inside [`WcrtAnalyzer`], and the exact engine's carried
//! memo reuses DP states across the growing windows of one task shape.
//! Incremental [`AnalysisSession`](crate::AnalysisSession)s keep a verdict
//! cache, because their edits do leave most verdicts unchanged.

use std::fmt;

use pmcs_model::{Sensitivity, TaskId, TaskSet, Time};

use crate::error::CoreError;
use crate::session::{VerdictCache, VerdictKey};
use crate::wcrt::{DelayEngine, TaskTrace, WcrtAnalyzer};

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

    /// The report of an empty [`AnalysisSession`](crate::AnalysisSession):
    /// no verdicts, no LS tasks, trivially schedulable, zero rounds.
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
/// Runs the greedy loop that [`AnalysisSession`](crate::AnalysisSession)
/// operations share, without the session's verdict cache: within one run
/// no verdict key repeats.
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
    greedy_analyze(set, engine, Analyses::Plain)
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
    /// The fixed-point transcript of the analysis.
    pub trace: TaskTrace,
}

/// Transcript of a greedy LS-marking run: per round the scanned tasks in
/// priority order with the fixed-point transcript of each analysis, plus
/// the promotion sequence — everything certificate emission needs to
/// prove the verdicts and the marking decisions.
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
    let report = greedy_analyze(set, engine, Analyses::Traced(&mut trace))?;
    Ok((report, trace))
}

/// How [`greedy_analyze`] obtains each per-task analysis.
pub(crate) enum Analyses<'a> {
    /// Run every fixed point once, recording nothing.
    Plain,
    /// Run every fixed point traced and record it in the transcript.
    Traced(&'a mut GreedyTrace),
    /// Look every fixed point up in a session-lifetime content-addressed
    /// cache under its [`VerdictKey`] before running it, and store it
    /// after, so verdicts survive across session operations.
    Cached(&'a mut VerdictCache),
}

/// The greedy LS-marking loop shared by every analysis entry point:
/// batch analysis ([`analyze_task_set`]) runs it
/// [`Plain`](Analyses::Plain), incremental
/// [`AnalysisSession`](crate::AnalysisSession) operations
/// [`Cached`](Analyses::Cached), [`analyze_task_set_traced`]
/// [`Traced`](Analyses::Traced).
pub(crate) fn greedy_analyze(
    set: &TaskSet,
    engine: &impl DelayEngine,
    mut analyses: Analyses<'_>,
) -> Result<SchedulabilityReport, CoreError> {
    let analyzer = WcrtAnalyzer::default();
    let mut current = set.all_nls();
    let mut promoted = Vec::new();

    // Each round either terminates or promotes one task; at most n
    // promotions are possible.
    for round in 1..=set.len() + 1 {
        if let Analyses::Traced(tr) = &mut analyses {
            tr.rounds.push(Vec::new());
        }
        let mut verdicts = Vec::with_capacity(current.len());
        let mut failing: Option<TaskId> = None;
        for task in current.iter() {
            let analysis = match &mut analyses {
                Analyses::Plain => analyzer.analyze_task(&current, task.id(), engine)?,
                Analyses::Traced(tr) => {
                    let (a, task_trace) =
                        analyzer.analyze_task_traced(&current, task.id(), engine)?;
                    tr.rounds
                        .last_mut()
                        .expect("round entry pushed above")
                        .push(RoundEntry {
                            task: task.id(),
                            wcrt: a.wcrt,
                            schedulable: a.schedulable,
                            trace: task_trace,
                        });
                    a
                }
                Analyses::Cached(cache) => {
                    let key = VerdictKey::of(&current, task.id());
                    match cache.get(&key, task.id()) {
                        Some(hit) => hit,
                        None => {
                            let a = analyzer.analyze_task(&current, task.id(), engine)?;
                            cache.insert(key, a.clone());
                            a
                        }
                    }
                }
            };
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
                if let Analyses::Traced(tr) = &mut analyses {
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
                    if let Analyses::Traced(tr) = &mut analyses {
                        tr.promoted = promoted.clone();
                        tr.schedulable = false;
                    }
                    return Ok(SchedulabilityReport {
                        verdicts,
                        assignment: LsAssignment { promoted },
                        rounds: round,
                    });
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
    use crate::engine::ExactEngine;
    use crate::window::test_task;

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
    fn report_display_mentions_verdicts() {
        let set = TaskSet::new(vec![test_task(0, 10, 2, 2, 1_000, 0, false)]).unwrap();
        let r = analyze_task_set(&set, &ExactEngine::default()).unwrap();
        let s = r.to_string();
        assert!(s.contains("SCHEDULABLE"));
        assert!(s.contains("τ0"));
        assert!(LsAssignment::default().to_string().contains("no LS"));
    }
}
