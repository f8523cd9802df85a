//! The uniform per-task report every [`Analyzer`](crate::Analyzer)
//! returns.
//!
//! Pre-facade, each approach spoke its own dialect — the proposed
//! pipeline returned a `SchedulabilityReport`, WP a `Vec<WpTaskResult>`,
//! NPS a `Vec<NpsTaskResult>` — and sweep code flattened all of them to a
//! bare `bool`, discarding WCRT bounds and the LS assignment.
//! [`ApproachReport`] keeps the full verdict while staying
//! approach-agnostic: fields an approach cannot produce (LS assignment,
//! greedy rounds for the baselines) are simply `None`.

use std::fmt;

use pmcs_baselines::{NpsTaskResult, WpTaskResult};
use pmcs_core::schedulability::{LsAssignment, SchedulabilityReport};
use pmcs_core::DpStats;
use pmcs_model::{Sensitivity, TaskId, TaskSet, Time};

/// One task's verdict inside an [`ApproachReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskReport {
    /// The analyzed task.
    pub task: TaskId,
    /// WCRT bound under this approach ([`Time::MAX`] on divergence).
    pub wcrt: Time,
    /// The task's relative deadline.
    pub deadline: Time,
    /// `wcrt ≤ deadline`.
    pub schedulable: bool,
    /// Final LS/NLS marking, for approaches that have one (`None` for
    /// the baselines, which have no sensitivity concept).
    pub sensitivity: Option<Sensitivity>,
}

/// The uniform outcome of one analysis approach on one task set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApproachReport {
    /// Stable name of the approach that produced this report.
    pub approach: String,
    /// Per-task verdicts, in decreasing priority order.
    pub tasks: Vec<TaskReport>,
    /// Final latency-sensitivity assignment, where the approach chooses
    /// one (the proposed greedy marking); `None` otherwise.
    pub assignment: Option<LsAssignment>,
    /// Greedy rounds performed, where applicable.
    pub rounds: Option<usize>,
    /// Exact-DP effort this analysis spent (search nodes, budget
    /// fallbacks). All-zero for closed-form approaches and for analyzers
    /// run outside an engine-stack context.
    pub solver: DpStats,
}

impl ApproachReport {
    /// `true` iff every task meets its deadline.
    pub fn schedulable(&self) -> bool {
        self.tasks.iter().all(|t| t.schedulable)
    }

    /// The verdict for one task.
    pub fn verdict(&self, task: TaskId) -> Option<&TaskReport> {
        self.tasks.iter().find(|t| t.task == task)
    }

    /// Builds a report from the proposed pipeline's
    /// [`SchedulabilityReport`].
    pub fn from_schedulability(approach: &str, r: &SchedulabilityReport) -> Self {
        ApproachReport {
            approach: approach.to_string(),
            tasks: r
                .verdicts()
                .iter()
                .map(|v| TaskReport {
                    task: v.task,
                    wcrt: v.wcrt,
                    deadline: v.deadline,
                    schedulable: v.schedulable,
                    sensitivity: Some(v.sensitivity),
                })
                .collect(),
            assignment: Some(r.assignment().clone()),
            rounds: Some(r.rounds()),
            solver: DpStats::default(),
        }
    }

    /// A copy carrying the solver effort spent producing it.
    #[must_use]
    pub fn with_solver(mut self, solver: DpStats) -> Self {
        self.solver = solver;
        self
    }

    /// Builds a report from the closed-form WP results (deadlines looked
    /// up in `set`; tasks absent from the set keep a `Time::MAX`
    /// deadline placeholder, which cannot happen for results produced by
    /// `WpAnalysis::analyze` on the same set).
    pub fn from_wp(approach: &str, set: &TaskSet, results: &[WpTaskResult]) -> Self {
        ApproachReport {
            approach: approach.to_string(),
            tasks: results
                .iter()
                .map(|r| TaskReport {
                    task: r.task,
                    wcrt: r.wcrt,
                    deadline: set.get(r.task).map(|t| t.deadline()).unwrap_or(Time::MAX),
                    schedulable: r.schedulable,
                    sensitivity: None,
                })
                .collect(),
            assignment: None,
            rounds: None,
            solver: DpStats::default(),
        }
    }

    /// Builds a report from NPS results (deadline lookup as in
    /// [`ApproachReport::from_wp`]).
    pub fn from_nps(approach: &str, set: &TaskSet, results: &[NpsTaskResult]) -> Self {
        ApproachReport {
            approach: approach.to_string(),
            tasks: results
                .iter()
                .map(|r| TaskReport {
                    task: r.task,
                    wcrt: r.wcrt,
                    deadline: set.get(r.task).map(|t| t.deadline()).unwrap_or(Time::MAX),
                    schedulable: r.schedulable,
                    sensitivity: None,
                })
                .collect(),
            assignment: None,
            rounds: None,
            solver: DpStats::default(),
        }
    }
}

impl fmt::Display for ApproachReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}",
            self.approach,
            if self.schedulable() {
                "SCHEDULABLE"
            } else {
                "NOT SCHEDULABLE"
            }
        )?;
        if let Some(rounds) = self.rounds {
            write!(f, " after {rounds} round(s)")?;
        }
        if let Some(assignment) = &self.assignment {
            write!(f, "; {assignment}")?;
        }
        writeln!(f)?;
        for t in &self.tasks {
            write!(f, "  {} R={} D={}", t.task, t.wcrt, t.deadline)?;
            if let Some(s) = t.sensitivity {
                write!(f, " [{s}]")?;
            }
            writeln!(f, " {}", if t.schedulable { "ok" } else { "MISS" })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcs_baselines::{NpsAnalysis, WpAnalysis};
    use pmcs_core::window::test_task;
    use pmcs_core::{analyze_task_set, ExactEngine};

    fn demo_set() -> TaskSet {
        TaskSet::new(vec![
            test_task(0, 10, 2, 2, 1_000, 0, false),
            test_task(1, 20, 4, 4, 2_000, 1, false),
        ])
        .expect("valid task set")
    }

    #[test]
    fn schedulability_report_round_trips() {
        let set = demo_set();
        let legacy = analyze_task_set(&set, &ExactEngine::default()).unwrap();
        let report = ApproachReport::from_schedulability("proposed", &legacy);
        assert_eq!(report.schedulable(), legacy.schedulable());
        assert_eq!(report.rounds, Some(legacy.rounds()));
        assert_eq!(report.assignment.as_ref(), Some(legacy.assignment()));
        for (t, v) in report.tasks.iter().zip(legacy.verdicts()) {
            assert_eq!(t.task, v.task);
            assert_eq!(t.wcrt, v.wcrt);
            assert_eq!(t.sensitivity, Some(v.sensitivity));
        }
        assert!(report.verdict(TaskId(0)).is_some());
        assert!(report.verdict(TaskId(99)).is_none());
    }

    #[test]
    fn baseline_reports_carry_deadlines_but_no_assignment() {
        let set = demo_set();
        let wp = ApproachReport::from_wp("wp", &set, &WpAnalysis::default().analyze(&set));
        let nps = ApproachReport::from_nps("nps", &set, &NpsAnalysis::default().analyze(&set));
        for report in [&wp, &nps] {
            assert!(report.assignment.is_none());
            assert!(report.rounds.is_none());
            for t in &report.tasks {
                assert_eq!(t.deadline, set.get(t.task).unwrap().deadline());
                assert!(t.sensitivity.is_none());
            }
        }
    }

    #[test]
    fn display_mentions_approach_and_verdicts() {
        let set = demo_set();
        let legacy = analyze_task_set(&set, &ExactEngine::default()).unwrap();
        let s = ApproachReport::from_schedulability("proposed", &legacy).to_string();
        assert!(s.contains("[proposed]"));
        assert!(s.contains("SCHEDULABLE"));
        assert!(s.contains("τ0"));
    }
}
