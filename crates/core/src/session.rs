//! Incremental schedulability analysis sessions.
//!
//! Admission control is a stream of small edits to one task set: a new
//! task asks to join a core, a finished task leaves, a parameter change
//! re-prices an existing one. Re-running [`analyze_task_set`] from
//! scratch after every edit repeats almost all of the work — most tasks'
//! analysis inputs did not change. An [`AnalysisSession`] keeps the task
//! set *and* a content-addressed `VerdictCache` alive across edits:
//! every per-task fixed point computed by any greedy round of any
//! operation is stored under a canonical `VerdictKey`, and later
//! operations reuse it whenever the same task shape faces the same
//! competitor configuration again.
//!
//! ## Invalidation
//!
//! There is no explicit invalidation. The key captures everything a
//! per-task analysis may read — the target's full parameters and every
//! competitor's execution shape, arrival model, rank-normalized priority
//! and LS marking — so an edit that changes a task's analysis inputs
//! changes its key and misses, while untouched configurations keep
//! hitting. Competitor *deadlines* are deliberately excluded — no window
//! or fixed point of the analyzed task ever reads them — so a
//! deadline-only edit of one task invalidates nothing else.
//!
//! ## One greedy loop
//!
//! Batch ([`analyze_task_set`]) and incremental analysis run the same
//! greedy loop ([`schedulability::greedy_analyze`](crate::schedulability));
//! only sessions consult the verdict cache, since within one batch run a
//! promotion changes every later key. The differential property test in
//! `tests/session_differential.rs` drives random edit sequences against
//! the from-scratch analyzer.
//!
//! [`analyze_task_set`]: crate::analyze_task_set

use std::collections::HashMap;

use pmcs_model::{ArrivalModel, Task, TaskId, TaskSet};

use crate::cache::CacheStats;
use crate::error::CoreError;
use crate::schedulability::{greedy_analyze, Analyses, SchedulabilityReport};
use crate::wcrt::{DelayEngine, TaskAnalysis};

/// One competitor as seen by a [`VerdictKey`]: everything the analyzed
/// task's windows may read from it, id dropped and priority
/// rank-normalized (deadline deliberately absent).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CompetitorKey {
    exec: i64,
    copy_in: i64,
    copy_out: i64,
    arrival: ArrivalModel,
    ls: bool,
    prio_rank: u32,
}

/// Canonical content key of one per-task analysis: the target's full
/// parameters plus every competitor's [`CompetitorKey`] in decreasing
/// priority order.
///
/// Equal keys imply identical [`TaskAnalysis`] outcomes: the WCRT fixed
/// point reads the target's execution shape, arrival, deadline, marking
/// and relative priority, and the competitors' shapes, arrivals,
/// markings and relative priorities — each present verbatim or
/// rank-normalized. Task identifiers never influence an engine, so they
/// are excluded and the cached analysis is relabeled on a hit.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct VerdictKey {
    target: CompetitorKey,
    deadline: i64,
    competitors: Vec<CompetitorKey>,
}

impl VerdictKey {
    /// Builds the canonical key for analyzing `target` within `set`
    /// under the set's current markings.
    pub(crate) fn of(set: &TaskSet, target: TaskId) -> Self {
        let mut prios: Vec<u32> = set.iter().map(|t| t.priority().0).collect();
        prios.sort_unstable();
        let rank = |p: u32| -> u32 {
            prios
                .binary_search(&p)
                .expect("priority present by construction") as u32
        };
        let mut target_key = None;
        let mut competitors = Vec::with_capacity(set.len().saturating_sub(1));
        for t in set.iter() {
            let key = CompetitorKey {
                exec: t.exec().as_ticks(),
                copy_in: t.copy_in().as_ticks(),
                copy_out: t.copy_out().as_ticks(),
                arrival: t.arrival().clone(),
                ls: t.is_ls(),
                prio_rank: rank(t.priority().0),
            };
            if t.id() == target {
                target_key = Some((key, t.deadline().as_ticks()));
            } else {
                competitors.push(key);
            }
        }
        let (target, deadline) = target_key.expect("target task in set");
        VerdictKey {
            target,
            deadline,
            competitors,
        }
    }
}

/// Memo of per-task analyses keyed by [`VerdictKey`].
///
/// The session-level analogue of the window-level
/// [`SharedDelayCache`](crate::SharedDelayCache): entries are
/// content-addressed and never go stale, so the only eviction is a
/// wholesale clear when the entry budget is exceeded.
#[derive(Debug, Default)]
pub(crate) struct VerdictCache {
    map: HashMap<VerdictKey, TaskAnalysis>,
    stats: CacheStats,
    max_entries: usize,
}

impl VerdictCache {
    const DEFAULT_MAX_ENTRIES: usize = 1 << 16;

    pub(crate) fn new() -> Self {
        VerdictCache {
            map: HashMap::new(),
            stats: CacheStats::default(),
            max_entries: Self::DEFAULT_MAX_ENTRIES,
        }
    }

    /// Looks up an analysis, relabeling it to `target` on a hit.
    pub(crate) fn get(&mut self, key: &VerdictKey, target: TaskId) -> Option<TaskAnalysis> {
        match self.map.get(key) {
            Some(a) => {
                self.stats.hits += 1;
                let mut a = a.clone();
                a.task = target;
                Some(a)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    pub(crate) fn insert(&mut self, key: VerdictKey, analysis: TaskAnalysis) {
        if self.map.len() >= self.max_entries {
            self.stats.evictions += self.map.len() as u64;
            self.map.clear();
        }
        self.map.insert(key, analysis);
    }

    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// Counters of one [`AnalysisSession`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Mutating operations applied (admits, removes, updates; bulk
    /// admits count once).
    pub ops: u64,
    /// Per-task analyses served from the session's verdict cache instead
    /// of re-running the fixed point.
    pub verdicts_reused: u64,
    /// Per-task analyses computed fresh.
    pub verdicts_fresh: u64,
    /// Greedy rounds run across all operations.
    pub rounds: u64,
}

impl SessionStats {
    /// `verdicts_reused / (verdicts_reused + verdicts_fresh)`, or `0.0`
    /// before the first analysis — the session's incremental-vs-scratch
    /// reuse rate.
    pub fn reuse_rate(&self) -> f64 {
        let total = self.verdicts_reused + self.verdicts_fresh;
        if total == 0 {
            0.0
        } else {
            self.verdicts_reused as f64 / total as f64
        }
    }
}

/// A stateful, incrementally-updated schedulability analysis.
///
/// Owns a task set, the current [`SchedulabilityReport`] (verdicts plus
/// LS assignment), and a `VerdictCache` reused across operations. Every
/// mutating operation re-runs the greedy LS-marking loop — the same code
/// path as [`analyze_task_set`](crate::analyze_task_set) — but only the
/// dirty subset of per-task fixed points is recomputed: clean ones hit
/// the verdict cache (see the module docs for the invalidation rule).
///
/// Operations are transactional: on any error (invalid task set, engine
/// failure, capacity) the session's task set and report are unchanged.
///
/// # Example
///
/// ```
/// use pmcs_core::{AnalysisSession, ExactEngine};
/// use pmcs_core::window::test_task;
///
/// let mut session = AnalysisSession::new(ExactEngine::default());
/// session.admit(test_task(0, 10, 2, 2, 100, 0, false))?;
/// let report = session.admit(test_task(1, 20, 4, 4, 200, 1, false))?;
/// assert!(report.schedulable());
/// session.remove(pmcs_model::TaskId(0))?;
/// assert_eq!(session.report().verdicts().len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct AnalysisSession<E> {
    engine: E,
    tasks: Vec<Task>,
    capacity: Option<usize>,
    cache: VerdictCache,
    report: SchedulabilityReport,
    ops: u64,
    rounds: u64,
}

impl<E: DelayEngine> AnalysisSession<E> {
    /// Creates an empty session with unbounded capacity.
    pub fn new(engine: E) -> Self {
        AnalysisSession {
            engine,
            tasks: Vec::new(),
            capacity: None,
            cache: VerdictCache::new(),
            report: SchedulabilityReport::empty(),
            ops: 0,
            rounds: 0,
        }
    }

    /// Creates an empty session that rejects admits beyond `capacity`
    /// tasks with [`CoreError::SessionCapacity`].
    pub fn with_capacity(engine: E, capacity: usize) -> Self {
        let mut s = AnalysisSession::new(engine);
        s.capacity = Some(capacity);
        s
    }

    /// The delay engine answering this session's window queries.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Number of admitted tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` iff no task is admitted.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// `true` iff `id` is admitted.
    pub fn contains(&self, id: TaskId) -> bool {
        self.tasks.iter().any(|t| t.id() == id)
    }

    /// The admitted tasks, in decreasing priority order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// The report for the current task set. For an empty session this is
    /// the trivially-schedulable empty report with zero rounds.
    pub fn report(&self) -> &SchedulabilityReport {
        &self.report
    }

    /// Consumes the session, returning the final report.
    pub fn into_report(self) -> SchedulabilityReport {
        self.report
    }

    /// Operation and verdict-reuse counters.
    pub fn stats(&self) -> SessionStats {
        let cache = self.cache.stats();
        SessionStats {
            ops: self.ops,
            verdicts_reused: cache.hits,
            verdicts_fresh: cache.misses,
            rounds: self.rounds,
        }
    }

    /// Admits one task and re-analyzes.
    ///
    /// The task stays admitted even when the resulting report is
    /// unschedulable — admission *policy* (e.g. reject-on-miss) is the
    /// caller's; [`remove`](AnalysisSession::remove) undoes the admit.
    ///
    /// # Errors
    ///
    /// [`CoreError::SessionCapacity`] at capacity,
    /// [`CoreError::Model`] for duplicate ids or priorities, and engine
    /// errors from the re-analysis; the session is unchanged on error.
    pub fn admit(&mut self, task: Task) -> Result<&SchedulabilityReport, CoreError> {
        self.admit_all([task])
    }

    /// Admits a batch of tasks with a single re-analysis.
    ///
    /// # Errors
    ///
    /// Same as [`admit`](AnalysisSession::admit).
    pub fn admit_all(
        &mut self,
        tasks: impl IntoIterator<Item = Task>,
    ) -> Result<&SchedulabilityReport, CoreError> {
        let mut next = self.tasks.clone();
        next.extend(tasks);
        if let Some(capacity) = self.capacity {
            if next.len() > capacity {
                return Err(CoreError::SessionCapacity { capacity });
            }
        }
        self.apply(next)
    }

    /// Removes one task and re-analyzes. Removing the last task yields
    /// the empty report.
    ///
    /// # Errors
    ///
    /// [`CoreError::Model`] ([`UnknownTask`](pmcs_model::ModelError)) if
    /// `id` is not admitted, and engine errors from the re-analysis; the
    /// session is unchanged on error.
    pub fn remove(&mut self, id: TaskId) -> Result<&SchedulabilityReport, CoreError> {
        if !self.contains(id) {
            return Err(CoreError::Model(pmcs_model::ModelError::UnknownTask(id)));
        }
        let next: Vec<Task> = self
            .tasks
            .iter()
            .filter(|t| t.id() != id)
            .cloned()
            .collect();
        self.apply(next)
    }

    /// Replaces the task with id `id` by `task` (which may carry a
    /// different id) and re-analyzes.
    ///
    /// # Errors
    ///
    /// [`CoreError::Model`] ([`UnknownTask`](pmcs_model::ModelError)) if
    /// `id` is not admitted, validation errors for the replacement, and
    /// engine errors; the session is unchanged on error.
    pub fn update(&mut self, id: TaskId, task: Task) -> Result<&SchedulabilityReport, CoreError> {
        if !self.contains(id) {
            return Err(CoreError::Model(pmcs_model::ModelError::UnknownTask(id)));
        }
        let next: Vec<Task> = self
            .tasks
            .iter()
            .filter(|t| t.id() != id)
            .cloned()
            .chain(std::iter::once(task))
            .collect();
        self.apply(next)
    }

    /// Validates `next` and re-analyzes, committing both only on success.
    fn apply(&mut self, next: Vec<Task>) -> Result<&SchedulabilityReport, CoreError> {
        let report = if next.is_empty() {
            SchedulabilityReport::empty()
        } else {
            let set = TaskSet::new(next.clone())?;
            greedy_analyze(&set, &&self.engine, Analyses::Cached(&mut self.cache))?
        };
        // TaskSet::new sorted its copy; mirror the order so `tasks()`
        // matches the report's verdict order.
        let mut next = next;
        next.sort_by_key(|t| t.priority());
        self.ops += 1;
        self.rounds += report.rounds() as u64;
        self.tasks = next;
        self.report = report;
        Ok(&self.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExactEngine;
    use crate::schedulability::analyze_task_set;
    use crate::window::test_task;
    use pmcs_model::ModelError;

    fn batch(tasks: &[Task]) -> SchedulabilityReport {
        let set = TaskSet::new(tasks.to_vec()).expect("valid set");
        analyze_task_set(&set, &ExactEngine::default()).expect("batch analysis")
    }

    #[test]
    fn empty_session_is_trivially_schedulable() {
        let session = AnalysisSession::new(ExactEngine::default());
        assert!(session.is_empty());
        assert!(session.report().schedulable());
        assert_eq!(session.report().rounds(), 0);
    }

    #[test]
    fn admit_remove_update_match_batch_analysis() {
        let mut session = AnalysisSession::new(ExactEngine::default());
        let t0 = test_task(0, 10, 2, 2, 100, 0, false);
        let t1 = test_task(1, 20, 4, 4, 200, 1, false);
        let t2 = test_task(2, 30, 6, 6, 300, 2, false);

        session.admit(t0.clone()).expect("admit τ0");
        assert_eq!(*session.report(), batch(std::slice::from_ref(&t0)));

        session.admit(t1.clone()).expect("admit τ1");
        session.admit(t2.clone()).expect("admit τ2");
        assert_eq!(
            *session.report(),
            batch(&[t0.clone(), t1.clone(), t2.clone()])
        );

        session.remove(t1.id()).expect("remove τ1");
        assert_eq!(*session.report(), batch(&[t0.clone(), t2.clone()]));

        let t2b = test_task(2, 40, 6, 6, 300, 2, false);
        session.update(t2.id(), t2b.clone()).expect("update τ2");
        assert_eq!(*session.report(), batch(&[t0.clone(), t2b.clone()]));

        session.remove(t0.id()).expect("remove τ0");
        session.remove(t2b.id()).expect("remove τ2");
        assert!(session.is_empty());
        assert!(session.report().schedulable());
    }

    #[test]
    fn unrelated_edits_reuse_verdicts() {
        let mut session = AnalysisSession::new(ExactEngine::default());
        let t0 = test_task(0, 10, 2, 2, 100, 0, false);
        let t1 = test_task(1, 20, 4, 4, 200, 1, false);
        session.admit_all([t0, t1]).expect("bulk admit");
        let before = session.stats();
        assert_eq!(before.verdicts_reused, 0, "fresh session computes all");

        // Admitting and removing a lowest-priority task restores the
        // exact prior configuration: both verdicts must come from cache.
        let t9 = test_task(9, 1, 0, 0, 1_000, 9, false);
        session.admit(t9).expect("admit τ9");
        session.remove(TaskId(9)).expect("remove τ9");
        let after = session.stats();
        assert!(
            after.verdicts_reused >= before.verdicts_reused + 2,
            "expected ≥2 cached verdicts, stats {after:?}"
        );
        assert_eq!(after.ops, 3);
    }

    #[test]
    fn capacity_is_enforced_without_state_change() {
        let mut session = AnalysisSession::with_capacity(ExactEngine::default(), 1);
        session
            .admit(test_task(0, 10, 2, 2, 100, 0, false))
            .expect("first admit fits");
        let err = session
            .admit(test_task(1, 20, 4, 4, 200, 1, false))
            .expect_err("second admit exceeds capacity");
        assert_eq!(err, CoreError::SessionCapacity { capacity: 1 });
        assert_eq!(session.len(), 1);
    }

    #[test]
    fn duplicate_and_unknown_ids_are_rejected_transactionally() {
        let mut session = AnalysisSession::new(ExactEngine::default());
        let t0 = test_task(0, 10, 2, 2, 100, 0, false);
        session.admit(t0.clone()).expect("admit τ0");
        let report_before = session.report().clone();

        let dup = session.admit(test_task(0, 5, 1, 1, 50, 1, false));
        assert!(matches!(
            dup,
            Err(CoreError::Model(ModelError::DuplicateTaskId(_)))
        ));
        let unknown = session.remove(TaskId(7));
        assert!(matches!(
            unknown,
            Err(CoreError::Model(ModelError::UnknownTask(_)))
        ));
        assert_eq!(session.len(), 1);
        assert_eq!(*session.report(), report_before);
    }

    #[test]
    fn verdict_key_ignores_competitor_deadlines() {
        // Two sets differing only in τ1's deadline: τ0's key is equal,
        // τ1's differs.
        let mk = |deadline: i64| {
            let t = test_task(1, 20, 4, 4, 200, 1, false);
            let t1 = Task::builder(t.id())
                .exec(t.exec())
                .copy_in(t.copy_in())
                .copy_out(t.copy_out())
                .sporadic(pmcs_model::Time::from_ticks(200))
                .deadline(pmcs_model::Time::from_ticks(deadline))
                .priority(t.priority())
                .build()
                .expect("valid task");
            TaskSet::new(vec![test_task(0, 10, 2, 2, 100, 0, false), t1]).expect("valid set")
        };
        let a = mk(150);
        let b = mk(190);
        assert_eq!(VerdictKey::of(&a, TaskId(0)), VerdictKey::of(&b, TaskId(0)));
        assert_ne!(VerdictKey::of(&a, TaskId(1)), VerdictKey::of(&b, TaskId(1)));
    }

    #[test]
    fn verdict_key_keeps_every_ls_flag() {
        // τ2: zero copy-in, lowest priority — its LS flag changes no
        // window of τ0 or τ1, yet promoting it changes every task's key,
        // so a verdict never crosses a promotion.
        let tasks = vec![
            test_task(0, 10, 2, 2, 100, 0, false),
            test_task(1, 20, 4, 4, 200, 1, false),
            test_task(2, 30, 0, 6, 300, 2, false),
        ];
        let set = TaskSet::new(tasks).expect("valid set");
        let promoted = set
            .with_sensitivity(TaskId(2), pmcs_model::Sensitivity::Ls)
            .expect("τ2 in set");
        for id in 0..3 {
            assert_ne!(
                VerdictKey::of(&set, TaskId(id)),
                VerdictKey::of(&promoted, TaskId(id)),
                "τ{id}"
            );
        }
    }
}
