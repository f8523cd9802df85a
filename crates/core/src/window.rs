//! The analysis window: the data both delay engines consume.
//!
//! For a task under analysis `τ_i` and a tentative delay-window length `t`,
//! the analysis considers `N_i(t)` scheduling intervals (Theorem 1 /
//! Corollary 1 of the paper) and searches for the protocol-legal schedule
//! that maximizes `Σ_k Δ_k`, the total interval length before (and
//! including) `τ_i`'s execution interval. [`WindowModel`] captures
//! everything that search needs: the competing tasks with their per-window
//! job budgets, `τ_i`'s own phases, and the case-specific structure.

use pmcs_model::{ArrivalBound, Priority, Sensitivity, Task, TaskId, TaskSet, Time};

use crate::error::CoreError;

/// Which analysis case the window encodes (Section V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowCase {
    /// `τ_i` is NLS: blocked by up to two lower-priority tasks, executing
    /// in the last of `N = Σ(η_j+1) + 3` intervals (Theorem 1).
    Nls,
    /// `τ_i` is LS and is *not* promoted to urgent in its release interval
    /// (case (a)): one blocking interval, `N = Σ(η_j+1) + 2` (Corollary 1).
    LsCaseA,
}

/// A competing task as seen from the window of the task under analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowTask {
    /// Identifier in the original task set.
    pub id: TaskId,
    /// Execution time `C_j`.
    pub exec: Time,
    /// Copy-in time `l_j`.
    pub copy_in: Time,
    /// Copy-out time `u_j`.
    pub copy_out: Time,
    /// Latency-sensitivity marking (urgent execution allowed iff LS).
    pub ls: bool,
    /// `true` iff the task has higher priority than the task under
    /// analysis.
    pub hp: bool,
    /// Priority (for the cancellation rule: a task can trigger urgency
    /// only by canceling the copy-in of a *lower-priority* task).
    pub priority: Priority,
    /// Maximum job executions inside the window: `η_j(t)+1` for
    /// higher-priority tasks, `1` for lower-priority tasks.
    pub budget: u64,
}

impl WindowTask {
    /// CPU demand of one execution: `C_j` normally, `l_j + C_j` when
    /// executed as urgent.
    pub fn demand(&self, urgent: bool) -> Time {
        if urgent {
            self.copy_in + self.exec
        } else {
            self.exec
        }
    }
}

/// The full window description handed to a delay engine.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowModel {
    /// Which analysis case the window encodes.
    pub case: WindowCase,
    /// Number of scheduling intervals `N_i(t)`.
    pub n_intervals: usize,
    /// Competing tasks (all tasks of the core except `τ_i`).
    pub tasks: Vec<WindowTask>,
    /// `τ_i`'s execution time `C_i`.
    pub exec_i: Time,
    /// `τ_i`'s copy-in time `l_i`.
    pub copy_in_i: Time,
    /// `τ_i`'s copy-out time `u_i`.
    pub copy_out_i: Time,
    /// `τ_i`'s priority.
    pub priority_i: Priority,
    /// `max_{τ_j ∈ Γ} l_j` (boundary constraints 12/15).
    pub max_l: Time,
    /// `max_{τ_j ∈ Γ} u_j` (boundary constraints 12/15).
    pub max_u: Time,
}

impl WindowModel {
    /// Builds the window for task `under_analysis` with delay-window
    /// length `t`, treating the task as NLS or LS according to `case`.
    ///
    /// Budgets follow Theorem 1: each higher-priority task `τ_j` may
    /// execute `η_j(t) + 1` jobs in the window; each lower-priority task at
    /// most one.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Model`] if `under_analysis` is not in the set.
    pub fn build(
        task_set: &TaskSet,
        under_analysis: TaskId,
        case: WindowCase,
        t: Time,
    ) -> Result<Self, CoreError> {
        let tua = task_set.require(under_analysis)?;
        let mut tasks = Vec::with_capacity(task_set.len() - 1);
        let mut hp_jobs: u64 = 0;
        let mut lp_count: usize = 0;
        for task in task_set.iter() {
            if task.id() == under_analysis {
                continue;
            }
            let hp = task.priority().is_higher_than(tua.priority());
            let budget = if hp {
                let b = task.arrival().eta(t) + 1;
                hp_jobs += b;
                b
            } else {
                lp_count += 1;
                1
            };
            tasks.push(WindowTask {
                id: task.id(),
                exec: task.exec(),
                copy_in: task.copy_in(),
                copy_out: task.copy_out(),
                ls: task.is_ls(),
                hp,
                priority: task.priority(),
                budget,
            });
        }
        // Theorem 1 / Corollary 1: the paper's "+3" (NLS) is two blocking
        // intervals plus τ_i's own execution interval, and the "+2" of LS
        // case (a) drops one blocking interval. Both blocking intervals
        // exist as soon as a *single* lower-priority task does: one lp job
        // released just before τ_i can occupy τ_i's release interval with
        // its standalone DMA copy-in (CPU idle, rule R2 already committed
        // the interval's transfer) and then execute in the next interval —
        // two full blocking intervals from one job. Only with no lp task
        // at all do the blocking intervals vanish. (An earlier refinement
        // capped blocking at `lp_count`, assuming each blocking interval
        // hosts a distinct lp task; simulation cross-validation refuted
        // that with exactly this copy-in-then-execute chain.) At least two
        // intervals are always needed: τ_i's copy-in and its execution.
        let blocking = match case {
            WindowCase::Nls => {
                if lp_count == 0 {
                    0
                } else {
                    2
                }
            }
            WindowCase::LsCaseA => lp_count.min(1),
        };
        let n_intervals = (hp_jobs as usize + blocking + 1).max(2);
        Ok(WindowModel {
            case,
            n_intervals,
            tasks,
            exec_i: tua.exec(),
            copy_in_i: tua.copy_in(),
            copy_out_i: tua.copy_out(),
            priority_i: tua.priority(),
            max_l: task_set.max_copy_in(),
            max_u: task_set.max_copy_out(),
        })
    }

    /// Indices of higher-priority tasks.
    pub fn hp_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.hp)
            .map(|(i, _)| i)
    }

    /// Indices of lower-priority tasks.
    pub fn lp_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.hp)
            .map(|(i, _)| i)
    }

    /// Latest interval index (inclusive) in which a lower-priority task may
    /// *execute*: `I_1` for the NLS case (two blocking intervals,
    /// Constraint 3), `I_0` for LS case (a) (Constraint 14).
    pub fn last_lp_exec_interval(&self) -> usize {
        match self.case {
            WindowCase::Nls => 1,
            WindowCase::LsCaseA => 0,
        }
    }

    /// `true` iff a DMA copy-in of a lower-priority task may occur in
    /// `I_0` (possible only in the NLS case; forbidden by Constraint 14
    /// for LS case (a), where the blocking task's copy-in predates the
    /// window).
    pub fn lp_copy_in_allowed(&self) -> bool {
        matches!(self.case, WindowCase::Nls)
    }

    /// The set of tasks whose copy-in a cancellation may target in
    /// interval `k`, as indices into [`WindowModel::tasks`]:
    /// higher-priority tasks anywhere, lower-priority tasks only in `I_0`
    /// (Constraint 3). The task under analysis never appears (its copy-in
    /// is pinned to interval `N−2` by Constraint 12).
    pub fn cancellable_indices(&self, interval: usize) -> impl Iterator<Item = usize> + '_ {
        self.tasks
            .iter()
            .enumerate()
            .filter(move |(_, t)| t.hp || interval == 0)
            .map(|(i, _)| i)
    }

    /// `true` iff task index `canceled` may enable an urgent execution of
    /// task index `urgent`: the canceled copy-in must belong to a task
    /// with *lower priority* than the urgent task (rules R3/R4,
    /// Constraint 8).
    pub fn cancellation_enables(&self, canceled: usize, urgent: usize) -> bool {
        self.tasks[urgent]
            .priority
            .is_higher_than(self.tasks[canceled].priority)
    }

    /// `true` iff task index `j`'s LS marking is inert: the task has no
    /// copy-in (an urgent execution then costs exactly a plain one) and no
    /// cancellation victim ([`WindowModel::cancellation_enables`] holds for
    /// no other window task, so rules R3/R4 enable nothing). An inert LS
    /// task behaves exactly like an NLS task, so the delay engine and the
    /// window cache key both treat it as NLS.
    pub fn ls_inert(&self, j: usize) -> bool {
        self.tasks[j].copy_in == Time::ZERO
            && !(0..self.tasks.len()).any(|v| v != j && self.cancellation_enables(v, j))
    }

    /// `true` iff a cancellation of task index `victim`'s copy-in is
    /// physically possible at all: rule R3 requires the release of a
    /// **latency-sensitive task with higher priority** than the victim.
    /// The candidates are the LS tasks of the window and, when the task
    /// under analysis is itself LS (case (a)), `τ_i`. With no such task
    /// the copy-in can never be canceled, and charging the DMA for it
    /// would be spurious pessimism (this is what lets the all-NLS
    /// formulation improve on the analysis of \[3\], cf. Section VIII).
    pub fn cancel_triggerable(&self, victim: usize) -> bool {
        let vp = self.tasks[victim].priority;
        if matches!(self.case, WindowCase::LsCaseA) && self.priority_i.is_higher_than(vp) {
            return true;
        }
        self.tasks
            .iter()
            .any(|t| t.ls && t.priority.is_higher_than(vp))
    }

    /// Number of intervals `N_i(t)`.
    pub fn n(&self) -> usize {
        self.n_intervals
    }

    /// Computes the window for the degenerate LS case (b): `τ_i` is
    /// promoted to urgent at the end of its release interval and executes
    /// in the following interval with a CPU-performed copy-in
    /// (Section V-B.2). Returns the exact worst-case response time for
    /// this case: `Δ_0 + Δ_1 + u_i` with
    ///
    /// * `Δ_0 = max(cpu_0, max_l + max_u)` where `cpu_0` ranges over one
    ///   execution of any other task (urgent executions included for LS
    ///   tasks — Constraints 5, 9, 15);
    /// * `Δ_1 = max(l_i + C_i, max_l + u_{x_0})` where `u_{x_0}` is the
    ///   copy-out of the task executed in `I_0` (Constraints 2, 11, 15).
    pub fn ls_case_b_response(&self) -> Time {
        let dma0 = self.max_l + self.max_u;
        let own = self.copy_in_i + self.exec_i;
        // Choice of the interfering/blocking task executed in I_0 couples
        // Δ_0 (its CPU demand) and Δ_1 (its copy-out): enumerate.
        let mut best = dma0.max(own.max(self.max_l)); // x_0 = none
        for t in &self.tasks {
            let cpu0 = t.demand(t.ls);
            let d0 = cpu0.max(dma0);
            let d1 = own.max(self.max_l + t.copy_out);
            best = best.max(d0 + d1);
        }
        // x_0 = none: Δ_0 = dma0, Δ_1 = max(own, max_l).
        best = best.max(dma0 + own.max(self.max_l));
        best + self.copy_out_i
    }
}

/// Convenience: the window case matching a task's current sensitivity.
pub fn case_for(sensitivity: Sensitivity) -> WindowCase {
    match sensitivity {
        Sensitivity::Nls => WindowCase::Nls,
        Sensitivity::Ls => WindowCase::LsCaseA,
    }
}

/// Helper used by tests and benches: builds a simple sporadic task.
#[doc(hidden)]
pub fn test_task(id: u32, c: i64, l: i64, u: i64, t: i64, prio: u32, ls: bool) -> Task {
    Task::builder(TaskId(id))
        .exec(Time::from_ticks(c))
        .copy_in(Time::from_ticks(l))
        .copy_out(Time::from_ticks(u))
        .sporadic(Time::from_ticks(t))
        .deadline(Time::from_ticks(t))
        .priority(Priority(prio))
        .sensitivity(if ls {
            Sensitivity::Ls
        } else {
            Sensitivity::Nls
        })
        .build()
        .expect("valid test task")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set3() -> TaskSet {
        TaskSet::new(vec![
            test_task(0, 10, 2, 2, 100, 0, false),
            test_task(1, 20, 4, 4, 200, 1, true),
            test_task(2, 30, 6, 6, 300, 2, false),
        ])
        .unwrap()
    }

    #[test]
    fn nls_window_counts_intervals_per_theorem_1() {
        let set = set3();
        // τ2 under analysis, t = 250: η_0(250) = 3, η_1(250) = 2.
        let w =
            WindowModel::build(&set, TaskId(2), WindowCase::Nls, Time::from_ticks(250)).unwrap();
        // N = (3+1) + (2+1) + min(2, 0 lp) + 1 = 8.
        assert_eq!(w.n(), 8);
        assert_eq!(w.tasks.len(), 2);
        assert!(w.tasks.iter().all(|t| t.hp));
        assert_eq!(w.hp_indices().count(), 2);
        assert_eq!(w.lp_indices().count(), 0);
    }

    #[test]
    fn ls_case_a_has_one_fewer_blocking_interval() {
        let set = set3();
        // τ0 (highest priority) has two lp tasks: NLS gets 2 blocking
        // intervals, LS case (a) only 1.
        let wn =
            WindowModel::build(&set, TaskId(0), WindowCase::Nls, Time::from_ticks(250)).unwrap();
        let wa = WindowModel::build(&set, TaskId(0), WindowCase::LsCaseA, Time::from_ticks(250))
            .unwrap();
        assert_eq!(wn.n(), 3); // 0 hp jobs + 2 blocking + 1
        assert_eq!(wa.n(), 2); // 0 hp jobs + 1 blocking + 1
        assert_eq!(wa.last_lp_exec_interval(), 0);
        assert_eq!(wn.last_lp_exec_interval(), 1);
        assert!(wn.lp_copy_in_allowed());
        assert!(!wa.lp_copy_in_allowed());
    }

    #[test]
    fn no_lp_tasks_means_no_blocking_intervals() {
        let set = set3();
        // τ2 (lowest priority) has no lp tasks: no blocking intervals in
        // either case.
        let wn =
            WindowModel::build(&set, TaskId(2), WindowCase::Nls, Time::from_ticks(250)).unwrap();
        let wa = WindowModel::build(&set, TaskId(2), WindowCase::LsCaseA, Time::from_ticks(250))
            .unwrap();
        assert_eq!(wn.n(), wa.n());
    }

    #[test]
    fn budgets_follow_arrival_curves() {
        let set = set3();
        let w =
            WindowModel::build(&set, TaskId(1), WindowCase::Nls, Time::from_ticks(150)).unwrap();
        // hp = τ0 with η(150) = 2 → budget 3; lp = τ2 budget 1.
        let hp: Vec<_> = w.hp_indices().collect();
        assert_eq!(hp.len(), 1);
        assert_eq!(w.tasks[hp[0]].budget, 3);
        let lp: Vec<_> = w.lp_indices().collect();
        assert_eq!(w.tasks[lp[0]].budget, 1);
        // N = 3 hp jobs + 2 blocking (one lp job spans two intervals) + 1.
        assert_eq!(w.n(), 6);
    }

    #[test]
    fn max_copy_phases_span_whole_set() {
        let set = set3();
        let w = WindowModel::build(&set, TaskId(0), WindowCase::Nls, Time::from_ticks(50)).unwrap();
        assert_eq!(w.max_l, Time::from_ticks(6));
        assert_eq!(w.max_u, Time::from_ticks(6));
    }

    #[test]
    fn cancellable_set_respects_interval_zero_rule() {
        let set = set3();
        let w =
            WindowModel::build(&set, TaskId(1), WindowCase::Nls, Time::from_ticks(100)).unwrap();
        // In I_0 both the hp task and the lp task are cancellable.
        assert_eq!(w.cancellable_indices(0).count(), 2);
        // Later only hp tasks.
        assert_eq!(w.cancellable_indices(3).count(), 1);
    }

    #[test]
    fn cancellation_requires_priority_gap() {
        let set = set3();
        let w =
            WindowModel::build(&set, TaskId(2), WindowCase::Nls, Time::from_ticks(100)).unwrap();
        // tasks: idx of τ0 (prio 0) and τ1 (prio 1).
        let i0 = w.tasks.iter().position(|t| t.id == TaskId(0)).unwrap();
        let i1 = w.tasks.iter().position(|t| t.id == TaskId(1)).unwrap();
        // τ1 (LS) may cancel τ0? No: τ0 has higher priority.
        assert!(!w.cancellation_enables(i0, i1));
        // τ0 urgent enabled by canceling τ1: yes.
        assert!(w.cancellation_enables(i1, i0));
    }

    #[test]
    fn unknown_task_is_an_error() {
        let set = set3();
        assert!(WindowModel::build(&set, TaskId(9), WindowCase::Nls, Time::ZERO).is_err());
    }

    #[test]
    fn ls_case_b_closed_form() {
        let set = set3();
        let w = WindowModel::build(&set, TaskId(1), WindowCase::LsCaseA, Time::from_ticks(100))
            .unwrap();
        // max_l = 6, max_u = 6 → dma0 = 12. own = 4 + 20 = 24.
        // x_0 = τ0 (NLS): Δ0 = max(10, 12) = 12; Δ1 = max(24, 6+2) = 24 → 36.
        // x_0 = τ2 (NLS): Δ0 = max(30, 12) = 30; Δ1 = max(24, 6+6) = 24 → 54.
        // x_0 = none: 12 + 24 = 36. Best 54; + u_i = 4 → 58.
        assert_eq!(w.ls_case_b_response(), Time::from_ticks(58));
    }

    #[test]
    fn window_task_demand() {
        let t = WindowTask {
            id: TaskId(0),
            exec: Time::from_ticks(10),
            copy_in: Time::from_ticks(3),
            copy_out: Time::from_ticks(2),
            ls: true,
            hp: true,
            priority: Priority(0),
            budget: 1,
        };
        assert_eq!(t.demand(false), Time::from_ticks(10));
        assert_eq!(t.demand(true), Time::from_ticks(13));
    }
}
