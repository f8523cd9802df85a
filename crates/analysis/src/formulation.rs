//! The MILP formulation of Section V, solved with [`pmcs_milp`].
//!
//! Production analysis never solves it: every WCRT bound comes from the
//! exact DP ([`ExactEngine`](pmcs_core::ExactEngine)). [`MilpEngine`] is
//! the independent oracle that [`AuditedEngine`](crate::AuditedEngine)
//! checks the DP against, and the subject of the `pmcs-audit milp`/`lint`
//! subcommands.
//!
//! Variable map (one block per scheduling interval):
//!
//! | paper | here | meaning |
//! |---|---|---|
//! | `E_j^k` | `e[j][k]` | task `j` executes in `I_k` (k ∈ [0, N−2]) |
//! | `LE_j^k` | `le[j][k]` | urgent execution: CPU copy-in + execute (LS only) |
//! | `L_j^k` | `l[j][k]` | DMA copy-in of `j` in `I_k` (k ∈ [0, N−3]) |
//! | `CL_j^k` | `cl[j][k]` | canceled copy-in of `j` in `I_k` |
//! | `Δ_k, Δ^cpu_k, Δ^in_k, Δ^out_k` | `delta/dcpu/din/dout` | durations |
//! | `α_k` | `alpha[k]` | max-selector of Constraint 13 |
//!
//! Deviations from the paper's letter (both safe, both mirrored by
//! [`ExactEngine`](pmcs_core::ExactEngine) so the engines stay equivalent):
//!
//! * Constraints 5 and 6 are relaxed from `= 1` to `≤ 1` so that windows
//!   with fewer competitors than intervals stay feasible (an idle CPU or
//!   DMA slot simply contributes less delay — the maximizer never prefers
//!   it when a real activity is available).
//! * Constraint 8 is applied per urgent task with the victim set
//!   `lp(τ_j)` (tasks with priority lower than the *urgent* task), which
//!   is the set rules R3/R4 actually permit.
//! * The task under analysis never appears as a cancellation victim: its
//!   copy-in is pinned to `I_{N−2}` by Constraint 12.

use pmcs_core::wcrt::{DelayBound, DelayEngine};
use pmcs_core::{CoreError, WindowModel};
use pmcs_milp::{
    AuditReport, AuditedOutcome, Cmp, Limits, LinExpr, MilpError, MilpSolution, Problem, Solver,
    Var,
};
use pmcs_model::Time;

/// Delay engine backed by the faithful MILP formulation.
///
/// Every solve runs the audited pipeline ([`Solver::solve_audited`]):
/// presolve, branch & bound, restoration through the inverse transforms,
/// then an exact-rational re-verification against the original problem.
/// A refuted answer, and any solver failure, is [`CoreError::AuditFailed`],
/// never a silent bound.
///
/// Exponentially slower than [`ExactEngine`](pmcs_core::ExactEngine) on
/// large windows; intended for validation, small task sets, and
/// benchmarking the formulation itself (as the paper does with CPLEX).
#[derive(Debug, Clone, Default)]
pub struct MilpEngine {
    /// Branch-and-bound limits handed to the solver.
    pub limits: Limits,
    /// Effort gate: windows whose formulation has more than this many
    /// integral variables are not solved at all — the engine returns the
    /// formulation's deterministic safe delay cap (`N · M`, an upper
    /// bound on the objective `Σ_k Δ_k`) with `exact = false` instead.
    ///
    /// The big-M placement formulation has an LP relaxation too weak to
    /// prune its highly symmetric branch-and-bound tree, so large windows
    /// are intractable for a plain branch & bound (the paper solves them
    /// with CPLEX's cut generation, which this reproduction does not
    /// have). The gate keeps bounded-effort runs deterministic: whether a
    /// window is solved depends only on the problem, never on the search.
    /// `None` (the default) never gates — the historical behavior for
    /// validation-sized windows.
    pub bin_budget: Option<usize>,
}

impl MilpEngine {
    /// Creates an engine with default solver limits and no effort gate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the effort gate (see the `bin_budget` field).
    #[must_use]
    pub fn with_bin_budget(mut self, bin_budget: Option<usize>) -> Self {
        self.bin_budget = bin_budget;
        self
    }

    /// Builds the MILP for a window (exposed for inspection and tests).
    pub fn build_problem(&self, w: &WindowModel) -> Problem {
        Formulation::build(w).problem
    }

    fn solve(&self, problem: &Problem) -> Result<MilpSolution, CoreError> {
        // `Solver::solve` restores through the inverse transforms before
        // the audit checks the answer against the original problem, so a
        // presolve bug is a refutation, never a silent shift.
        let audited = Solver::with_limits(self.limits.clone())
            .solve_audited(problem)
            .map_err(solver_error)?;
        if audited.report.failed() {
            return Err(audit_error(&audited.report));
        }
        match audited.outcome {
            AuditedOutcome::Solved(sol) => Ok(sol),
            // The WCRT windows always admit the all-idle schedule, so an
            // infeasibility verdict — even an audited one — means the
            // formulation itself is broken; keep the solver's error.
            AuditedOutcome::Infeasible => Err(solver_error(MilpError::Infeasible)),
        }
    }
}

/// A MILP solver failure: no audited answer exists, so the audit cannot
/// vouch for any bound.
fn solver_error(e: MilpError) -> CoreError {
    CoreError::AuditFailed {
        check: "milp-solver",
        detail: e.to_string(),
    }
}

/// Maps the first failed check of `report` to [`CoreError::AuditFailed`].
fn audit_error(report: &AuditReport) -> CoreError {
    let failed = report
        .problems()
        .find(|c| c.status == pmcs_milp::CheckStatus::Failed);
    match failed {
        Some(check) => CoreError::AuditFailed {
            check: check.name,
            detail: check.detail.clone(),
        },
        None => CoreError::AuditFailed {
            check: "unknown",
            detail: "audit reported failure without a failed check".to_string(),
        },
    }
}

impl DelayEngine for MilpEngine {
    fn max_total_delay(&self, w: &WindowModel) -> Result<DelayBound, CoreError> {
        let f = Formulation::build(w);
        if let Some(budget) = self.bin_budget {
            if f.problem.integral_vars().count() > budget {
                return Ok(DelayBound {
                    delay: Time::from_f64_ceil(f.delay_cap - 1e-6),
                    exact: false,
                    nodes: 0,
                });
            }
        }
        let sol = self.solve(&f.problem)?;
        let (value, exact) = if sol.is_optimal() {
            (sol.objective(), true)
        } else {
            // Node limit hit: fall back to the formulation's own cap, not
            // the search's remaining-tree bound. Both are safe upper
            // bounds, but the cap is a function of the problem alone, so
            // the reported (conservative) delay never depends on how far
            // the search got.
            (f.delay_cap, false)
        };
        // All durations are integer ticks, so the optimum is integral;
        // round defensively toward the safe side.
        let delay = Time::from_f64_ceil(value - 1e-6);
        Ok(DelayBound {
            delay,
            exact,
            nodes: sol.nodes() as u64,
        })
    }
}

/// Index helper: `Option<Var>` per (task, interval), absent when the
/// variable is structurally zero.
type VarGrid = Vec<Vec<Option<Var>>>;

/// Per-slot interval-length caps in integer ticks, derived from which
/// placement variables structurally exist at each slot. These are exactly
/// the bounds the `A007` big-M lint derives from the row activity ranges:
/// using them as the Constraint-13 big-M constants (instead of one uniform
/// window-wide `M`) keeps the lint quiet and makes the LP relaxation tight
/// enough to prune.
struct SlotCaps {
    /// Max CPU demand of `I_k`: the largest `C_j` (or `l_j + C_j` for an
    /// urgent execution) over tasks placeable in slot `k`; `C_i` at `N−1`.
    dcpu: Vec<i64>,
    /// Max DMA copy-in of `I_k` over the copy-in/cancel variables of the
    /// slot; pinned values at the window boundary (Constraint 12).
    din: Vec<i64>,
    /// Max DMA copy-out of `I_k`: the largest `u_j` over tasks placeable
    /// in `I_{k−1}`; `max_u` at the window start (Constraint 12).
    dout: Vec<i64>,
    /// `max(dcpu, din + dout)` — an upper bound on `Δ_k` itself.
    delta: Vec<i64>,
}

impl SlotCaps {
    fn derive(w: &WindowModel) -> SlotCaps {
        let n = w.n();
        let last_lp = w.last_lp_exec_interval();
        let exec_slots = n - 1;
        let placeable = |k: usize| w.tasks.iter().filter(move |t| t.hp || k <= last_lp);
        let dcpu: Vec<i64> = (0..n)
            .map(|k| {
                if k == n - 1 {
                    w.exec_i.as_ticks()
                } else {
                    placeable(k)
                        .map(|t| t.demand(t.ls).as_ticks())
                        .max()
                        .unwrap_or(0)
                }
            })
            .collect();
        let din: Vec<i64> = (0..n)
            .map(|k| {
                if k == n - 2 {
                    w.copy_in_i.as_ticks()
                } else if k == n - 1 {
                    w.max_l.as_ticks()
                } else {
                    // Slots 0 … N−3: the DMA loads the copy-in of the task
                    // executing next (`L_j^k`, paired with `E_j^{k+1}`) or
                    // a canceled copy-in (`CL_j^k`).
                    w.tasks
                        .iter()
                        .enumerate()
                        .filter(|&(j, t)| {
                            let load = (t.hp || (k < last_lp && k == 0 && w.lp_copy_in_allowed()))
                                && k + 1 < exec_slots;
                            let cancel = (t.hp || k == 0) && w.cancel_triggerable(j);
                            load || cancel
                        })
                        .map(|(_, t)| t.copy_in.as_ticks())
                        .max()
                        .unwrap_or(0)
                }
            })
            .collect();
        let dout: Vec<i64> = (0..n)
            .map(|k| {
                if k == 0 {
                    w.max_u.as_ticks()
                } else {
                    placeable(k - 1)
                        .map(|t| t.copy_out.as_ticks())
                        .max()
                        .unwrap_or(0)
                }
            })
            .collect();
        let delta: Vec<i64> = (0..n).map(|k| dcpu[k].max(din[k] + dout[k])).collect();
        SlotCaps {
            dcpu,
            din,
            dout,
            delta,
        }
    }

    /// `Σ_k delta[k]` in integer arithmetic: the deterministic safe delay
    /// cap of the formulation.
    fn delay_cap_ticks(&self) -> i64 {
        self.delta.iter().sum()
    }
}

struct Formulation {
    problem: Problem,
    /// Deterministic upper bound on the objective: `Σ_k Δ_k` with each
    /// `Δ_k` at its slot cap ([`SlotCaps::delay_cap_ticks`]). Used as the
    /// safe fallback delay when a solve is gated or hits its node limit.
    delay_cap: f64,
}

impl Formulation {
    fn build(w: &WindowModel) -> Formulation {
        let n = w.n();
        let m = w.tasks.len();
        let exec_slots = n - 1; // intervals 0 ..= N−2 host competitor executions
        let copyin_slots = n.saturating_sub(2); // intervals 0 ..= N−3 host copy-ins

        let mut p = Problem::maximize();

        // Per-slot caps replace the old uniform big-M (which A007 flagged
        // as up to ~2e4× looser than the derivable bound).
        let caps = SlotCaps::derive(w);

        // --- Variables ---------------------------------------------------
        let mut e: VarGrid = vec![vec![None; exec_slots]; m];
        let mut le: VarGrid = vec![vec![None; exec_slots]; m];
        let mut lv: VarGrid = vec![vec![None; copyin_slots]; m];
        let mut cl: VarGrid = vec![vec![None; copyin_slots]; m];
        for (j, task) in w.tasks.iter().enumerate() {
            for k in 0..exec_slots {
                let exec_allowed = task.hp || k <= w.last_lp_exec_interval();
                if exec_allowed {
                    e[j][k] = Some(p.binary(format!("E_{j}_{k}")));
                    if task.ls {
                        le[j][k] = Some(p.binary(format!("LE_{j}_{k}")));
                    }
                }
            }
            for k in 0..copyin_slots {
                // Constraint 1 pairs L_j^k with E_j^{k+1}; the copy-in of
                // an execution in I_0 predates the window.
                let exec_next = k + 1 < exec_slots + 1 && k < exec_slots - 1 + 1;
                let next_e_exists = k < exec_slots - 1 && e[j][k + 1].is_some();
                let copyin_allowed = task.hp || (k == 0 && w.lp_copy_in_allowed());
                if exec_next && next_e_exists && copyin_allowed {
                    lv[j][k] = Some(p.binary(format!("L_{j}_{k}")));
                }
                // Cancellations: hp anywhere, lp only in I_0
                // (Constraint 3), and only when some higher-priority LS
                // task exists to trigger the cancel (rule R3).
                if (task.hp || k == 0) && w.cancel_triggerable(j) {
                    cl[j][k] = Some(p.binary(format!("CL_{j}_{k}")));
                }
            }
        }
        let delta: Vec<Var> = (0..n)
            .map(|k| p.continuous(format!("delta_{k}"), 0.0, caps.delta[k] as f64))
            .collect();
        let dcpu: Vec<Var> = (0..n)
            .map(|k| p.continuous(format!("dcpu_{k}"), 0.0, caps.dcpu[k] as f64))
            .collect();
        let din: Vec<Var> = (0..n)
            .map(|k| p.continuous(format!("din_{k}"), 0.0, caps.din[k] as f64))
            .collect();
        let dout: Vec<Var> = (0..n)
            .map(|k| p.continuous(format!("dout_{k}"), 0.0, caps.dout[k] as f64))
            .collect();
        let alpha: Vec<Var> = (0..n).map(|k| p.binary(format!("alpha_{k}"))).collect();

        // --- Constraint 1: L_j^k = E_j^{k+1} ------------------------------
        #[allow(clippy::needless_range_loop)]
        for j in 0..m {
            for k in 0..copyin_slots {
                if k + 1 > exec_slots - 1 {
                    continue;
                }
                match (lv[j][k], e[j][k + 1]) {
                    (Some(l), Some(ex)) => {
                        p.constrain_named(Some(format!("C1_{j}_{k}")), l - ex, Cmp::Eq, 0.0);
                    }
                    (None, Some(ex))
                        // Execution without an in-window DMA copy-in is
                        // only legal in I_0 (pre-window copy-in).
                        if k + 1 >= 1 => {
                            p.constrain_named(
                                Some(format!("C1z_{j}_{k}")),
                                LinExpr::from(ex),
                                Cmp::Eq,
                                0.0,
                            );
                        }
                    _ => {}
                }
            }
        }

        // --- Constraint 5 (relaxed): one execution per interval ----------
        for k in 0..exec_slots {
            let mut sum = LinExpr::zero();
            for j in 0..m {
                if let Some(v) = e[j][k] {
                    sum += LinExpr::from(v);
                }
                if let Some(v) = le[j][k] {
                    sum += LinExpr::from(v);
                }
            }
            if !sum.is_constant() {
                p.constrain_named(Some(format!("C5_{k}")), sum, Cmp::Le, 1.0);
            }
        }

        // --- Constraint 6 (relaxed): one copy-in activity per interval ---
        for k in 0..copyin_slots {
            let mut sum = LinExpr::zero();
            for j in 0..m {
                if let Some(v) = lv[j][k] {
                    sum += LinExpr::from(v);
                }
                if let Some(v) = cl[j][k] {
                    sum += LinExpr::from(v);
                }
            }
            if !sum.is_constant() {
                p.constrain_named(Some(format!("C6_{k}")), sum, Cmp::Le, 1.0);
            }
        }

        // --- Constraint 7: job budgets ------------------------------------
        for (j, task) in w.tasks.iter().enumerate() {
            let mut sum = LinExpr::zero();
            for k in 0..exec_slots {
                if let Some(v) = e[j][k] {
                    sum += LinExpr::from(v);
                }
                if let Some(v) = le[j][k] {
                    sum += LinExpr::from(v);
                }
            }
            if !sum.is_constant() {
                p.constrain_named(Some(format!("C7_{j}")), sum, Cmp::Le, task.budget as f64);
            }
        }

        // --- Constraint 8: urgency requires a lower-priority cancel ------
        #[allow(clippy::needless_range_loop)]
        for j in 0..m {
            if !w.tasks[j].ls {
                continue;
            }
            for k in 0..copyin_slots {
                let Some(le_next) = (k < exec_slots - 1).then(|| le[j][k + 1]).flatten() else {
                    continue;
                };
                let mut victims = LinExpr::zero();
                for v in 0..m {
                    if v != j && w.cancellation_enables(v, j) {
                        if let Some(clv) = cl[v][k] {
                            victims += LinExpr::from(clv);
                        }
                    }
                }
                p.constrain_named(Some(format!("C8_{j}_{k}")), victims - le_next, Cmp::Ge, 0.0);
            }
        }

        // --- Constraint 9: CPU time per interval --------------------------
        for k in 0..exec_slots {
            let mut cap = LinExpr::zero();
            for (j, task) in w.tasks.iter().enumerate() {
                if let Some(v) = e[j][k] {
                    cap += v * task.exec.as_f64();
                }
                if let Some(v) = le[j][k] {
                    cap += v * (task.copy_in + task.exec).as_f64();
                }
            }
            p.constrain_named(Some(format!("C9_{k}")), dcpu[k] - cap, Cmp::Le, 0.0);
        }
        // Constraint 12: the last interval executes τ_i.
        p.fix(dcpu[n - 1], w.exec_i.as_f64());

        // --- Constraint 10: DMA copy-in time ------------------------------
        for k in 0..copyin_slots {
            let mut cap = LinExpr::zero();
            for (j, task) in w.tasks.iter().enumerate() {
                if let Some(v) = lv[j][k] {
                    cap += v * task.copy_in.as_f64();
                }
                if let Some(v) = cl[j][k] {
                    cap += v * task.copy_in.as_f64();
                }
            }
            p.constrain_named(Some(format!("C10_{k}")), din[k] - cap, Cmp::Le, 0.0);
        }
        // Constraint 12: τ_i's copy-in in I_{N−2}; a future task's copy-in
        // may occupy the DMA in I_{N−1}.
        p.fix(din[n - 2], w.copy_in_i.as_f64());
        p.constrain_named(
            Some("C12_din_last".to_string()),
            LinExpr::from(din[n - 1]),
            Cmp::Le,
            w.max_l.as_f64(),
        );

        // --- Constraints 2+11: DMA copy-out time --------------------------
        for k in 1..n {
            let mut cap = LinExpr::zero();
            if k - 1 < exec_slots {
                for (j, task) in w.tasks.iter().enumerate() {
                    if let Some(v) = e[j][k - 1] {
                        cap += v * task.copy_out.as_f64();
                    }
                    if let Some(v) = le[j][k - 1] {
                        cap += v * task.copy_out.as_f64();
                    }
                }
            }
            p.constrain_named(Some(format!("C11_{k}")), dout[k] - cap, Cmp::Le, 0.0);
        }
        // Constraint 12: the first interval may copy out a pre-window task.
        p.constrain_named(
            Some("C12_dout0".to_string()),
            LinExpr::from(dout[0]),
            Cmp::Le,
            w.max_u.as_f64(),
        );

        // --- Constraint 13: Δ_k = max(Δ^cpu_k, Δ^in_k + Δ^out_k) ---------
        // Big-M disjunction with the slot-local cap as M: `Δ_k ≤ cap_k`
        // already holds by the variable bound, so the inactive branch is
        // slack for every feasible point while the LP relaxation stays as
        // tight as the A007 lint can prove. A zero cap pins Δ_k = 0 and
        // needs no disjunction at all (and would otherwise zero out the
        // alpha column).
        for k in 0..n {
            let mk = caps.delta[k] as f64;
            if mk == 0.0 {
                continue;
            }
            // `dcpu_{N−1}` is fixed at `C_i`, so the relaxed a-row only
            // has to absorb the gap above that floor; charging the full
            // slot cap there is exactly what A007 flags as loose.
            let mk_a = if k == n - 1 {
                (caps.delta[k] - w.exec_i.as_ticks()) as f64
            } else {
                mk
            };
            p.constrain_named(
                Some(format!("C13a_{k}")),
                delta[k] - dcpu[k] - alpha[k] * mk_a,
                Cmp::Le,
                0.0,
            );
            p.constrain_named(
                Some(format!("C13b_{k}")),
                delta[k] - din[k] - dout[k] + alpha[k] * mk,
                Cmp::Le,
                mk,
            );
        }

        // --- Symmetry-breaking ordering cuts -----------------------------
        // Two competitor tasks are *interchangeable* when swapping them is
        // an automorphism of the formulation: identical shape, protocol
        // flags and budget, identical cancellation relations against every
        // third task, and (for LS pairs, whose C8 rows reference each
        // other's cancel columns) a symmetric pair-internal relation. Any
        // feasible placement can then be rewritten — reassigning the pooled
        // executions of the pair chronologically, lower index first —
        // without changing any interval length, so forcing the prefix sums
        // of the lower-indexed task to dominate cuts the mirrored half of
        // the branch tree without cutting the optimum.
        let interchangeable = |a: usize, b: usize| -> bool {
            let (ta, tb) = (&w.tasks[a], &w.tasks[b]);
            ta.exec == tb.exec
                && ta.copy_in == tb.copy_in
                && ta.copy_out == tb.copy_out
                && ta.ls == tb.ls
                && ta.hp == tb.hp
                && ta.budget == tb.budget
                && w.cancel_triggerable(a) == w.cancel_triggerable(b)
                && (!ta.ls || w.cancellation_enables(a, b) == w.cancellation_enables(b, a))
                && (0..m).filter(|&v| v != a && v != b).all(|v| {
                    w.cancellation_enables(v, a) == w.cancellation_enables(v, b)
                        && w.cancellation_enables(a, v) == w.cancellation_enables(b, v)
                })
        };
        for j2 in 1..m {
            // One cut chain per adjacent pair is enough: dominance is
            // transitive along a run of interchangeable tasks.
            let j = j2 - 1;
            if !interchangeable(j, j2) {
                continue;
            }
            let mut prefix = LinExpr::zero();
            for (kk, cut) in (0..exec_slots).map(|kk| (kk, format!("SYM_{j}_{j2}_{kk}"))) {
                for (hi, lo) in [(e[j][kk], e[j2][kk]), (le[j][kk], le[j2][kk])] {
                    if let Some(v) = hi {
                        prefix += v * 1.0;
                    }
                    if let Some(v) = lo {
                        prefix += v * -1.0;
                    }
                }
                p.constrain_named(Some(cut), prefix.clone(), Cmp::Ge, 0.0);
            }
        }

        // --- Objective (Eq. 1, without the constant u_i) -------------------
        let mut obj = LinExpr::zero();
        for &d in &delta {
            obj += LinExpr::from(d);
        }
        p.set_objective(obj);

        Formulation {
            problem: p,
            delay_cap: caps.delay_cap_ticks() as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcs_core::window::{test_task, WindowCase};
    use pmcs_model::{TaskId, TaskSet};

    fn window(tasks: Vec<pmcs_model::Task>, id: u32, case: WindowCase, t: i64) -> WindowModel {
        let set = TaskSet::new(tasks).unwrap();
        WindowModel::build(&set, TaskId(id), case, Time::from_ticks(t)).unwrap()
    }

    fn milp_delay(w: &WindowModel) -> i64 {
        let b = MilpEngine::default().max_total_delay(w).unwrap();
        assert!(b.exact);
        b.delay.as_ticks()
    }

    #[test]
    fn singleton_matches_engine_hand_calculation() {
        let w = window(
            vec![test_task(0, 10, 3, 2, 100, 0, false)],
            0,
            WindowCase::Nls,
            3,
        );
        assert_eq!(milp_delay(&w), 15);
    }

    #[test]
    fn lp_blocking_example_matches_engine() {
        let w = window(
            vec![
                test_task(0, 10, 1, 1, 10_000, 0, false),
                test_task(1, 500, 1, 1, 10_000, 1, false),
            ],
            0,
            WindowCase::Nls,
            12,
        );
        // Matches the exact engine: 2 (standalone copy-in interval of the
        // lp job) + 500 (its execution interval) + 10 (τ_i's execution).
        assert_eq!(milp_delay(&w), 512);
    }

    #[test]
    fn ls_case_a_example_matches_engine() {
        let w = window(
            vec![
                test_task(0, 10, 1, 1, 10_000, 0, true),
                test_task(1, 500, 1, 1, 10_000, 1, false),
            ],
            0,
            WindowCase::LsCaseA,
            12,
        );
        assert_eq!(milp_delay(&w), 510);
    }

    #[test]
    fn effort_gate_returns_the_deterministic_cap() {
        let w = window(
            vec![
                test_task(0, 10, 1, 1, 10_000, 0, false),
                test_task(1, 500, 1, 1, 10_000, 1, false),
            ],
            0,
            WindowCase::Nls,
            12,
        );
        // A zero budget gates every window; the bound is computed from the
        // formulation, not a search.
        let gated = MilpEngine::new()
            .with_bin_budget(Some(0))
            .max_total_delay(&w)
            .unwrap();
        assert!(!gated.exact && gated.nodes == 0);
        // The cap dominates the true optimum (515 here): it is a safe,
        // conservative over-approximation, never an underestimate.
        let full = MilpEngine::default().max_total_delay(&w).unwrap();
        assert!(full.exact);
        assert!(gated.delay >= full.delay);
        // An ample budget never gates.
        let ungated = MilpEngine::new()
            .with_bin_budget(Some(10_000))
            .max_total_delay(&w)
            .unwrap();
        assert_eq!(ungated.delay, full.delay);
        assert!(ungated.exact);
    }

    #[test]
    fn solver_failures_are_audit_failures() {
        let err = solver_error(MilpError::Infeasible);
        assert!(
            matches!(
                err,
                CoreError::AuditFailed {
                    check: "milp-solver",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn problem_size_scales_with_intervals() {
        let w = window(
            vec![
                test_task(0, 10, 2, 2, 100, 0, false),
                test_task(1, 20, 4, 4, 200, 1, false),
            ],
            1,
            WindowCase::Nls,
            150,
        );
        let p = MilpEngine::default().build_problem(&w);
        assert!(p.num_vars() > 4 * w.n());
        assert!(p.num_constraints() >= 2 * w.n());
    }

    #[test]
    fn urgent_blocking_is_representable() {
        // The urgent-execution gadget: LS hp task with big copy-in.
        let w = window(
            vec![
                test_task(0, 10, 50, 1, 100_000, 0, true),
                test_task(1, 10, 1, 1, 100_000, 1, false),
                test_task(2, 10, 1, 1, 100_000, 2, false),
            ],
            2,
            WindowCase::Nls,
            5,
        );
        let d = milp_delay(&w);
        assert!(d >= 60, "MILP bound {d} must cover urgent CPU demand 60");
    }
}
