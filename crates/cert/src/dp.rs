//! Independent verification of window-level delay claims.
//!
//! Re-implements — from the paper's rules R1–R6 and Constraints 1–15,
//! not from the production engine — the semantics of interval lengths
//! for a fixed placement, and uses it three ways:
//!
//! * [`replay_witness`] evaluates a concrete placement witness, giving a
//!   *lower* bound on the true optimum;
//! * [`verify_dp_table`] re-derives every Bellman equation of the
//!   producing DP's memo table over the dominance-pruned choice sets,
//!   establishing the claim as an *upper* bound;
//! * [`safe_cap`] recomputes the closed-form cap used by the inexact
//!   fallback path.
//!
//! All sums are evaluated in `i128`, so no intermediate can wrap even
//! for adversarial tick values near `i64::MAX`.
//!
//! Every error string starts with a stable machine-readable code
//! (`dp.bellman-mismatch`, `witness.budget`, …) followed by `": "` and a
//! human-readable detail.

use std::collections::HashMap;

use crate::types::{CertCase, CertChoice, CertWindow, DpEntry};

/// Hard cap on DP-table sizes the checker will process (mirrors the
/// production engine's default memo budget).
pub const MAX_TABLE_ENTRIES: usize = 4_000_000;

/// Hard cap on window-task counts (far above anything the workloads
/// produce; bounds checker work on adversarial input).
const MAX_TASKS: usize = 256;

/// Hard cap on interval counts (bounds checker work on adversarial
/// input).
const MAX_INTERVALS: u64 = 1 << 20;

/// Derived per-window semantics: the checker's own re-derivation of
/// every quantity the engine precomputes, straight from the window
/// content.
#[derive(Debug)]
pub struct WindowSem {
    n: usize,
    m: usize,
    exec: Vec<i128>,
    cin: Vec<i128>,
    cout: Vec<i128>,
    /// LS flags after the inertness canonicalization (a marked task with
    /// zero copy-in and no cancellation victim behaves exactly as NLS).
    ls: Vec<bool>,
    hp: Vec<bool>,
    budget: Vec<u64>,
    max_cancel_hp: i128,
    max_cancel_i0: i128,
    max_lower_hp: Vec<Option<i128>>,
    max_lower_i0: Vec<Option<i128>>,
    max_l: i128,
    max_u: i128,
    l_i: i128,
    c_i: i128,
    last_lp_exec: usize,
    /// Nearest lower-indexed task of the same interchangeability class
    /// (identical shape and protocol flags; for LS tasks also identical
    /// cancellation-victim maxima). Mirrors the engine's symmetry
    /// breaking: a task is only placeable once every lower-indexed
    /// classmate's budget is exhausted.
    class_prev: Vec<Option<usize>>,
}

impl WindowSem {
    /// Derives the semantics of a window, validating its shape.
    ///
    /// # Errors
    ///
    /// `window.malformed` for negative phase durations,
    /// `window.too-large` for sizes beyond the checker's caps.
    pub fn new(w: &CertWindow) -> Result<WindowSem, String> {
        if w.n_intervals > MAX_INTERVALS {
            return Err(format!(
                "window.too-large: {} intervals exceeds the checker cap {MAX_INTERVALS}",
                w.n_intervals
            ));
        }
        if w.tasks.len() > MAX_TASKS {
            return Err(format!(
                "window.too-large: {} tasks exceeds the checker cap {MAX_TASKS}",
                w.tasks.len()
            ));
        }
        let neg = |v: i64| v < 0;
        if neg(w.exec_i) || neg(w.copy_in_i) || neg(w.copy_out_i) || neg(w.max_l) || neg(w.max_u) {
            return Err("window.malformed: negative phase duration for τ_i".to_string());
        }
        let m = w.tasks.len();
        let n = w.n_intervals as usize;
        let mut sem = WindowSem {
            n,
            m,
            exec: Vec::with_capacity(m),
            cin: Vec::with_capacity(m),
            cout: Vec::with_capacity(m),
            ls: Vec::with_capacity(m),
            hp: Vec::with_capacity(m),
            budget: Vec::with_capacity(m),
            max_cancel_hp: 0,
            max_cancel_i0: 0,
            max_lower_hp: vec![None; m],
            max_lower_i0: vec![None; m],
            max_l: i128::from(w.max_l),
            max_u: i128::from(w.max_u),
            l_i: i128::from(w.copy_in_i),
            c_i: i128::from(w.exec_i),
            last_lp_exec: match w.case {
                CertCase::Nls => 1,
                CertCase::LsCaseA => 0,
            },
            class_prev: Vec::with_capacity(m),
        };
        for t in &w.tasks {
            if neg(t.exec) || neg(t.copy_in) || neg(t.copy_out) {
                return Err("window.malformed: negative phase duration".to_string());
            }
            sem.exec.push(i128::from(t.exec));
            sem.cin.push(i128::from(t.copy_in));
            sem.cout.push(i128::from(t.copy_out));
            sem.ls.push(t.ls);
            sem.hp.push(t.hp);
            sem.budget.push(t.budget);
        }

        // Rule R3: a copy-in of `victim` can only be canceled by the
        // release of a *higher-priority LS task* — one of the window's LS
        // tasks or, in case (a), τ_i itself. Computed over the window's
        // *recorded* LS flags (the canonicalization below only concerns
        // marked tasks' own urgent states, mirroring the engine's order
        // of operations).
        let triggerable = |victim: usize| -> bool {
            let vp = w.tasks[victim].priority;
            if matches!(w.case, CertCase::LsCaseA) && w.priority_i < vp {
                return true;
            }
            w.tasks.iter().any(|t| t.ls && t.priority < vp)
        };
        sem.max_cancel_hp = (0..m)
            .filter(|&j| sem.hp[j] && triggerable(j))
            .map(|j| sem.cin[j])
            .max()
            .unwrap_or(0);
        sem.max_cancel_i0 = (0..m)
            .filter(|&j| triggerable(j))
            .map(|j| sem.cin[j])
            .max()
            .unwrap_or(0);

        // Constraint 8: an urgent execution of `j` requires canceling the
        // copy-in of a strictly lower-priority task.
        for j in 0..m {
            for k in 0..m {
                if k == j || w.tasks[j].priority >= w.tasks[k].priority {
                    continue;
                }
                if sem.hp[k] {
                    sem.max_lower_hp[j] = Some(sem.max_lower_hp[j].unwrap_or(0).max(sem.cin[k]));
                }
                sem.max_lower_i0[j] = Some(sem.max_lower_i0[j].unwrap_or(0).max(sem.cin[k]));
            }
        }

        // Inertness canonicalization: an LS marking that can never be
        // exercised (zero copy-in, no victim) is dropped.
        for j in 0..m {
            if sem.ls[j] && sem.cin[j] == 0 && sem.max_lower_i0[j].is_none() {
                sem.ls[j] = false;
            }
        }

        // Interchangeability classes, computed after the inertness pass so
        // demoted tasks can join NLS classes (mirroring the engine).
        for j in 0..m {
            let prev = (0..j).rev().find(|&p| {
                sem.exec[p] == sem.exec[j]
                    && sem.cin[p] == sem.cin[j]
                    && sem.cout[p] == sem.cout[j]
                    && sem.hp[p] == sem.hp[j]
                    && sem.ls[p] == sem.ls[j]
                    && (!sem.ls[j]
                        || (sem.max_lower_hp[p] == sem.max_lower_hp[j]
                            && sem.max_lower_i0[p] == sem.max_lower_i0[j]))
            });
            sem.class_prev.push(prev);
        }
        Ok(sem)
    }

    /// Closed-form value for degenerate windows with fewer than two
    /// intervals.
    pub fn small_value(&self) -> i128 {
        self.c_i.max(self.max_l + self.max_u)
    }

    /// Number of intervals `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of window tasks.
    pub fn num_tasks(&self) -> usize {
        self.m
    }

    fn cpu(&self, c: CertChoice) -> i128 {
        match c {
            CertChoice::Idle => 0,
            CertChoice::Run { task, urgent } => {
                if urgent {
                    self.cin[task] + self.exec[task]
                } else {
                    self.exec[task]
                }
            }
        }
    }

    fn out_of(&self, c: CertChoice) -> i128 {
        match c {
            CertChoice::Idle => 0,
            CertChoice::Run { task, .. } => self.cout[task],
        }
    }

    /// Copy-out of interval `k`: the copy-out of the task executed in
    /// `I_{k-1}`; `max_u` at the window boundary (Constraint 12).
    fn out_at(&self, k: usize, before: CertChoice) -> i128 {
        if k == 0 {
            self.max_u
        } else {
            self.out_of(before)
        }
    }

    /// Best free cancellation (no urgent execution following) in `slot`;
    /// lower-priority victims only in `I_0` (Constraint 3).
    fn free_cancel(&self, slot: usize) -> i128 {
        if slot == 0 {
            self.max_cancel_i0
        } else {
            self.max_cancel_hp
        }
    }

    /// Mandatory cancellation enabling an urgent execution of `task`
    /// (Constraint 8); `None` if no lower-priority victim exists.
    fn urgent_cancel(&self, slot: usize, task: usize) -> Option<i128> {
        if slot == 0 {
            self.max_lower_i0[task]
        } else {
            self.max_lower_hp[task]
        }
    }

    /// DMA copy-in time of slot `k` given the next slot's choice; `None`
    /// when the combination is infeasible.
    fn in_at(&self, k: usize, next: CertChoice) -> Option<i128> {
        match next {
            CertChoice::Run {
                task,
                urgent: false,
            } => Some(self.cin[task]),
            CertChoice::Run { task, urgent: true } => self.urgent_cancel(k, task),
            CertChoice::Idle => Some(self.free_cancel(k)),
        }
    }

    /// Placement legality of running `task` in slot `k` (Constraints 3,
    /// 4, 8, 14).
    fn placement_ok(&self, k: usize, task: usize, urgent: bool) -> bool {
        if !self.hp[task] && k > self.last_lp_exec {
            return false;
        }
        if urgent && !self.ls[task] {
            return false;
        }
        if urgent && k > 0 && self.urgent_cancel(k - 1, task).is_none() {
            return false;
        }
        true
    }

    /// Contribution of `Δ_{k-1}` once slot `k`'s choice is fixed; `None`
    /// if the choice is infeasible, `0` at the window start.
    fn score(
        &self,
        k: usize,
        prev: CertChoice,
        prev2: CertChoice,
        cand: CertChoice,
    ) -> Option<i128> {
        if k == 0 {
            return Some(0);
        }
        let input = self.in_at(k - 1, cand)?;
        Some(self.cpu(prev).max(input + self.out_at(k - 1, prev2)))
    }

    /// `Δ_{N-2} + Δ_{N-1}` given the choices of slots `N−2` (`prev`) and
    /// `N−3` (`prev2`): τ_i's copy-in rides `I_{N-2}`'s DMA, τ_i executes
    /// in `I_{N-1}` (Constraints 12, 15).
    fn terminal(&self, prev: CertChoice, prev2: CertChoice) -> i128 {
        let d_nm2 = self
            .cpu(prev)
            .max(self.l_i + self.out_at(self.n - 2, prev2));
        let d_nm1 = self.c_i.max(self.max_l + self.out_of(prev));
        d_nm2 + d_nm1
    }

    /// Canonical form of a remaining-budget vector at slot `k1` — the
    /// engine's memo coordinate. Two reductions merge states with
    /// provably equal suffix optima: lower-priority budgets evaporate
    /// once their placement region is past (Constraints 3/14), and every
    /// budget is capped by the number of placements that can still
    /// happen. Both reductions commute with the DP transition, so
    /// canonicalizing the decremented parent vector reproduces the
    /// engine's child key.
    fn canon_budgets(&self, b: &[u64], k1: usize) -> Vec<u64> {
        (0..self.m)
            .map(|j| {
                if !self.hp[j] && k1 > self.last_lp_exec {
                    0
                } else {
                    b[j].min((self.n - 1 - k1) as u64)
                }
            })
            .collect()
    }

    /// Symmetry-breaking admission (mirrors the engine): within an
    /// interchangeability class, jobs are consumed in canonical index
    /// order, so a task is blocked while a lower-indexed classmate still
    /// has budget.
    fn class_blocked(&self, task: usize, budgets: &[u64]) -> bool {
        self.class_prev[task].is_some_and(|p| budgets[p] > 0)
    }
}

/// Validates a [`CertChoice`] against the window's task count.
fn check_choice(sem: &WindowSem, c: CertChoice, what: &str) -> Result<(), String> {
    if let CertChoice::Run { task, .. } = c {
        if task >= sem.m {
            return Err(format!(
                "{what}: task index {task} out of range (window has {} tasks)",
                sem.m
            ));
        }
    }
    Ok(())
}

/// Replays a placement witness, checking the legality of every choice,
/// and returns its total interference — a machine-checked *lower* bound
/// on the window's true optimum.
///
/// # Errors
///
/// `witness.length`, `witness.task-range`, `witness.budget`,
/// `witness.placement`, `witness.infeasible` — each naming the offending
/// slot.
pub fn replay_witness(sem: &WindowSem, witness: &[CertChoice]) -> Result<i128, String> {
    if sem.n < 2 {
        return Err("witness.length: degenerate window needs no witness".to_string());
    }
    if witness.len() != sem.n - 1 {
        return Err(format!(
            "witness.length: {} choices for {} slots",
            witness.len(),
            sem.n - 1
        ));
    }
    let mut budget = sem.budget.clone();
    let mut total: i128 = 0;
    let at = |k: usize| -> CertChoice {
        // Choices before the window start are idle by convention.
        if k < witness.len() {
            witness[k]
        } else {
            CertChoice::Idle
        }
    };
    for (k, &cand) in witness.iter().enumerate() {
        check_choice(sem, cand, "witness.task-range")?;
        if let CertChoice::Run { task, urgent } = cand {
            if budget[task] == 0 {
                return Err(format!(
                    "witness.budget: slot {k} runs task {task} beyond its job budget"
                ));
            }
            if !sem.placement_ok(k, task, urgent) {
                return Err(format!(
                    "witness.placement: slot {k} placement of task {task} (urgent={urgent}) \
                     violates the placement constraints"
                ));
            }
            budget[task] -= 1;
        }
        let prev = if k >= 1 { at(k - 1) } else { CertChoice::Idle };
        let prev2 = if k >= 2 { at(k - 2) } else { CertChoice::Idle };
        let d = sem
            .score(k, prev, prev2, cand)
            .ok_or_else(|| format!("witness.infeasible: slot {k} has no feasible DMA copy-in"))?;
        total += d;
    }
    let prev = witness[sem.n - 2];
    let prev2 = if sem.n >= 3 {
        witness[sem.n - 3]
    } else {
        CertChoice::Idle
    };
    Ok(total + sem.terminal(prev, prev2))
}

type StateKey = (u64, Vec<u64>);

/// The four max-plus terms of a table entry ([`DpEntry::terms`]).
type Terms = [i128; 4];

/// Re-derives every Bellman equation of a producing DP memo table and
/// checks that the root state's value equals the claim.
///
/// **The state and its value.** Entries are keyed by slot and canonical
/// budgets `(k, b)` alone. The legal choice set at slot `k` — budgets,
/// placement constraints, the symmetry order and the idle gate — depends
/// on nothing else; the two previous choices only enter `Δ_{k−1} =
/// max(p, in_c + o2)`, where `p` is the CPU demand of slot `k−1`'s choice,
/// `o1` its copy-out, `o2` the copy-out of `I_{k−1}` (slot `k−2`'s
/// copy-out, or `max_u` when `k−1 = 0`), and `in_c` the copy-in `I_{k−1}`
/// carries when slot `k` takes `c` (0 at `k = 0`, which has no `Δ_{−1}`).
/// An entry stores four terms `X` such that the suffix optimum from the
/// state is
///
/// ```text
/// V(k, b; p, o1, o2) = max(p + X1, p + o1 + X2, o2 + X3, o1 + o2 + X4).
/// ```
///
/// **The recurrence.** With `Y = X(k+1, b−c)` for each legal `c`,
/// `P_c = cpu_c + max(Y1, out_c + Y2)` and `Q_c = max(Y3, out_c + Y4)`:
///
/// ```text
/// X(k, b) = (max_c P_c, max_c Q_c, max_c (in_c + P_c), max_c (in_c + Q_c))
/// X(N−1)  = (C_i, max_l, l_i + C_i, l_i + max_l)
/// ```
///
/// and the window optimum is `max(X1(0), max_u + X2(0))`.
///
/// **Proof of the identity.** By induction on decreasing `k`. At the
/// terminal, `max(p, l_i + o2) + max(C_i, max_l + o1)` = `Δ_{N−2} +
/// Δ_{N−1}` distributes into exactly the four terms of `X(N−1)`. For
/// `k < N−1`, the suffix optimum is `max_c [max(p, in_c + o2) + V(k+1,
/// b−c; cpu_c, out_c, o1)]`: slot `k`'s choice `c` becomes the next
/// predecessor, and `I_k` copies out `o1` (the copy-out of slot `k−1`'s
/// choice, as `k ≥ 1`). Since `+` distributes over `max`, each bracket
/// equals `max(p + P_c, p + o1 + Q_c, o2 + in_c + P_c, o1 + o2 + in_c +
/// Q_c)`, and exchanging the two maxima gives `V(k, b; p, o1, o2)` with
/// the `X(k, b)` above. At the root, slot 0 contributes no `Δ_{−1}` and
/// slot 1 sees `o2 = max_u`, so the optimum is `max_c max(P_c, max_u +
/// Q_c)` = `max(X1(0), max_u + X2(0))`.
///
/// **Soundness of the check.** By induction on decreasing slot index,
/// every table entry whose equation verifies holds the *true* terms of
/// its state — entries at slot `N−2` are checked against the closed-form
/// terminal terms only, and each earlier entry against already-forced
/// child entries (a missing child is an immediate rejection). The root
/// `(0, full budgets)` therefore holds the true terms, and the optimum
/// they give must equal the claimed bound.
///
/// # Errors
///
/// `dp.table-too-large`, `dp.malformed-entry`, `dp.duplicate-state`,
/// `dp.missing-state`, `dp.bellman-mismatch`, `dp.root-mismatch`.
pub fn verify_dp_table(sem: &WindowSem, entries: &[DpEntry], claimed: i128) -> Result<(), String> {
    if sem.n < 2 {
        return Err("dp.malformed-entry: degenerate window needs no DP table".to_string());
    }
    if entries.len() > MAX_TABLE_ENTRIES {
        return Err(format!(
            "dp.table-too-large: {} entries exceeds the checker cap {MAX_TABLE_ENTRIES}",
            entries.len()
        ));
    }
    let mut table: HashMap<StateKey, Terms> = HashMap::with_capacity(entries.len());
    for e in entries {
        if e.budgets.len() != sem.m {
            return Err(format!(
                "dp.malformed-entry: entry at slot {} has {} budgets for {} tasks",
                e.k,
                e.budgets.len(),
                sem.m
            ));
        }
        if e.k as usize >= sem.n - 1 {
            return Err(format!(
                "dp.malformed-entry: slot {} is terminal in an {}-interval window",
                e.k, sem.n
            ));
        }
        if table
            .insert((e.k, e.budgets.clone()), e.terms.map(i128::from))
            .is_some()
        {
            return Err(format!(
                "dp.duplicate-state: slot {} state recorded twice",
                e.k
            ));
        }
    }

    let terminal: Terms = [sem.c_i, sem.max_l, sem.l_i + sem.c_i, sem.l_i + sem.max_l];
    // Terms of a child state: closed-form terminal at slot N−1, table
    // entry (under the canonical budget key) otherwise.
    let child_terms = |k1: usize, budgets: &[u64]| -> Result<Terms, String> {
        if k1 == sem.n - 1 {
            return Ok(terminal);
        }
        table
            .get(&(k1 as u64, sem.canon_budgets(budgets, k1)))
            .copied()
            .ok_or_else(|| {
                format!("dp.missing-state: slot {k1} successor state absent from the table")
            })
    };
    // Folds choice `c` with copy-in `input` and child terms `y` into `x`.
    let fold = |x: &mut Option<Terms>, c: CertChoice, input: i128, y: Terms| {
        let p = sem.cpu(c) + y[0].max(sem.out_of(c) + y[1]);
        let q = y[2].max(sem.out_of(c) + y[3]);
        let t = [p, q, input + p, input + q];
        *x = Some(x.map_or(t, |x| std::array::from_fn(|i| x[i].max(t[i]))));
    };
    // The copy-in `I_{k−1}` carries when slot `k` takes `c`; 0 at the
    // window start, `None` when infeasible.
    let input = |k: usize, c: CertChoice| {
        if k == 0 {
            Some(0)
        } else {
            sem.in_at(k - 1, c)
        }
    };

    for e in entries {
        let k = e.k as usize;
        let mut x: Option<Terms> = None;
        let mut any_candidate = false;
        let mut budgets = e.budgets.clone();
        for task in 0..sem.m {
            if budgets[task] == 0 {
                continue;
            }
            for urgent in [false, true] {
                if urgent && !sem.ls[task] {
                    continue;
                }
                if !sem.placement_ok(k, task, urgent) {
                    continue;
                }
                if sem.class_blocked(task, &budgets) {
                    continue;
                }
                let cand = CertChoice::Run { task, urgent };
                let Some(input) = input(k, cand) else {
                    continue;
                };
                any_candidate = true;
                budgets[task] -= 1;
                let y = child_terms(k + 1, &budgets)?;
                budgets[task] += 1;
                fold(&mut x, cand, input, y);
            }
        }
        // The engine explores idling only when it is not dominated by
        // placing a job: a free cancellation can charge the preceding
        // DMA slot, or the window has more slots left than *spendable*
        // jobs (lower-priority budgets stop counting past their
        // placement region). The checker re-derives the same gate, so a
        // table produced under a *different* (unsound) dominance rule
        // fails the equation.
        let idle_useful = k >= 1 && sem.free_cancel(k - 1) > 0;
        let usable: u64 = (0..sem.m)
            .filter(|&j| sem.hp[j] || k <= sem.last_lp_exec)
            .map(|j| budgets[j])
            .sum();
        let surplus_slot = (sem.n - 1 - k) as u64 > usable;
        if !any_candidate || idle_useful || surplus_slot {
            if let Some(input) = input(k, CertChoice::Idle) {
                fold(
                    &mut x,
                    CertChoice::Idle,
                    input,
                    child_terms(k + 1, &budgets)?,
                );
            }
        }
        let x = x.ok_or_else(|| {
            format!("dp.bellman-mismatch: slot {k} state has no legal choice at all")
        })?;
        if x != e.terms.map(i128::from) {
            return Err(format!(
                "dp.bellman-mismatch: slot {k} state claims terms {:?} but the choice set \
                 yields {x:?}",
                e.terms
            ));
        }
    }

    let root = (0u64, sem.canon_budgets(&sem.budget, 0));
    let root_terms = table
        .get(&root)
        .copied()
        .ok_or_else(|| "dp.missing-state: root state (slot 0, full budgets) absent".to_string())?;
    let root_value = root_terms[0].max(sem.max_u + root_terms[1]);
    if root_value != claimed {
        return Err(format!(
            "dp.root-mismatch: root proves {root_value} but the certificate claims {claimed}"
        ));
    }
    Ok(())
}

/// Recomputes the closed-form safe cap the engine falls back to on
/// search-budget exhaustion: the tighter of a per-slot cap and a
/// decoupled CPU/DMA sum.
pub fn safe_cap(sem: &WindowSem) -> i128 {
    let max_demand = (0..sem.m)
        .map(|j| {
            if sem.ls[j] {
                sem.cin[j] + sem.exec[j]
            } else {
                sem.exec[j]
            }
        })
        .max()
        .unwrap_or(0);
    let slot_cap = max_demand.max(sem.max_l + sem.max_u);
    let last2_cap = max_demand.max(sem.l_i + sem.max_u) + sem.c_i.max(sem.max_l + sem.max_u);
    let per_slot = slot_cap * (sem.n as i128 - 2).max(0) + last2_cap;

    let total_jobs: u64 = sem.budget.iter().sum();
    let slots = sem.n as i128 - 1;
    let mut cpu_sum: i128 = 0;
    let mut dma_sum: i128 = 0;
    for j in 0..sem.m {
        let b = i128::from(sem.budget[j]);
        cpu_sum += b * if sem.ls[j] {
            sem.cin[j] + sem.exec[j]
        } else {
            sem.exec[j]
        };
        dma_sum += b * (sem.cin[j] + sem.cout[j]);
    }
    let ls_jobs: i128 = (0..sem.m)
        .filter(|&j| sem.ls[j])
        .map(|j| i128::from(sem.budget[j]))
        .sum();
    let free_slots = (slots - i128::from(total_jobs)).max(0) + ls_jobs;
    let cancel_extra = free_slots * sem.max_cancel_i0;
    let decoupled = cpu_sum + sem.c_i + dma_sum + cancel_extra + sem.l_i + sem.max_l + sem.max_u;

    per_slot.min(decoupled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::CertWindowTask;

    fn empty_window() -> CertWindow {
        // One task alone: N = 2 (copy-in interval, then execution).
        CertWindow {
            case: CertCase::Nls,
            n_intervals: 2,
            tasks: vec![],
            exec_i: 10,
            copy_in_i: 3,
            copy_out_i: 2,
            priority_i: 0,
            max_l: 3,
            max_u: 2,
        }
    }

    fn lp_blocking_window() -> CertWindow {
        // One lp competitor with a huge execution: N = 3, blocking fills
        // I_0 (standalone copy-in) and I_1 (execution).
        CertWindow {
            case: CertCase::Nls,
            n_intervals: 3,
            tasks: vec![CertWindowTask {
                exec: 500,
                copy_in: 1,
                copy_out: 1,
                ls: false,
                hp: false,
                priority: 1,
                budget: 1,
            }],
            exec_i: 10,
            copy_in_i: 1,
            copy_out_i: 1,
            priority_i: 0,
            max_l: 1,
            max_u: 1,
        }
    }

    fn run(task: usize) -> CertChoice {
        CertChoice::Run {
            task,
            urgent: false,
        }
    }

    #[test]
    fn witness_replays_empty_window() {
        let sem = WindowSem::new(&empty_window()).expect("valid window");
        // Δ_0 = max(0, l_i + max_u) = 5; Δ_1 = max(10, max_l) = 10.
        assert_eq!(
            replay_witness(&sem, &[CertChoice::Idle]).expect("legal witness"),
            15
        );
        assert!(replay_witness(&sem, &[]).is_err());
    }

    #[test]
    fn witness_replays_lp_blocking() {
        let sem = WindowSem::new(&lp_blocking_window()).expect("valid window");
        // Slot 0 idle (standalone copy-in of the blocker), slot 1 runs it:
        // Δ_0 = l_lp + max_u = 2; Δ_1 = C_lp = 500; Δ_2 = 10. Total 512.
        let total = replay_witness(&sem, &[CertChoice::Idle, run(0)]).expect("legal witness");
        assert_eq!(total, 512);
        // Running it in slot 0 instead pairs differently but peaks the
        // same here.
        let total2 = replay_witness(&sem, &[run(0), CertChoice::Idle]).expect("legal witness");
        assert_eq!(total2, 512);
    }

    #[test]
    fn witness_rejects_illegal_placements() {
        let sem = WindowSem::new(&lp_blocking_window()).expect("valid window");
        // Budget overrun.
        let err = replay_witness(&sem, &[run(0), run(0)]).expect_err("budget overrun");
        assert!(err.starts_with("witness.budget"), "{err}");
        // Task index out of range.
        let err = replay_witness(&sem, &[run(7), CertChoice::Idle]).expect_err("range");
        assert!(err.starts_with("witness.task-range"), "{err}");
        // Urgent execution of an NLS task.
        let err = replay_witness(
            &sem,
            &[
                CertChoice::Run {
                    task: 0,
                    urgent: true,
                },
                CertChoice::Idle,
            ],
        )
        .expect_err("urgent NLS");
        assert!(err.starts_with("witness.placement"), "{err}");
    }

    #[test]
    fn lp_stranded_past_exec_region() {
        // An lp placement after `last_lp_exec` must be rejected.
        let mut w = lp_blocking_window();
        w.n_intervals = 4;
        let sem = WindowSem::new(&w).expect("valid window");
        let err = replay_witness(&sem, &[CertChoice::Idle, CertChoice::Idle, run(0)])
            .expect_err("stranded lp");
        assert!(err.starts_with("witness.placement"), "{err}");
    }

    #[test]
    fn dp_table_verifies_empty_window() {
        let sem = WindowSem::new(&empty_window()).expect("valid window");
        // Slot 0 idles into the terminal terms (10, 3, 13, 6): the root
        // proves max(10, max_u + 13) = 15.
        let root = DpEntry {
            k: 0,
            budgets: vec![],
            terms: [10, 13, 10, 13],
        };
        verify_dp_table(&sem, std::slice::from_ref(&root), 15).expect("table verifies");
        // Wrong claim.
        let err = verify_dp_table(&sem, std::slice::from_ref(&root), 14).expect_err("wrong claim");
        assert!(err.starts_with("dp.root-mismatch"), "{err}");
        // Wrong entry terms: the Bellman equation itself fails.
        let bad = DpEntry {
            terms: [10, 12, 10, 13],
            ..root
        };
        let err = verify_dp_table(&sem, &[bad], 14).expect_err("wrong value");
        assert!(err.starts_with("dp.bellman-mismatch"), "{err}");
        // Empty table: root missing.
        let err = verify_dp_table(&sem, &[], 15).expect_err("missing root");
        assert!(err.starts_with("dp.missing-state"), "{err}");
    }

    #[test]
    fn dp_table_verifies_lp_blocking() {
        let sem = WindowSem::new(&lp_blocking_window()).expect("valid window");
        // Terminal terms (C_i, max_l, l_i + C_i, l_i + max_l) = (10, 1, 11, 2).
        let root = DpEntry {
            k: 0,
            budgets: vec![1],
            terms: [512, 511, 512, 511],
        };
        // Reachable interior states: slot 1 after running the blocker in
        // slot 0 (only idling is left), and slot 1 after idling
        // (surplus-slot gate), where the blocker runs with copy-in 1.
        let after_run = DpEntry {
            k: 1,
            budgets: vec![0],
            terms: [10, 11, 10, 11],
        };
        let after_idle = DpEntry {
            k: 1,
            budgets: vec![1],
            terms: [510, 11, 511, 12],
        };
        let table = vec![root, after_run.clone(), after_idle];
        verify_dp_table(&sem, &table, 512).expect("table verifies");
        // Dropping a reachable successor is rejected.
        let truncated = vec![table[0].clone(), after_run];
        let err = verify_dp_table(&sem, &truncated, 512).expect_err("missing state");
        assert!(err.starts_with("dp.missing-state"), "{err}");
        // Duplicate state.
        let dup = vec![table[0].clone(), table[0].clone()];
        let err = verify_dp_table(&sem, &dup, 512).expect_err("duplicate");
        assert!(err.starts_with("dp.duplicate-state"), "{err}");
    }

    #[test]
    fn safe_cap_dominates_exact_values() {
        for w in [empty_window(), lp_blocking_window()] {
            let sem = WindowSem::new(&w).expect("valid window");
            let cap = safe_cap(&sem);
            // The caps must dominate the hand-computed exact optima.
            let exact = if w.tasks.is_empty() { 15 } else { 512 };
            assert!(cap >= exact, "cap {cap} < exact {exact}");
        }
    }

    #[test]
    fn canonicalization_drops_inert_ls() {
        let mut w = lp_blocking_window();
        // Mark the blocker LS with zero copy-in and no victim below it:
        // the flag must be dropped, so an urgent placement stays illegal.
        w.tasks[0].ls = true;
        w.tasks[0].copy_in = 0;
        w.max_l = 1;
        let sem = WindowSem::new(&w).expect("valid window");
        assert!(!sem.ls[0]);
        // With a victim (τ_i is not a victim; add a second, lower-priority
        // task) the flag survives.
        w.tasks.push(CertWindowTask {
            exec: 5,
            copy_in: 4,
            copy_out: 1,
            ls: false,
            hp: false,
            priority: 2,
            budget: 1,
        });
        let sem2 = WindowSem::new(&w).expect("valid window");
        assert!(sem2.ls[0]);
        assert_eq!(sem2.max_lower_i0[0], Some(4));
    }

    #[test]
    fn malformed_windows_rejected() {
        let mut w = empty_window();
        w.exec_i = -1;
        assert!(WindowSem::new(&w)
            .unwrap_err()
            .starts_with("window.malformed"));
        let mut w2 = empty_window();
        w2.n_intervals = MAX_INTERVALS + 1;
        assert!(WindowSem::new(&w2)
            .unwrap_err()
            .starts_with("window.too-large"));
    }
}
