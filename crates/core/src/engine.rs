//! Specialized exact engine for the delay-maximization problem.
//!
//! The MILP of Section V has a single source of combinatorial freedom: the
//! assignment of task executions (plain or urgent) to scheduling intervals.
//! Everything else follows deterministically —
//!
//! * the DMA copy-in of interval `I_k` is the copy-in of the task executing
//!   in `I_{k+1}` (Constraint 1), or a *canceled* copy-in when that
//!   execution is urgent or absent (Constraints 6, 8), for which a
//!   maximizing adversary always picks the largest eligible `l_j`;
//! * the DMA copy-out of `I_k` is the copy-out of the task executed in
//!   `I_{k-1}` (Constraints 2, 11);
//! * the interval length is `Δ_k = max(Δ^cpu_k, Δ^in_k + Δ^out_k)` (R6).
//!
//! Because `Δ_k` couples only *adjacent* slots, the optimum is computed by
//! **memoized dynamic programming** over states
//! `(slot, remaining job budgets, last two slot decisions)` — each state's
//! suffix value is exact and shared across the exponentially many
//! interleavings that reach it. This solves the same optimization as
//! [`MilpEngine`](crate::MilpEngine) orders of magnitude faster; the
//! equivalence of the two engines is property-tested in
//! `tests/engine_equivalence.rs`.
//!
//! ## Scratch reuse
//!
//! The engine is called millions of times per sweep (one call per
//! fixed-point iteration per task per set). To keep the per-call cost at
//! the DP itself, the engine holds its working memory — the memo table and
//! the per-task vectors — in a reusable [`Scratch`] behind a `RefCell`,
//! clearing instead of reallocating between calls. The memo key is a
//! `u128` packed with *adaptive* field widths, so windows with many tasks
//! or large job budgets still memoize instead of silently degrading to the
//! node-budget backstop (the old fixed 64-bit packing gave up beyond
//! 9 tasks or budgets over 31).

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use pmcs_model::Time;

/// Multiplicative hasher for the dense 128-bit memo keys (the default
/// SipHash costs more than the DP transition itself).
#[derive(Debug, Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0 ^ i).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 ^= self.0 >> 29;
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.write_u64(i as u64);
        self.write_u64((i >> 64) as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type Memo = HashMap<u128, i64, BuildHasherDefault<KeyHasher>>;

use crate::error::CoreError;
use crate::wcrt::{DelayBound, DelayEngine};
use crate::window::WindowModel;

/// One slot decision in the execution sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Choice {
    /// No task executes in the interval (CPU idles, rule R5).
    Idle,
    /// Task `task` executes; `urgent` selects the CPU-copy-in mode (R5).
    Run { task: usize, urgent: bool },
}

impl Choice {
    /// Compact encoding for memo keys: 0 = idle, else `1 + 2·task + urgent`.
    #[inline]
    fn encode(self) -> u128 {
        match self {
            Choice::Idle => 0,
            Choice::Run { task, urgent } => 1 + 2 * task as u128 + u128::from(urgent),
        }
    }

    /// The same encoding as a `u64` (the certificate wire encoding).
    #[inline]
    fn code(self) -> u64 {
        self.encode() as u64
    }
}

/// Reusable per-engine working memory: cleared, never reallocated.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    memo: Memo,
    exec: Vec<i64>,
    cin: Vec<i64>,
    cout: Vec<i64>,
    ls: Vec<bool>,
    hp: Vec<bool>,
    budget: Vec<u64>,
    max_lower_hp: Vec<Option<i64>>,
    max_lower_i0: Vec<Option<i64>>,
    /// Per-task bit width of the budget field in the packed memo key.
    budget_bits: Vec<u32>,
    /// Nearest lower-indexed task of the same interchangeability class
    /// (identical shape and protocol flags), if any. Used for symmetry
    /// breaking: a task is only placeable once every lower-indexed
    /// classmate's budget is exhausted.
    class_prev: Vec<Option<usize>>,
}

impl Scratch {
    fn reset(&mut self, m: usize) {
        self.memo.clear();
        self.exec.clear();
        self.cin.clear();
        self.cout.clear();
        self.ls.clear();
        self.hp.clear();
        self.budget.clear();
        self.max_lower_hp.clear();
        self.max_lower_hp.resize(m, None);
        self.max_lower_i0.clear();
        self.max_lower_i0.resize(m, None);
        self.budget_bits.clear();
        self.class_prev.clear();
    }
}

/// Exact combinatorial engine (default choice for experiments).
///
/// On window sizes produced by the paper's workloads the DP completes in
/// microseconds-to-milliseconds. If the memo budget is ever exhausted the
/// engine returns a coarse but **safe** upper bound and flags the result
/// as inexact.
///
/// The engine owns reusable scratch memory, so it is cheap to call in a
/// tight loop but **not** `Sync`: parallel drivers give each worker its
/// own engine (cloning creates an independent scratch).
#[derive(Debug)]
pub struct ExactEngine {
    max_states: usize,
    scratch: RefCell<Scratch>,
    /// Cumulative search nodes across every solve (reported as `bb_nodes`
    /// in [`ExactEngine::solver_stats`] — the DP's branch points play the
    /// same role as B&B nodes in the MILP pipeline).
    nodes: std::cell::Cell<u64>,
    /// Solves that exhausted a search budget and degraded to the safe
    /// fallback cap (reported as `dp_fallbacks`).
    fallbacks: std::cell::Cell<u64>,
    /// `false` disables the interchangeability classes (differential
    /// testing only); see [`ExactEngine::without_symmetry_breaking`].
    symmetry: bool,
}

/// Prints the budget-exhaustion warning once per process; every further
/// occurrence is only counted in [`SolverStats::dp_fallbacks`]
/// (`pmcs_milp::SolverStats`).
fn warn_fallback_once() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        eprintln!(
            "pmcs-core: an exact-DP solve exhausted its search budget; \
             using the safe fallback cap instead (counted in \
             SolverStats::dp_fallbacks; this warning prints once per \
             process)"
        );
    });
}

/// Default memoization-entry budget of [`ExactEngine`] (the solver
/// limit: roughly bounds per-window memory and time).
pub const DEFAULT_MAX_STATES: usize = 4_000_000;

impl Default for ExactEngine {
    fn default() -> Self {
        ExactEngine::with_max_states(DEFAULT_MAX_STATES)
    }
}

impl Clone for ExactEngine {
    fn clone(&self) -> Self {
        let mut e = ExactEngine::with_max_states(self.max_states);
        e.symmetry = self.symmetry;
        e
    }
}

impl ExactEngine {
    /// Creates an engine with the default state budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an engine with an explicit memoization-entry budget for the
    /// DP (roughly bounds memory and time; a window normally needs a few
    /// thousand states).
    pub fn with_max_states(max_states: usize) -> Self {
        ExactEngine {
            max_states,
            scratch: RefCell::new(Scratch::default()),
            nodes: std::cell::Cell::new(0),
            fallbacks: std::cell::Cell::new(0),
            symmetry: true,
        }
    }

    /// Disables symmetry-aware pruning: every task becomes its own
    /// interchangeability class, so the DP explores all member orderings
    /// of equal-shape tasks and keys its memo on raw per-task budgets.
    /// The optimum is unchanged — this is the *unpruned reference* for
    /// differential tests — but symmetric windows blow up combinatorially,
    /// so production stacks must never use it.
    pub fn without_symmetry_breaking(mut self) -> Self {
        self.symmetry = false;
        self
    }

    /// The memoization-entry budget.
    pub fn max_states(&self) -> usize {
        self.max_states
    }

    /// Cumulative solver effort across every solve so far: the DP search
    /// nodes and budget fallbacks, surfaced in the same
    /// [`SolverStats`](pmcs_milp::SolverStats) shape the MILP engine
    /// reports so engine stacks aggregate uniformly.
    pub fn solver_stats(&self) -> pmcs_milp::SolverStats {
        pmcs_milp::SolverStats {
            bb_nodes: self.nodes.get(),
            dp_fallbacks: self.fallbacks.get(),
            ..pmcs_milp::SolverStats::default()
        }
    }

    /// Solves `w` while recording the full memo table and an optimal
    /// placement witness, for certificate emission. Returns `None` when
    /// the search exceeds its budgets (the caller then emits a safe-cap
    /// certificate instead of an exact one).
    ///
    /// The recording search uses an explicit `(k, prev, prev2, budgets)`
    /// map as its memo (no 128-bit packing limit), bounded by the same
    /// `max_states` entry budget and node backstop as the production DP.
    pub(crate) fn solve_recorded(&self, w: &WindowModel) -> Option<RecordedSolve> {
        let mut scratch = self.scratch.borrow_mut();
        let mut search = Search::new(w, self.max_states, &mut scratch);
        if !self.symmetry {
            search.disable_symmetry();
        }
        if search.n < 2 {
            return Some(RecordedSolve {
                value: search.c_i.max(search.max_l + search.max_u),
                states: Vec::new(),
                witness: Vec::new(),
            });
        }
        if search.hopeless(true) {
            return None;
        }
        let mut rec: RecMemo = HashMap::new();
        let value = search.dp_rec(0, Choice::Idle, Choice::Idle, &mut rec);
        self.nodes.set(self.nodes.get() + search.nodes);
        if search.aborted {
            return None;
        }
        let witness = search.traceback(&rec, value)?;
        // Sorted by key: the memo's hash order differs between runs, and
        // the emitted certificate must not.
        let mut states: Vec<RecordedState> = rec
            .into_iter()
            .map(|((k, prev, prev2, budgets), value)| RecordedState {
                k,
                prev,
                prev2,
                budgets,
                value,
            })
            .collect();
        states.sort_unstable_by(|a, b| {
            (a.k, a.prev, a.prev2, &a.budgets).cmp(&(b.k, b.prev, b.prev2, &b.budgets))
        });
        Some(RecordedSolve {
            value,
            states,
            witness,
        })
    }
}

/// One memoized DP state captured by [`ExactEngine::solve_recorded`].
/// Choices use the stable wire encoding `0 = idle, 1 + 2·task + urgent`.
#[derive(Debug, Clone)]
pub(crate) struct RecordedState {
    pub k: usize,
    pub prev: u64,
    pub prev2: u64,
    pub budgets: Vec<u64>,
    pub value: i64,
}

/// A recorded solve: the exact optimum, every memoized state, and one
/// placement (choice codes for slots `0 … N-2`) attaining the optimum.
#[derive(Debug, Clone)]
pub(crate) struct RecordedSolve {
    pub value: i64,
    pub states: Vec<RecordedState>,
    pub witness: Vec<u64>,
}

type RecMemo = HashMap<(usize, u64, u64, Vec<u64>), i64>;

impl DelayEngine for ExactEngine {
    fn max_total_delay(&self, w: &WindowModel) -> Result<DelayBound, CoreError> {
        let mut scratch = self.scratch.borrow_mut();
        let mut search = Search::new(w, self.max_states, &mut scratch);
        if !self.symmetry {
            search.disable_symmetry();
        }
        let outcome = search.run();
        self.nodes.set(self.nodes.get() + search.nodes);
        match outcome {
            Some(best) => Ok(DelayBound {
                delay: Time::from_ticks(best),
                exact: true,
                nodes: search.nodes,
            }),
            None => {
                self.fallbacks.set(self.fallbacks.get() + 1);
                warn_fallback_once();
                Ok(DelayBound {
                    delay: Time::from_ticks(search.fallback_bound()),
                    exact: false,
                    nodes: search.nodes,
                })
            }
        }
    }
}

/// Minimal bit width of an unsigned value (at least 1).
#[inline]
fn bit_width(v: u64) -> u32 {
    (u64::BITS - v.leading_zeros()).max(1)
}

/// Node-budget backstop for instances too large to memoize.
const NODE_BUDGET: u64 = 100_000_000;

pub(crate) struct Search<'a> {
    /// `N_i(t)`.
    n: usize,
    s: &'a mut Scratch,
    /// Largest copy-in among cancellable hp tasks / among all cancellable
    /// tasks of `I_0` (free cancellations, rule R3 gating included).
    max_cancel_hp: i64,
    max_cancel_i0: i64,
    max_l: i64,
    max_u: i64,
    l_i: i64,
    c_i: i64,
    last_lp_exec: usize,
    /// Total job budget still unplaced (Σ budgets); tracked so the DP can
    /// detect slots that must stay idle (more slots than jobs).
    remaining_budget: u64,
    /// Σ budgets of lower-priority tasks still unplaced. Past the lp
    /// placement region (Constraints 3/14) these jobs can never be spent,
    /// so the idle-slot gate compares slots against
    /// `remaining_budget − remaining_lp` instead.
    remaining_lp: u64,
    max_states: usize,
    nodes: u64,
    aborted: bool,
    /// `false` when the packed key would exceed 128 bits; the DP then runs
    /// unmemoized until the node budget trips.
    key_feasible: bool,
    /// Bit width of the slot-index field of the packed key.
    k_bits: u32,
    /// Bit width of each choice field of the packed key.
    c_bits: u32,
}

impl<'a> Search<'a> {
    fn new(w: &WindowModel, max_states: usize, scratch: &'a mut Scratch) -> Self {
        let m = w.tasks.len();
        scratch.reset(m);
        for t in &w.tasks {
            scratch.exec.push(t.exec.as_ticks());
            scratch.cin.push(t.copy_in.as_ticks());
            scratch.cout.push(t.copy_out.as_ticks());
            scratch.ls.push(t.ls);
            scratch.hp.push(t.hp);
            scratch.budget.push(t.budget);
        }

        let max_cancel_hp = (0..m)
            .filter(|&j| scratch.hp[j] && w.cancel_triggerable(j))
            .map(|j| scratch.cin[j])
            .max()
            .unwrap_or(0);
        let max_cancel_i0 = (0..m)
            .filter(|&j| w.cancel_triggerable(j))
            .map(|j| scratch.cin[j])
            .max()
            .unwrap_or(0);

        for j in 0..m {
            for k in 0..m {
                if k == j || !w.cancellation_enables(k, j) {
                    continue;
                }
                if scratch.hp[k] {
                    scratch.max_lower_hp[j] =
                        Some(scratch.max_lower_hp[j].unwrap_or(0).max(scratch.cin[k]));
                }
                scratch.max_lower_i0[j] =
                    Some(scratch.max_lower_i0[j].unwrap_or(0).max(scratch.cin[k]));
            }
        }

        // A task whose LS marking can never be exercised (zero copy-in and
        // no cancellation victim) behaves exactly like an NLS task; drop
        // the flag so the DP skips its urgent twin states and the fallback
        // bound does not charge phantom cancellations. This mirrors the
        // canonicalization of `cache::WindowKey`.
        for j in 0..m {
            if scratch.ls[j] && scratch.cin[j] == 0 && scratch.max_lower_i0[j].is_none() {
                scratch.ls[j] = false;
            }
        }

        // Interchangeability classes (symmetry breaking). Two tasks whose
        // shapes and protocol flags agree — and, for LS tasks, whose
        // cancellation-victim maxima agree — are exchangeable: swapping
        // their jobs in any placement permutes identical Δ contributions.
        // The DP therefore explores only the canonical order that consumes
        // the lower-indexed member first (see `placement_ok`), collapsing
        // the `Π (b_c + 1)` per-member budget lattice of a class to the
        // `Σ b_c + 1` totals that actually matter. Computed after the
        // LS-inertness pass above so demoted tasks can join NLS classes.
        for j in 0..m {
            let prev = (0..j).rev().find(|&p| {
                scratch.exec[p] == scratch.exec[j]
                    && scratch.cin[p] == scratch.cin[j]
                    && scratch.cout[p] == scratch.cout[j]
                    && scratch.hp[p] == scratch.hp[j]
                    && scratch.ls[p] == scratch.ls[j]
                    && (!scratch.ls[j]
                        || (scratch.max_lower_hp[p] == scratch.max_lower_hp[j]
                            && scratch.max_lower_i0[p] == scratch.max_lower_i0[j]))
            });
            scratch.class_prev.push(prev);
        }

        // Adaptive packing of `(k, prev, prev2, budgets)` into a `u128`
        // memo key: each field gets exactly the bits its range needs.
        let k_bits = bit_width(w.n() as u64);
        let c_bits = bit_width(2 * m as u64 + 1);
        let mut total = k_bits + 2 * c_bits;
        for &b in &scratch.budget {
            let bits = bit_width(b);
            scratch.budget_bits.push(bits);
            total += bits;
        }
        let key_feasible = total <= 128;
        let remaining_budget: u64 = scratch.budget.iter().sum();
        let remaining_lp: u64 = (0..m)
            .filter(|&j| !scratch.hp[j])
            .map(|j| scratch.budget[j])
            .sum();

        Search {
            n: w.n(),
            s: scratch,
            max_cancel_hp,
            max_cancel_i0,
            max_l: w.max_l.as_ticks(),
            max_u: w.max_u.as_ticks(),
            l_i: w.copy_in_i.as_ticks(),
            c_i: w.exec_i.as_ticks(),
            last_lp_exec: w.last_lp_exec_interval(),
            remaining_budget,
            remaining_lp,
            max_states,
            nodes: 0,
            aborted: false,
            key_feasible,
            k_bits,
            c_bits,
        }
    }

    /// Dissolves the interchangeability classes: every task becomes its
    /// own class, removing the canonical-order admission rule and the
    /// class-level budget collapse in the memo key. The search then
    /// enumerates exactly the unpruned state space (the differential
    /// reference for [`ExactEngine::without_symmetry_breaking`]).
    fn disable_symmetry(&mut self) {
        for p in self.s.class_prev.iter_mut() {
            *p = None;
        }
    }

    #[inline]
    fn cpu(&self, c: Choice) -> i64 {
        match c {
            Choice::Idle => 0,
            Choice::Run { task, urgent } => {
                if urgent {
                    self.s.cin[task] + self.s.exec[task]
                } else {
                    self.s.exec[task]
                }
            }
        }
    }

    #[inline]
    fn out_of(&self, c: Choice) -> i64 {
        match c {
            Choice::Idle => 0,
            Choice::Run { task, .. } => self.s.cout[task],
        }
    }

    /// Copy-out of interval `k`: the copy-out of the task executed in
    /// `I_{k-1}` (`prev2` when scoring `Δ_{k-1}`); `max_u` at the window
    /// boundary (Constraint 12).
    #[inline]
    fn out_at(&self, k: usize, before: Choice) -> i64 {
        if k == 0 {
            self.max_u
        } else {
            self.out_of(before)
        }
    }

    /// Best free cancellation (no urgent execution following) in `slot`.
    #[inline]
    fn free_cancel(&self, slot: usize) -> i64 {
        if slot == 0 {
            self.max_cancel_i0
        } else {
            self.max_cancel_hp
        }
    }

    /// Mandatory cancellation enabling an urgent execution of `task`
    /// (Constraint 8); `None` if no lower-priority victim exists.
    #[inline]
    fn urgent_cancel(&self, slot: usize, task: usize) -> Option<i64> {
        if slot == 0 {
            self.s.max_lower_i0[task]
        } else {
            self.s.max_lower_hp[task]
        }
    }

    /// DMA copy-in time of slot `k` given the next slot's choice; `None`
    /// when the combination is infeasible.
    #[inline]
    fn in_at(&self, k: usize, next: Choice) -> Option<i64> {
        match next {
            Choice::Run {
                task,
                urgent: false,
            } => Some(self.s.cin[task]),
            Choice::Run { task, urgent: true } => self.urgent_cancel(k, task),
            Choice::Idle => Some(self.free_cancel(k)),
        }
    }

    fn placement_ok(&self, k: usize, task: usize, urgent: bool) -> bool {
        if !self.s.hp[task] && k > self.last_lp_exec {
            return false; // Constraints 3 / 14.
        }
        if urgent && !self.s.ls[task] {
            return false; // Constraint 4.
        }
        if urgent && k > 0 && self.urgent_cancel(k - 1, task).is_none() {
            return false; // Constraint 8 with an empty victim set.
        }
        // Symmetry breaking: within an interchangeability class, jobs are
        // consumed in canonical (index) order. Any placement violating the
        // order maps to one respecting it by permuting the identical
        // classmates, so no optimum is lost. A blocked task never shrinks
        // the candidate set to empty: its lowest-indexed classmate with
        // remaining budget passes the same shape-determined checks.
        if self.s.class_prev[task].is_some_and(|p| self.s.budget[p] > 0) {
            return false;
        }
        true
    }

    /// Job budget still spendable at slot `k`: lower-priority budgets stop
    /// counting past their placement region (Constraints 3/14).
    #[inline]
    fn usable_budget(&self, k: usize) -> u64 {
        if k > self.last_lp_exec {
            self.remaining_budget - self.remaining_lp
        } else {
            self.remaining_budget
        }
    }

    /// Canonical form of task `j`'s remaining budget at slot `k` — the
    /// memo coordinate. Two reductions merge states with provably equal
    /// suffix optima:
    ///
    /// * **evaporation**: a lower-priority budget is dead weight once the
    ///   placement region is past (Constraints 3/14) — record it as 0;
    /// * **slot capping**: at most `N−1−k` more placements can happen, so
    ///   budgets above that are indistinguishable — cap them. Capping
    ///   commutes with the DP transition (both sides of the cap decrement
    ///   together) and preserves candidate positivity while slots remain.
    #[inline]
    fn canon_budget(&self, j: usize, k: usize) -> u64 {
        if !self.s.hp[j] && k > self.last_lp_exec {
            return 0;
        }
        self.s.budget[j].min((self.n - 1 - k) as u64)
    }

    /// Canonical budget vector at slot `k` (allocating; recording paths
    /// only).
    fn canon_vec(&self, k: usize) -> Vec<u64> {
        (0..self.s.budget.len())
            .map(|j| self.canon_budget(j, k))
            .collect()
    }

    fn run(&mut self) -> Option<i64> {
        if self.n < 2 {
            return Some(self.c_i.max(self.max_l + self.max_u));
        }
        if self.hopeless(self.key_feasible) {
            self.aborted = true;
            return None;
        }
        let v = self.dp(0, Choice::Idle, Choice::Idle);
        if self.aborted {
            None
        } else {
            Some(v)
        }
    }

    /// A-priori abort gate: `true` when a certified lower bound on the
    /// states a completed DP run must memoize already exceeds the search
    /// budget, so running the search could only burn the node budget
    /// before degrading to the fallback anyway. With `memoized` the
    /// threshold is the memo-entry budget; without (the packed key does
    /// not fit in 128 bits) every distinct state costs at least one node,
    /// so the node backstop is the binding budget.
    fn hopeless(&self, memoized: bool) -> bool {
        let threshold = if memoized {
            self.max_states as u64
        } else {
            NODE_BUDGET
        };
        self.min_states_lower_bound(threshold) >= threshold
    }

    /// Certified lower bound (saturating) on the number of distinct
    /// `(slot, prev, prev2, canonical budgets)` states a completed DP run
    /// visits and memoizes.
    ///
    /// Construction: consider only higher-priority interchangeability
    /// classes with total budget `B_c`, and every consumption vector `x`
    /// (`0 ≤ x_c ≤ B_c`) with `t = Σ x_c ≤ S` where
    /// `S = min(N−2, N−1−max_c B_c)`. All-run prefixes are never gated —
    /// hp placements are unconditional candidates, constrained only by
    /// the within-class consumption order — so for every `x` with `t ≥ 2`
    /// and every **ordered class pair** `(a, b)` with a job of `a`
    /// placeable second-to-last and a job of `b` last (`x_a, x_b ≥ 1`;
    /// `x_a ≥ 2` when `a = b`), some explored prefix consumes exactly `x`
    /// and ends `…, a, b`. Each such `(x, a, b)` is a distinct memoized
    /// state: the budgets determine `x` (within-class order is forced, so
    /// per-task budgets follow from per-class counts), and `(prev, prev2)`
    /// determine `(b, a)`. Slot capping is provably inactive
    /// (`N−1−k ≥ N−1−S ≥ max_c B_c`) and evaporation does not apply to hp
    /// tasks, so canonicalization collapses none of them.
    ///
    /// When idling is admissible at every interior slot
    /// (`max_cancel_i0 > 0` and `max_cancel_hp > 0` keep the idle-useful
    /// gate open), a prefix with `t ≥ 3` placements can additionally park
    /// idles between the first placement and the final `a, b`, reaching
    /// every slot `k ∈ [t, S]` with the same `(prev, prev2, budgets)` —
    /// `S + 1 − t` further distinct states each.
    ///
    /// The count is evaluated by per-class convolution per ordered pair,
    /// `O(C³·N)` for `C` classes; every clamp is downward (values
    /// saturate at `LIMIT`, which is monotone and 1-Lipschitz under the
    /// windowed prefix-sum differences), so the result never exceeds the
    /// true state count. The cheap short-circuit below the threshold
    /// returns an *over*-approximation instead — callers only compare
    /// against `threshold`, and a value below it cannot trip the gate.
    fn min_states_lower_bound(&self, threshold: u64) -> u64 {
        let m = self.s.exec.len();
        // Class roots and per-class hp budgets.
        let mut root = vec![0usize; m];
        let mut per_root = vec![0u64; m];
        for j in 0..m {
            root[j] = match self.s.class_prev[j] {
                Some(p) => root[p],
                None => j,
            };
            if self.s.hp[j] {
                per_root[root[j]] += self.s.budget[j];
            }
        }
        let classes: Vec<u64> = (0..m)
            .filter(|&j| root[j] == j && self.s.hp[j] && per_root[j] > 0)
            .map(|j| per_root[j])
            .collect();
        let Some(&bmax) = classes.iter().max() else {
            return 1;
        };
        let s_total = (self.n as i64 - 2).min(self.n as i64 - 1 - bmax as i64);
        if s_total <= 0 {
            return 1;
        }
        let s_total = s_total as usize;
        let c = classes.len() as u64;
        let spread_ok = self.max_cancel_i0 > 0 && self.max_cancel_hp > 0;
        let spread_max = if spread_ok { s_total as u64 } else { 1 };
        // Cheap over-approximation (vectors × ordered pairs × slots)
        // short-circuits the common case; below the threshold it cannot
        // trip the caller's gate.
        let product = classes
            .iter()
            .try_fold(1u64, |acc, &b| acc.checked_mul(b + 1))
            .unwrap_or(u64::MAX)
            .saturating_mul(c * c + 1)
            .saturating_mul(spread_max);
        if product < threshold {
            return product.max(1);
        }
        const LIMIT: u64 = 1 << 40;
        // f[t] = number of consumption vectors with Σx = t under `budgets`,
        // clamped at LIMIT (downward, so differences stay lower bounds).
        let count = |budgets: &[u64], cap: usize| -> Vec<u64> {
            let mut f = vec![0u64; cap + 1];
            f[0] = 1;
            let mut pre = vec![0u64; cap + 2];
            for &b in budgets {
                for t in 0..=cap {
                    pre[t + 1] = (pre[t] + f[t]).min(LIMIT);
                }
                let width = b.min(cap as u64) as usize;
                for t in 0..=cap {
                    f[t] = (pre[t + 1] - pre[t.saturating_sub(width)]).min(LIMIT);
                }
            }
            f
        };
        if s_total < 2 {
            // Too short for a pinned (prev, prev2) tail; fall back to one
            // state per consumption vector.
            return count(&classes, s_total)
                .iter()
                .fold(0u64, |acc, &v| (acc + v).min(LIMIT));
        }
        // The root plus the C single-placement states at slot 1.
        let mut total: u64 = 1 + c;
        let cap = s_total - 2;
        let mut work = classes.clone();
        for a in 0..classes.len() {
            for b in 0..classes.len() {
                if a == b && classes[a] < 2 {
                    continue;
                }
                work.copy_from_slice(&classes);
                work[a] -= 1;
                work[b] -= 1;
                let f = count(&work, cap);
                for (rest, &v) in f.iter().enumerate() {
                    let t = rest + 2;
                    let slots = if spread_ok && t >= 3 {
                        (s_total + 1 - t) as u64
                    } else {
                        1
                    };
                    total = (total + v.saturating_mul(slots).min(LIMIT)).min(LIMIT);
                }
                if total >= threshold {
                    return total;
                }
            }
        }
        total
    }

    /// Exact maximum of `Δ_{k-1} + … + Δ_{N-1}` over all legal completions
    /// of slots `k … N-2`, given the previous two slot decisions.
    fn dp(&mut self, k: usize, prev: Choice, prev2: Choice) -> i64 {
        if self.aborted {
            return 0;
        }
        self.nodes += 1;
        if self.nodes > NODE_BUDGET {
            // Backstop for instances too large to memoize.
            self.aborted = true;
            return 0;
        }

        if k == self.n - 1 {
            return self.terminal_value(prev, prev2);
        }

        let key = self.memo_key(k, prev, prev2);
        if let Some(key) = key {
            if let Some(&v) = self.s.memo.get(&key) {
                return v;
            }
        }

        let mut best = i64::MIN;
        let mut any_candidate = false;
        let m = self.s.exec.len();
        for task in 0..m {
            if self.s.budget[task] == 0 {
                continue;
            }
            for urgent in [false, true] {
                if urgent && !self.s.ls[task] {
                    continue;
                }
                if !self.placement_ok(k, task, urgent) {
                    continue;
                }
                let cand = Choice::Run { task, urgent };
                let Some(d) = self.score(k, prev, prev2, cand) else {
                    continue;
                };
                any_candidate = true;
                self.s.budget[task] -= 1;
                self.remaining_budget -= 1;
                self.remaining_lp -= u64::from(!self.s.hp[task]);
                let v = d + self.dp(k + 1, cand, prev);
                self.s.budget[task] += 1;
                self.remaining_budget += 1;
                self.remaining_lp += u64::from(!self.s.hp[task]);
                best = best.max(v);
            }
        }
        // Idling is dominated by placing a job (exchange argument: moving
        // a job that would otherwise stay unplaced into the idle slot only
        // grows Δ terms) EXCEPT when (a) a free cancellation can charge
        // the preceding DMA slot with a copy-in larger than any placeable
        // job's, or (b) the window has more slots left than *spendable*
        // jobs (stranded lower-priority budgets excluded) — an idle slot
        // is then inevitable and *where* it falls matters, because an
        // idle slot's DMA still carries the copy-in of the next slot's
        // job (the standalone copy-in interval of a blocking lp job: CPU
        // idle, Δ_k = l_j + copy-out, execution following in I_{k+1}).
        // When neither holds every spendable job fits in the remaining
        // slots and no free cancellation pays: each idle-containing
        // completion is weakly dominated by the no-idle completion that
        // pulls the later jobs forward, so the idle branch is pruned.
        let idle_useful = k >= 1 && self.free_cancel(k - 1) > 0;
        let surplus_slot = (self.n - 1 - k) as u64 > self.usable_budget(k);
        if !any_candidate || idle_useful || surplus_slot {
            if let Some(d) = self.score(k, prev, prev2, Choice::Idle) {
                let v = d + self.dp(k + 1, Choice::Idle, prev);
                best = best.max(v);
            }
        }

        if let Some(key) = key {
            if self.s.memo.len() >= self.max_states {
                self.aborted = true;
            } else {
                self.s.memo.insert(key, best);
            }
        }
        best
    }

    /// Terminal value at slot `N-1`: Δ_{N-2} (τ_i's copy-in rides this
    /// interval's DMA) and Δ_{N-1} (τ_i executes; DMA may copy out `prev`
    /// and load a future task).
    #[inline]
    fn terminal_value(&self, prev: Choice, prev2: Choice) -> i64 {
        let d_nm2 = self
            .cpu(prev)
            .max(self.l_i + self.out_at(self.n - 2, prev2));
        let d_nm1 = self.c_i.max(self.max_l + self.out_of(prev));
        d_nm2 + d_nm1
    }

    /// Contribution of `Δ_{k-1}` once slot `k`'s choice is fixed (the slot
    /// `k-1` copy-in serves the execution of `I_k`); `None` if the choice
    /// is infeasible, `0` at the window start.
    #[inline]
    fn score(&self, k: usize, prev: Choice, prev2: Choice, cand: Choice) -> Option<i64> {
        if k == 0 {
            return Some(0);
        }
        let input = self.in_at(k - 1, cand)?;
        Some(self.cpu(prev).max(input + self.out_at(k - 1, prev2)))
    }

    /// Packs `(k, prev, prev2, canonical budgets)` into a 128-bit memo key
    /// with the adaptive field widths computed in [`Search::new`]; `None`
    /// when the instance is too large to pack (the caller then runs
    /// without memoization until the node budget trips). Budgets enter in
    /// canonical form ([`Search::canon_budget`]) so states with provably
    /// equal suffix optima share one entry; canonical values never exceed
    /// the raw budget, so the precomputed field widths still fit.
    #[inline]
    fn memo_key(&self, k: usize, prev: Choice, prev2: Choice) -> Option<u128> {
        if !self.key_feasible {
            return None;
        }
        debug_assert!(bit_width(k as u64) <= self.k_bits);
        let mut key: u128 = k as u128;
        key = (key << self.c_bits) | prev.encode();
        key = (key << self.c_bits) | prev2.encode();
        for (j, &bits) in self.s.budget_bits.iter().enumerate() {
            key = (key << bits) | u128::from(self.canon_budget(j, k));
        }
        Some(key)
    }

    /// Recording twin of [`Search::dp`]: identical recursion, gating, and
    /// budgets, but memoized in an explicit key map so every reachable
    /// state's exact suffix value survives for certificate emission. Kept
    /// separate from the hot path on purpose — the production `dp` stays
    /// allocation-free.
    fn dp_rec(&mut self, k: usize, prev: Choice, prev2: Choice, rec: &mut RecMemo) -> i64 {
        if self.aborted {
            return 0;
        }
        self.nodes += 1;
        if self.nodes > NODE_BUDGET {
            self.aborted = true;
            return 0;
        }
        if k == self.n - 1 {
            return self.terminal_value(prev, prev2);
        }
        let key = (k, prev.code(), prev2.code(), self.canon_vec(k));
        if let Some(&v) = rec.get(&key) {
            return v;
        }

        let mut best = i64::MIN;
        let mut any_candidate = false;
        let m = self.s.exec.len();
        for task in 0..m {
            if self.s.budget[task] == 0 {
                continue;
            }
            for urgent in [false, true] {
                if urgent && !self.s.ls[task] {
                    continue;
                }
                if !self.placement_ok(k, task, urgent) {
                    continue;
                }
                let cand = Choice::Run { task, urgent };
                let Some(d) = self.score(k, prev, prev2, cand) else {
                    continue;
                };
                any_candidate = true;
                self.s.budget[task] -= 1;
                self.remaining_budget -= 1;
                self.remaining_lp -= u64::from(!self.s.hp[task]);
                let v = d + self.dp_rec(k + 1, cand, prev, rec);
                self.s.budget[task] += 1;
                self.remaining_budget += 1;
                self.remaining_lp += u64::from(!self.s.hp[task]);
                best = best.max(v);
            }
        }
        let idle_useful = k >= 1 && self.free_cancel(k - 1) > 0;
        let surplus_slot = (self.n - 1 - k) as u64 > self.usable_budget(k);
        if !any_candidate || idle_useful || surplus_slot {
            if let Some(d) = self.score(k, prev, prev2, Choice::Idle) {
                let v = d + self.dp_rec(k + 1, Choice::Idle, prev, rec);
                best = best.max(v);
            }
        }

        if rec.len() >= self.max_states {
            self.aborted = true;
        } else {
            rec.insert(key, best);
        }
        best
    }

    /// Recovers one optimal placement from a recorded memo: walks forward
    /// from the root re-enumerating the explored choices of each state and
    /// following any choice whose score plus child value reproduces the
    /// state's recorded optimum.
    fn traceback(&mut self, rec: &RecMemo, total: i64) -> Option<Vec<u64>> {
        let mut witness = Vec::with_capacity(self.n - 1);
        let (mut prev, mut prev2) = (Choice::Idle, Choice::Idle);
        let mut v = total;
        let m = self.s.exec.len();
        for k in 0..self.n - 1 {
            let mut found: Option<(Choice, i64)> = None;
            let mut any_candidate = false;
            'runs: for task in 0..m {
                if self.s.budget[task] == 0 {
                    continue;
                }
                for urgent in [false, true] {
                    if urgent && !self.s.ls[task] {
                        continue;
                    }
                    if !self.placement_ok(k, task, urgent) {
                        continue;
                    }
                    let cand = Choice::Run { task, urgent };
                    let Some(d) = self.score(k, prev, prev2, cand) else {
                        continue;
                    };
                    any_candidate = true;
                    self.s.budget[task] -= 1;
                    let cv = if k + 1 == self.n - 1 {
                        Some(self.terminal_value(cand, prev))
                    } else {
                        rec.get(&(k + 1, cand.code(), prev.code(), self.canon_vec(k + 1)))
                            .copied()
                    };
                    if cv == Some(v - d) {
                        // Keep the budget decremented: the choice is taken.
                        found = Some((cand, v - d));
                        break 'runs;
                    }
                    self.s.budget[task] += 1;
                }
            }
            if found.is_none() {
                let idle_useful = k >= 1 && self.free_cancel(k - 1) > 0;
                let usable: u64 = (0..m)
                    .filter(|&j| self.s.hp[j] || k <= self.last_lp_exec)
                    .map(|j| self.s.budget[j])
                    .sum();
                let surplus_slot = (self.n - 1 - k) as u64 > usable;
                if !any_candidate || idle_useful || surplus_slot {
                    if let Some(d) = self.score(k, prev, prev2, Choice::Idle) {
                        let cv = if k + 1 == self.n - 1 {
                            Some(self.terminal_value(Choice::Idle, prev))
                        } else {
                            rec.get(&(k + 1, 0, prev.code(), self.canon_vec(k + 1)))
                                .copied()
                        };
                        if cv == Some(v - d) {
                            found = Some((Choice::Idle, v - d));
                        }
                    }
                }
            }
            let (cand, cv) = found?;
            witness.push(cand.code());
            v = cv;
            prev2 = prev;
            prev = cand;
        }
        Some(witness)
    }

    /// Safe upper bound used when the DP aborts: [`Search::suffix_cap`]
    /// evaluated at the root (full budgets, all slots).
    fn fallback_bound(&self) -> i64 {
        self.suffix_cap(0, Choice::Idle, Choice::Idle)
    }

    /// Admissible upper bound on `dp(k, prev, prev2)` from the **current**
    /// remaining budgets: the tighter of
    ///
    /// * per-slot caps: every middle interval is below
    ///   `max(max demand, l̂+û)`;
    /// * decoupled sums: `Σ_k Δ_k ≤ Σ_k Δ^cpu_k + Σ_k (Δ^in_k + Δ^out_k)`,
    ///   with the DMA side budgeted by the copies each job performs once,
    ///   plus cancellation and boundary charges. `Δ_{k-1}`'s execution
    ///   (`prev`) and copy-out (`prev2`), and `Δ_k`'s copy-out (`prev`),
    ///   belong to already-placed jobs whose budget is no longer in the
    ///   remaining sums, so they are charged explicitly.
    ///
    /// At `k = 0` this is the engine's coarse fallback bound (`prev` and
    /// `prev2` are idle and the extra charges reduce to the window-start
    /// `max_u` boundary).
    fn suffix_cap(&self, k: usize, prev: Choice, prev2: Choice) -> i64 {
        let m = self.s.exec.len();
        let max_demand = (0..m)
            .map(|j| {
                if self.s.ls[j] {
                    self.s.cin[j] + self.s.exec[j]
                } else {
                    self.s.exec[j]
                }
            })
            .max()
            .unwrap_or(0);
        let slot_cap = max_demand.max(self.max_l + self.max_u);
        let last2_cap =
            max_demand.max(self.l_i + self.max_u) + self.c_i.max(self.max_l + self.max_u);
        // `dp(k, ·)` covers Δ_{k−1} … Δ_{N−1}: the two terminal intervals
        // plus the middle ones (Δ_{−1} does not exist — `score` returns 0
        // at the window start).
        let mid_slots = (self.n as i64 - 1 - k as i64 - i64::from(k == 0)).max(0);
        let per_slot = slot_cap * mid_slots + last2_cap;

        let total_jobs: u64 = self.s.budget.iter().sum();
        let slots = (self.n - 1 - k) as i64;
        let mut cpu_sum = 0i64;
        let mut dma_sum = 0i64;
        for j in 0..m {
            let b = self.s.budget[j] as i64;
            cpu_sum += b * if self.s.ls[j] {
                self.s.cin[j] + self.s.exec[j]
            } else {
                self.s.exec[j]
            };
            dma_sum += b * (self.s.cin[j] + self.s.cout[j]);
        }
        // Cancellation charges can fill slots without executions and slots
        // preceding urgent executions.
        let ls_jobs: i64 = (0..m)
            .filter(|&j| self.s.ls[j])
            .map(|j| self.s.budget[j] as i64)
            .sum();
        let free_slots = (slots - total_jobs as i64).max(0) + ls_jobs;
        let cancel_extra = free_slots * self.max_cancel_i0;
        // Copy-outs at slots `k-1` and `k` are produced by `prev2` / `prev`
        // (`max_u` at the window boundary); later slots copy out remaining
        // jobs, which `dma_sum` already covers.
        let placed_out = if k == 0 {
            self.max_u
        } else {
            self.out_at(k - 1, prev2) + self.out_of(prev)
        };
        let decoupled = cpu_sum
            + self.cpu(prev)
            + self.c_i
            + dma_sum
            + cancel_extra
            + self.l_i
            + self.max_l
            + placed_out;

        per_slot.min(decoupled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::{test_task, WindowCase, WindowModel};
    use pmcs_model::{TaskId, TaskSet, Time};

    fn bound(set: &TaskSet, id: u32, case: WindowCase, t: i64) -> i64 {
        let w = WindowModel::build(set, TaskId(id), case, Time::from_ticks(t))
            .expect("task id is in the set");
        let b = ExactEngine::default()
            .max_total_delay(&w)
            .expect("default budget suffices for the test windows");
        assert!(b.exact);
        b.delay.as_ticks()
    }

    #[test]
    fn singleton_task_window() {
        // Only τ_0: N = 2 intervals (copy-in, then execution).
        let set =
            TaskSet::new(vec![test_task(0, 10, 3, 2, 100, 0, false)]).expect("valid task set");
        // Δ_0 = max(0, l_i + max_u) = 5; Δ_1 = max(10, max_l + 0) = 10.
        assert_eq!(bound(&set, 0, WindowCase::Nls, 3), 15);
    }

    #[test]
    fn single_hp_task_interferes() {
        let set = TaskSet::new(vec![
            test_task(0, 10, 2, 2, 1_000, 0, false),
            test_task(1, 20, 5, 5, 1_000, 1, false),
        ])
        .expect("valid task set");
        // τ1 under analysis; hp τ0 budget = η(10)+1 = 2; no lp → N = 3.
        let d = bound(&set, 1, WindowCase::Nls, 10);
        // Must cover the interference-free minimum …
        assert!(d >= 5 + 20);
        // … and stay below 3 intervals at the per-interval cap
        // (max demand 10, DMA 5+5=10, own exec 20).
        assert!(d <= 10 + 10 + 20, "d={d}");
    }

    #[test]
    fn lp_blocking_appears_in_first_two_intervals_only() {
        let set = TaskSet::new(vec![
            test_task(0, 10, 1, 1, 10_000, 0, false),
            test_task(1, 500, 1, 1, 10_000, 1, false),
        ])
        .expect("valid task set");
        let d = bound(&set, 0, WindowCase::Nls, 12);
        // N = 3 (no hp jobs, one lp task → two blocking intervals: its
        // standalone copy-in interval and its execution interval).
        // Δ_0 = l(τ1) + max_u = 2 (CPU idle, DMA loads τ1);
        // Δ_1 = max(C_lp = 500, l_i + u-boundary) = 500;
        // Δ_2 = max(10, max_l + u(τ1) = 2) = 10. Total 512.
        assert_eq!(d, 512);
    }

    #[test]
    fn ls_case_a_blocks_once() {
        let set = TaskSet::new(vec![
            test_task(0, 10, 1, 1, 10_000, 0, true),
            test_task(1, 500, 1, 1, 10_000, 1, false),
        ])
        .expect("valid task set");
        let d = bound(&set, 0, WindowCase::LsCaseA, 12);
        // N = 2. Δ_0 = max(500, l_i + max_u) = 500; Δ_1 = max(10, 2) = 10.
        assert_eq!(d, 510);
    }

    #[test]
    fn ls_blocks_less_than_nls_with_two_lp_tasks() {
        // Two heavy lp tasks: NLS suffers both (I_0, I_1); LS only one.
        let set = TaskSet::new(vec![
            test_task(0, 10, 1, 1, 100_000, 0, false),
            test_task(1, 300, 2, 2, 100_000, 1, false),
            test_task(2, 400, 2, 2, 100_000, 2, false),
        ])
        .expect("valid task set");
        let nls = bound(&set, 0, WindowCase::Nls, 20);
        let ls = bound(&set, 0, WindowCase::LsCaseA, 20);
        assert!(
            ls + 295 < nls,
            "LS ({ls}) should dodge one ~300-long blocking interval vs NLS ({nls})"
        );
    }

    #[test]
    fn urgent_execution_inflates_cpu_demand() {
        // An LS hp task with large copy-in: when executed urgent its CPU
        // demand is l+C; the adversary should exploit it (after a cancel
        // of a lower-priority victim).
        let set = TaskSet::new(vec![
            test_task(0, 10, 50, 1, 100_000, 0, true),
            test_task(1, 10, 1, 1, 100_000, 1, false),
            test_task(2, 10, 1, 1, 100_000, 2, false),
        ])
        .expect("valid task set");
        let d = bound(&set, 2, WindowCase::Nls, 5);
        assert!(d >= 60, "bound {d} must include an urgent execution");
    }

    #[test]
    fn state_budget_fallback_is_sound() {
        let set = TaskSet::new(vec![
            test_task(0, 10, 2, 2, 100, 0, false),
            test_task(1, 10, 2, 2, 100, 1, false),
            test_task(2, 10, 2, 2, 100, 2, false),
        ])
        .expect("valid task set");
        let w = WindowModel::build(&set, TaskId(2), WindowCase::Nls, Time::from_ticks(150))
            .expect("τ2 is in the set");
        let exact = ExactEngine::default()
            .max_total_delay(&w)
            .expect("default budget suffices");
        assert!(exact.exact);
        let starved = ExactEngine::with_max_states(1)
            .max_total_delay(&w)
            .expect("budget exhaustion falls back to a safe bound, not an error");
        assert!(!starved.exact);
        assert!(
            starved.delay >= exact.delay,
            "fallback {} must dominate the exact optimum {}",
            starved.delay,
            exact.delay
        );
    }

    #[test]
    fn empty_competitors_ls_case() {
        let set = TaskSet::new(vec![test_task(0, 10, 3, 2, 100, 0, true)]).expect("valid task set");
        let d = bound(&set, 0, WindowCase::LsCaseA, 3);
        // N = 2: Δ_0 = max(0, l_i + max_u) = 5, Δ_1 = max(10, 3 + 0) = 10.
        assert_eq!(d, 15);
    }

    #[test]
    fn memoization_collapses_plateaus() {
        // A window with many interchangeable jobs must stay cheap.
        let set = TaskSet::new(vec![
            test_task(0, 700, 200, 200, 10_000, 0, false),
            test_task(1, 300, 100, 100, 11_000, 1, false),
            test_task(2, 250, 80, 80, 12_000, 2, false),
            test_task(3, 2_400, 700, 700, 21_000, 3, false),
            test_task(4, 2_000, 600, 600, 40_000, 4, false),
            test_task(5, 1_000, 300, 300, 60_000, 5, false),
        ])
        .expect("valid task set");
        let w = WindowModel::build(&set, TaskId(5), WindowCase::Nls, Time::from_ticks(28_000))
            .expect("τ5 is in the set");
        let b = ExactEngine::default()
            .max_total_delay(&w)
            .expect("memoized DP finishes within the default budget");
        assert!(b.exact, "DP must finish on a 15+-interval window");
        assert!(b.nodes < 2_000_000, "nodes={}", b.nodes);
    }

    #[test]
    fn scratch_reuse_is_transparent() {
        // The same engine analyzing different windows back to back must
        // return the same bounds as fresh engines.
        let set_a = TaskSet::new(vec![
            test_task(0, 10, 2, 2, 1_000, 0, false),
            test_task(1, 20, 5, 5, 1_000, 1, false),
        ])
        .expect("valid task set");
        let set_b = TaskSet::new(vec![
            test_task(0, 10, 1, 1, 10_000, 0, true),
            test_task(1, 500, 1, 1, 10_000, 1, false),
            test_task(2, 40, 3, 3, 10_000, 2, false),
        ])
        .expect("valid task set");
        let reused = ExactEngine::default();
        for _ in 0..3 {
            for (set, id, t) in [(&set_a, 1u32, 10i64), (&set_b, 0, 12), (&set_b, 2, 30)] {
                for case in [WindowCase::Nls, WindowCase::LsCaseA] {
                    let w = WindowModel::build(set, TaskId(id), case, Time::from_ticks(t))
                        .expect("task id is in the set");
                    let fresh = ExactEngine::default()
                        .max_total_delay(&w)
                        .expect("engine result");
                    let warm = reused.max_total_delay(&w).expect("engine result");
                    assert_eq!(fresh.delay, warm.delay);
                    assert_eq!(fresh.exact, warm.exact);
                }
            }
        }
    }

    #[test]
    fn wide_windows_still_memoize() {
        // 11 window tasks (the old 64-bit key gave up beyond 9): 5 hp
        // tasks with 2 jobs each plus 6 lp blockers. Unmemoized, the
        // ~11²·5¹⁰ interleavings blow the node backstop; the adaptive
        // u128 key must keep the DP memoized and exact.
        let mut tasks: Vec<_> = (0..5)
            .map(|i| test_task(i, 40 + i as i64, 5, 5, 5_000, i, false))
            .collect();
        tasks.push(test_task(5, 200, 10, 10, 50_000, 5, false));
        for i in 6..12u32 {
            tasks.push(test_task(i, 100 + i as i64, 5, 5, 50_000, i, false));
        }
        let set = TaskSet::new(tasks).expect("valid task set");
        let w = WindowModel::build(&set, TaskId(5), WindowCase::Nls, Time::from_ticks(4_000))
            .expect("τ5 is in the set");
        assert!(
            w.tasks.len() > 9,
            "m={} must exceed the old limit",
            w.tasks.len()
        );
        let b = ExactEngine::default()
            .max_total_delay(&w)
            .expect("engine result");
        assert!(b.exact, "an 11-task window must still memoize");
        assert!(b.nodes < 50_000_000, "nodes={}", b.nodes);
    }

    #[test]
    fn large_budgets_still_memoize() {
        // A budget beyond the old 31-per-task packing limit: a long window
        // against a short-period hp task.
        let set = TaskSet::new(vec![
            test_task(0, 10, 2, 2, 100, 0, false),
            test_task(1, 50, 5, 5, 10_000, 1, false),
        ])
        .expect("valid task set");
        // η_0(4000) + 1 = 41 jobs of τ0.
        let w = WindowModel::build(&set, TaskId(1), WindowCase::Nls, Time::from_ticks(4_000))
            .expect("τ1 is in the set");
        assert!(w.tasks.iter().any(|t| t.budget > 31));
        let b = ExactEngine::default()
            .max_total_delay(&w)
            .expect("engine result");
        assert!(b.exact, "budget 41 must still pack into the memo key");
    }
}
