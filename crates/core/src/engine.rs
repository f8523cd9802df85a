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
//! The optimum is computed by **memoized dynamic programming** over states
//! `(slot, remaining job budgets)` — each state's suffix value is exact and
//! shared across the exponentially many interleavings that reach it. This
//! solves the same optimization as the MILP formulation
//! (`pmcs_analysis::MilpEngine`, an audit-only oracle) orders of magnitude
//! faster; the equivalence of the two engines is property-tested in
//! `pmcs-analysis`'s `tests/milp_equivalence.rs`, and a brute-force
//! enumeration in `tests/brute_force_oracle.rs` checks it on tiny windows.
//!
//! ## The state and its four-term value
//!
//! Which choices are legal at slot `k` (budgets, Constraint 4/8 urgency,
//! the lp placement region, the symmetry order and the idle gate) depends
//! only on `k` and the budgets. The two previous slot decisions enter only
//! through `Δ_{k−1} = max(cpu(prev), in(c) + o2)` — `prev`'s CPU demand
//! `p`, and `o2`, the copy-out of `I_{k−1}` (`cout(prev2)`, or `max_u` when
//! `k−1 = 0`) — and through the copy-out `o1 = cout(prev)` that `I_k`
//! hands on. The suffix optimum is therefore a max-plus form in
//! `(p, o1, o2)`:
//!
//! ```text
//! V(k, b; p, o1, o2) = max(p + X1, p + o1 + X2, o2 + X3, o1 + o2 + X4)
//! ```
//!
//! and the memo stores `X = X(k, b)` (`Terms`) per `(slot, budgets)`.
//! For each legal choice `c` at slot `k`, with `Y = X(k+1, b−c)` and
//! `in_c = in_at(k−1, c)` (0 at `k = 0`):
//!
//! ```text
//! P_c = cpu_c + max(Y1, out_c + Y2)        Q_c = max(Y3, out_c + Y4)
//! X(k, b) = (max P_c, max Q_c, max(in_c + P_c), max(in_c + Q_c))
//! ```
//!
//! **Identity.** Expanding `max(p, in_c + o2) + V(k+1, b−c; cpu_c, out_c,
//! o1)` term by term (`+` distributes over `max`) gives
//! `max(p + P_c, p + o1 + Q_c, o2 + in_c + P_c, o1 + o2 + in_c + Q_c)`;
//! the maximum over `c` of each term is the corresponding term of `X(k,
//! b)`. The child's `o2` is `o1` because `I_k`'s copy-out is `cout(prev)`
//! for `k ≥ 1`. At the terminal slot `X(N−1) = (C_i, max_l, l_i + C_i,
//! l_i + max_l)`, which expands to `max(p, l_i + o2) + max(C_i, max_l +
//! o1)` = `Δ_{N−2} + Δ_{N−1}`. At the root the first slot has no `Δ_{−1}`
//! and slot 1 sees `o2 = max_u`, so the window optimum is
//! `max(X1(0), max_u + X2(0))`. Every sum is checked (`Search::add`).
//!
//! ## Scratch reuse
//!
//! The engine is called millions of times per sweep (one call per
//! fixed-point iteration per task per set). To keep the per-call cost at
//! the DP itself, the engine holds its working memory — its memo tables
//! and the per-task vectors — in a reusable `Scratch` behind a `RefCell`,
//! clearing instead of reallocating between calls, so a solve allocates
//! nothing once the tables have grown to the engine's windows.
//!
//! Most visits of the DP are memo lookups, so the memo sets the DP's
//! speed. The table depends on the window's *box*, the cells
//! `3·(N−1)·Π_j (min(b_j, N−1)+1)` of the carried key's coordinates (gate,
//! slots remaining, canonical budgets):
//!
//! * a window whose box fits `DENSE_MAX_CELLS` (24,576 cells) indexes its
//!   states directly (`DenseMemo`): a `u32` per cell points into a list
//!   of filled states, so a lookup is two loads and no hash. Cold set-up
//!   clears only the cells the last solve filled. A child's cell is its
//!   idle sibling's cell less one budget stride, so a visit computes no
//!   key. These are 99.9 % of the solves and 96 % of the visits of the
//!   `n = 5` sweep grid (100,000 sets, seed 2); on the `n = 8` inset of
//!   Figure 2 they are about half the solves and under 1 % of the visits;
//! * larger windows, and windows that do not use the carried layout,
//!   hash packed keys: a `u64` (40-byte buckets with the 32-byte value)
//!   when the key layout fits in 64 bits, and a `u128` (48-byte buckets)
//!   otherwise. A cold solve clears its table and shrinks it to the
//!   entries of the solve that filled it, so the table tracks recent solve
//!   sizes instead of the largest solve the engine has seen.
//!
//! ## Memo carried across fixed-point iterations
//!
//! Successive iterations of one WCRT fixed point solve windows that
//! differ only in their job budgets `η_j(t)+1` and their interval count
//! `N`. The memo therefore indexes states by **slots remaining**
//! `r = N−1−k` rather than by slot index `k`, plus a three-valued slot
//! gate (`k = 0`, `k = 1`, `k ≥ 2`) for the few rules that read `k`
//! (window-start scoring, the `I_0` cancellation sets, the lower-priority
//! placement region). A suffix value then depends only on the window's
//! *shape* — everything the search reads except the budgets and `N`:
//! per-task phases, (demoted) LS and hp flags, cancellation-victim maxima
//! and symmetry classes, and the window's boundary terms — so the memo of
//! one solve stays valid for the next solve of the same shape, and the
//! engine keeps it instead of clearing it.
//!
//! The rules that keep this exact:
//!
//! * the memo holds only values of *completed* solves of the stored
//!   shape: a new shape or key layout starts from an empty memo, and a
//!   hopeless or aborted solve drops the shape;
//! * the key layout does not move as budgets and `N` grow: the slot field
//!   and every higher-priority budget field get a fixed width of at least
//!   7 bits (wider when `N−1` needs more);
//! * a carried solve that fills the memo budget is re-run cold, and a memo
//!   is carried only when `max_states·(2m+1)+1 ≤ NODE_BUDGET`, where
//!   a cold solve that fits the memo budget cannot trip the node budget.
//!   The memo is closed under reachability, so a carried solve that
//!   completes proves the cold solve's states fit the budget too: results
//!   and fallbacks match a cold engine call for call.
//!
//! A carried memo only saves work. The effort counters
//! ([`DpStats::nodes`] and each call's `DelayBound::nodes`) count every
//! visit of the DP, memo hits and terminal slots included, so a carried
//! memo shows up as fewer visits.
//!
//! When the fixed layout does not fit in 128 bits (many tasks or `N−1`
//! beyond the fixed width), the key falls back to *adaptive* field widths
//! indexed by `k`, and the memo is cleared before every solve, so wide
//! windows still memoize instead of degrading to the node-budget
//! backstop. Either layout takes the `u64` table when it fits in 64 bits;
//! only the carried layout indexes directly.
//!
//! ## One recursion, three memo tables
//!
//! `Search::dp` is the only recursion: an inlined visit (budget checks,
//! terminal slot, memo lookup) that calls the out-of-line `Search::expand`
//! only on a memo miss. `Search` is generic over its memo table:
//! production solves hold the dense memo or the packed scratch memo of
//! their key width (see "Scratch reuse"), and certificate recording
//! (`ExactEngine::solve_recorded`) a map keyed by explicit
//! `(k, canonical budgets)` pairs. A memo carried from the previous solve
//! of the same shape stays in its table; a dense memo whose box outgrows
//! the limit moves into the packed table, and a growing box re-indexes
//! the dense states in place, so every table holds the same states and
//! the search visits, aborts and falls back alike on each.
//! The map has no 128-bit limit, so a window that production solves
//! unmemoized is still recorded state by state, and it lives only for one
//! recording, so recording never touches the carried memo. The witness
//! walk (`Search::traceback`) replays the recorded table through the same
//! candidate test, idle gate and budget bookkeeping as the search, and
//! evaluates each child's four terms at the concrete `(prev, prev2)` of
//! the walk.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::{BitOr, Shl};

use pmcs_model::Time;

/// Multiplicative hasher for the dense packed memo keys (the default
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

/// The four max-plus terms `X` of a state's suffix value (see the module
/// docs): `V(p, o1, o2) = max(p + X1, p + o1 + X2, o2 + X3, o1 + o2 + X4)`.
type Terms = [i64; 4];

/// The production memo: packed keys (see [`Search::memo_key`]), `u64`
/// when the window's key layout fits in 64 bits and `u128` otherwise.
type PackedMemo<K> = HashMap<K, Terms, BuildHasherDefault<KeyHasher>>;

/// A packed memo key width. Each width has its own table in [`Scratch`].
trait PackedKey: Copy + Eq + Hash + From<u64> + Shl<u32, Output = Self> + BitOr<Output = Self> {
    const BITS: u32;
    /// This width's table in `scratch`.
    fn table(scratch: &mut Scratch) -> &mut PackedMemo<Self>;
}

impl PackedKey for u64 {
    const BITS: u32 = u64::BITS;
    fn table(scratch: &mut Scratch) -> &mut PackedMemo<u64> {
        &mut scratch.memo64
    }
}

impl PackedKey for u128 {
    const BITS: u32 = u128::BITS;
    fn table(scratch: &mut Scratch) -> &mut PackedMemo<u128> {
        &mut scratch.memo128
    }
}

/// The recorder's memo: explicit `(k, canonical budgets)` keys.
type RecMemo = HashMap<(usize, Vec<u64>), Terms>;

/// The memo table of a [`Search`]: how a state is keyed and stored. The
/// recursion, its gates and its budget bookkeeping do not depend on it.
trait MemoTable: Sized + Default {
    type Key;
    /// Key of slot `k` under the search's current budgets; `None` when
    /// the state cannot be memoized.
    fn key(search: &Search<'_, Self>, k: usize) -> Option<Self::Key>;
    fn lookup(&self, key: &Self::Key) -> Option<Terms>;
    fn entries(&self) -> usize;
    fn store(&mut self, key: Self::Key, value: Terms);
    /// Key of the child state `(k, b − e_task)`, called with `task`'s job
    /// already taken, where `base` is the key of its idle sibling
    /// `(k, b)`. Computed afresh unless the table can derive it from
    /// `base`.
    #[inline]
    fn child_key(
        search: &Search<'_, Self>,
        k: usize,
        _base: &Option<Self::Key>,
        _task: usize,
    ) -> Option<Self::Key> {
        Self::key(search, k)
    }

    /// Drops every state.
    fn clear(&mut self);
}

/// Largest box, in cells, that a solve indexes directly (see
/// [`DenseMemo`]); windows with larger boxes hash their states. The index
/// is gate-major, so every `k ≥ 2` state lies in one plane, a third of
/// the box: at most 8,192 `u32` cells, the 32 KiB of a typical L1 data
/// cache.
const DENSE_MAX_CELLS: usize = 3 * 8 * 1024;

/// A directly indexed memo for windows whose box of cells fits
/// [`DENSE_MAX_CELLS`]. A state's cell is its mixed-radix index over the
/// coordinates of the carried packed key ([`Search::memo_key`]): the gate
/// `min(k, 2)`, slots remaining `N−1−k` (less one) and the canonical
/// budgets, last task fastest.
///
/// `slot_of` maps a cell to one plus the position of its state in
/// `terms`, or 0 when the cell is empty; `cells` lists the filled cells
/// in fill order. Clearing and re-indexing therefore cost the filled
/// states, not the box. `slot_of` grows to the largest box the engine
/// has indexed and never shrinks, and every cell outside `cells` is 0.
#[derive(Debug, Default)]
struct DenseMemo {
    slot_of: Vec<u32>,
    cells: Vec<u32>,
    terms: Vec<Terms>,
    /// Radix of each coordinate: 3 gates, `N−1` slot counts and
    /// `min(b_j, N−1)+1` budgets per task, the maxima over the solves
    /// whose states the table holds.
    radix: Vec<usize>,
    /// Stride of each coordinate.
    stride: Vec<usize>,
    /// Staging for the radices of the next solve.
    next: Vec<usize>,
}

/// `cell` under radices `from`, re-indexed under the elementwise larger
/// radices `to`.
fn recode(mut cell: usize, from: &[usize], to: &[usize]) -> usize {
    let (mut out, mut stride) = (0, 1);
    for (&a, &b) in from.iter().zip(to).rev() {
        out += cell % a * stride;
        cell /= a;
        stride *= b;
    }
    out
}

impl DenseMemo {
    /// Fits the table to a window of `n ≥ 2` intervals and job budgets
    /// `budget`: with `keep` it keeps its states, widening the radices
    /// and re-indexing where the window needs more room, and otherwise
    /// it starts empty. Returns `false`, leaving the table unchanged,
    /// when the box would exceed `max_cells`.
    fn fit(&mut self, keep: bool, n: usize, budget: &[u64], max_cells: usize) -> bool {
        let slots = n - 1;
        self.next.clear();
        self.next.extend([3, slots]);
        self.next
            .extend(budget.iter().map(|&b| b.min(slots as u64) as usize + 1));
        if keep {
            for (r, &old) in self.next.iter_mut().zip(&self.radix) {
                *r = (*r).max(old);
            }
        }
        let cells = self
            .next
            .iter()
            .try_fold(1usize, |acc, &r| acc.checked_mul(r));
        let Some(cells) = cells.filter(|&c| c <= max_cells) else {
            return false;
        };
        if keep && self.next == self.radix {
            return true;
        }
        if keep {
            for c in &mut self.cells {
                self.slot_of[*c as usize] = 0;
                *c = recode(*c as usize, &self.radix, &self.next) as u32;
            }
        } else {
            self.clear();
        }
        std::mem::swap(&mut self.radix, &mut self.next);
        if self.slot_of.len() < cells {
            self.slot_of.resize(cells, 0);
        }
        for (p, &c) in self.cells.iter().enumerate() {
            self.slot_of[c as usize] = p as u32 + 1;
        }
        self.stride.clear();
        self.stride.resize(self.radix.len(), 0);
        let mut acc = 1;
        for (s, &r) in self.stride.iter_mut().zip(&self.radix).rev() {
            *s = acc;
            acc *= r;
        }
        true
    }

    /// Moves every state into `table`, which it clears first, under the
    /// packed carried key of `budget_bits`' layout.
    fn drain_into<K: PackedKey>(&mut self, table: &mut PackedMemo<K>, budget_bits: &[u32]) {
        table.clear();
        for (&cell, &x) in self.cells.iter().zip(&self.terms) {
            let mut rest = cell as usize;
            let mut coord = self.stride.iter().map(|&s| {
                let c = rest / s;
                rest %= s;
                c as u64
            });
            let gate = coord.next().expect("the gate coordinate");
            let slots = coord.next().expect("the slot coordinate") + 1;
            let key = coord
                .zip(budget_bits)
                .fold(K::from((slots << 2) | gate), |key, (c, &bits)| {
                    (key << bits) | K::from(c)
                });
            table.insert(key, x);
        }
        self.clear();
    }
}

impl MemoTable for DenseMemo {
    type Key = usize;

    #[inline]
    fn key(search: &Search<'_, Self>, k: usize) -> Option<usize> {
        let stride = &search.memo.stride;
        let mut cell = k.min(2) * stride[0] + (search.n - 2 - k) * stride[1];
        for (j, &s) in stride[2..].iter().enumerate() {
            cell += search.canon_budget(j, k) as usize * s;
        }
        Some(cell)
    }

    /// `base` less one step of `task`'s budget coordinate, unless its
    /// canonical budget did not move: evaporated, or capped by the slots
    /// remaining.
    #[inline]
    fn child_key(
        search: &Search<'_, Self>,
        k: usize,
        base: &Option<usize>,
        task: usize,
    ) -> Option<usize> {
        let cell = (*base)?;
        let evaporated = !search.s.hp[task] && k > search.last_lp_exec;
        let capped = search.s.budget[task] >= (search.n - 1 - k) as u64;
        let cell = if evaporated || capped {
            cell
        } else {
            cell - search.memo.stride[2 + task]
        };
        debug_assert_eq!(Some(cell), Self::key(search, k));
        Some(cell)
    }

    #[inline]
    fn lookup(&self, &cell: &usize) -> Option<Terms> {
        match self.slot_of[cell] {
            0 => None,
            p => Some(self.terms[p as usize - 1]),
        }
    }

    #[inline]
    fn entries(&self) -> usize {
        self.terms.len()
    }

    #[inline]
    fn store(&mut self, cell: usize, value: Terms) {
        self.terms.push(value);
        self.cells.push(cell as u32);
        self.slot_of[cell] = self.terms.len() as u32;
    }

    fn clear(&mut self) {
        for &c in &self.cells {
            self.slot_of[c as usize] = 0;
        }
        self.cells.clear();
        self.terms.clear();
    }
}

impl<K: PackedKey> MemoTable for PackedMemo<K> {
    type Key = K;

    #[inline]
    fn key(search: &Search<'_, Self>, k: usize) -> Option<K> {
        search.memo_key(k)
    }

    #[inline]
    fn lookup(&self, key: &K) -> Option<Terms> {
        self.get(key).copied()
    }

    #[inline]
    fn entries(&self) -> usize {
        self.len()
    }

    #[inline]
    fn store(&mut self, key: K, value: Terms) {
        self.insert(key, value);
    }

    fn clear(&mut self) {
        HashMap::clear(self);
    }
}

impl MemoTable for RecMemo {
    type Key = (usize, Vec<u64>);

    fn key(search: &Search<'_, Self>, k: usize) -> Option<Self::Key> {
        let budgets = (0..search.s.budget.len())
            .map(|j| search.canon_budget(j, k))
            .collect();
        Some((k, budgets))
    }

    fn lookup(&self, key: &Self::Key) -> Option<Terms> {
        self.get(key).copied()
    }

    fn entries(&self) -> usize {
        self.len()
    }

    fn store(&mut self, key: Self::Key, value: Terms) {
        self.insert(key, value);
    }

    fn clear(&mut self) {
        HashMap::clear(self);
    }
}

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
    /// Compact encoding for the certificate wire format: 0 = idle, else
    /// `1 + 2·task + urgent`.
    #[inline]
    fn code(self) -> u64 {
        match self {
            Choice::Idle => 0,
            Choice::Run { task, urgent } => 1 + 2 * task as u64 + u64::from(urgent),
        }
    }
}

/// Reusable per-engine working memory: cleared, never reallocated.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// The packed memo of windows whose key fits in 64 bits.
    memo64: PackedMemo<u64>,
    /// The packed memo of wider windows.
    memo128: PackedMemo<u128>,
    /// The directly indexed memo of windows whose box fits.
    dense: DenseMemo,
    /// Shape signature (see [`Scratch::load`]) of the completed solves
    /// whose values a memo holds; empty when no memo holds anything
    /// reusable.
    memo_shape: Vec<i64>,
    /// `true` when that memo is `dense`, not the packed memo of the
    /// shape's key width.
    memo_dense: bool,
    /// Shape signature of the current solve.
    shape: Vec<i64>,
    exec: Vec<i64>,
    cin: Vec<i64>,
    cout: Vec<i64>,
    ls: Vec<bool>,
    hp: Vec<bool>,
    budget: Vec<u64>,
    max_lower_hp: Vec<Option<i64>>,
    max_lower_i0: Vec<Option<i64>>,
    /// Per-task bit width of the budget field in the packed memo key
    /// (written by [`KeyLayout::new`]).
    budget_bits: Vec<u32>,
    /// Nearest lower-indexed task of the same interchangeability class
    /// (identical shape and protocol flags), if any. Used for symmetry
    /// breaking: a task is only placeable once every lower-indexed
    /// classmate's budget is exhausted.
    class_prev: Vec<Option<usize>>,
    /// The hopeless gate's per-task class roots, per-root hp budgets and
    /// nonzero per-class hp budgets (see [`Search::min_states_lower_bound`]).
    class_root: Vec<usize>,
    root_budget: Vec<u64>,
    hp_classes: Vec<u64>,
}

impl Scratch {
    /// Clears the per-window vectors; the memo survives (see
    /// [`Search::run`]).
    fn reset(&mut self, m: usize) {
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
        self.class_prev.clear();
    }

    /// Loads the per-task vectors of `w` and records its shape signature
    /// in `shape`: everything the search reads except the budgets and
    /// `N`, plus the key layout. Two solves with equal signatures assign
    /// every memo key the same suffix value. Returns the largest copy-in
    /// among cancellable hp tasks and among all cancellable tasks of
    /// `I_0` (free cancellations, rule R3 gating included).
    fn load(&mut self, w: &WindowModel, layout: KeyLayout, symmetry: bool) -> (i64, i64) {
        let m = w.tasks.len();
        self.reset(m);
        for t in &w.tasks {
            self.exec.push(t.exec.as_ticks());
            self.cin.push(t.copy_in.as_ticks());
            self.cout.push(t.copy_out.as_ticks());
            self.ls.push(t.ls);
            self.hp.push(t.hp);
            self.budget.push(t.budget);
        }

        let max_cancel_hp = (0..m)
            .filter(|&j| self.hp[j] && w.cancel_triggerable(j))
            .map(|j| self.cin[j])
            .max()
            .unwrap_or(0);
        let max_cancel_i0 = (0..m)
            .filter(|&j| w.cancel_triggerable(j))
            .map(|j| self.cin[j])
            .max()
            .unwrap_or(0);

        for j in 0..m {
            for k in 0..m {
                if k == j || !w.cancellation_enables(k, j) {
                    continue;
                }
                if self.hp[k] {
                    self.max_lower_hp[j] = Some(self.max_lower_hp[j].unwrap_or(0).max(self.cin[k]));
                }
                self.max_lower_i0[j] = Some(self.max_lower_i0[j].unwrap_or(0).max(self.cin[k]));
            }
        }

        // An inert LS marking behaves exactly like NLS; drop the flag so
        // the DP skips its urgent twin states and the fallback bound does
        // not charge phantom cancellations.
        for j in 0..m {
            if self.ls[j] && w.ls_inert(j) {
                self.ls[j] = false;
            }
        }

        // Interchangeability classes (symmetry breaking). Two tasks whose
        // shapes and protocol flags agree — and, for LS tasks, whose
        // cancellation-victim maxima agree — are exchangeable: swapping
        // their jobs in any placement permutes identical Δ contributions.
        // The DP therefore explores only the canonical order that consumes
        // the lower-indexed member first (see `Search::candidate`), collapsing
        // the `Π (b_c + 1)` per-member budget lattice of a class to the
        // `Σ b_c + 1` totals that actually matter. Computed after the
        // LS-inertness pass above so demoted tasks can join NLS classes.
        // Without symmetry breaking every task is its own class: the search
        // then enumerates exactly the unpruned state space (the
        // differential reference for
        // [`ExactEngine::without_symmetry_breaking`]).
        for j in 0..m {
            let prev = (0..j).rev().find(|&p| {
                self.exec[p] == self.exec[j]
                    && self.cin[p] == self.cin[j]
                    && self.cout[p] == self.cout[j]
                    && self.hp[p] == self.hp[j]
                    && self.ls[p] == self.ls[j]
                    && (!self.ls[j]
                        || (self.max_lower_hp[p] == self.max_lower_hp[j]
                            && self.max_lower_i0[p] == self.max_lower_i0[j]))
            });
            self.class_prev.push(prev.filter(|_| symmetry));
        }

        let opt = |v: Option<i64>| v.unwrap_or(-1);
        self.shape.clear();
        self.shape.extend([
            max_cancel_hp,
            max_cancel_i0,
            w.max_l.as_ticks(),
            w.max_u.as_ticks(),
            w.copy_in_i.as_ticks(),
            w.exec_i.as_ticks(),
            w.last_lp_exec_interval() as i64,
            i64::from(layout.slot_bits),
        ]);
        for j in 0..m {
            self.shape.extend([
                self.exec[j],
                self.cin[j],
                self.cout[j],
                i64::from(self.ls[j]),
                i64::from(self.hp[j]),
                opt(self.max_lower_hp[j]),
                opt(self.max_lower_i0[j]),
                self.class_prev[j].map_or(-1, |p| p as i64),
                i64::from(self.budget_bits[j]),
            ]);
        }
        (max_cancel_hp, max_cancel_i0)
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
    /// Cumulative search nodes across every solve (reported as
    /// [`DpStats::nodes`] by [`ExactEngine::solver_stats`]).
    nodes: std::cell::Cell<u64>,
    /// Solves that exhausted a search budget and degraded to the safe
    /// fallback cap (reported as [`DpStats::fallbacks`]).
    fallbacks: std::cell::Cell<u64>,
    /// `false` disables the interchangeability classes (differential
    /// testing only); see [`ExactEngine::without_symmetry_breaking`].
    symmetry: bool,
}

/// Prints the budget-exhaustion warning once per process; every further
/// occurrence is only counted in [`DpStats::fallbacks`].
fn warn_fallback_once() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        eprintln!(
            "pmcs-core: an exact-DP solve exhausted its search budget; \
             using the safe fallback cap instead (counted in \
             DpStats::fallbacks; this warning prints once per process)"
        );
    });
}

/// Cumulative effort counters of the exact DP.
///
/// Plain sums, so records merge across solves, engines and worker
/// threads ([`DpStats::merge`]) and are attributed to one analysis by
/// differencing cumulative snapshots ([`DpStats::since`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DpStats {
    /// DP search nodes expanded.
    pub nodes: u64,
    /// Solves that exhausted a search budget (memo entries, nodes, or
    /// the a-priori state-count gate) and degraded to the safe
    /// closed-form fallback cap. A nonzero count means some window
    /// bounds are conservative, not exact.
    pub fallbacks: u64,
}

impl DpStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: DpStats) {
        self.nodes += other.nodes;
        self.fallbacks += other.fallbacks;
    }

    /// The work performed between an `earlier` cumulative snapshot and
    /// this one (saturating, so stale snapshots cannot underflow).
    pub fn since(&self, earlier: &DpStats) -> DpStats {
        DpStats {
            nodes: self.nodes.saturating_sub(earlier.nodes),
            fallbacks: self.fallbacks.saturating_sub(earlier.fallbacks),
        }
    }

    /// `true` iff every counter is zero.
    pub fn is_empty(&self) -> bool {
        *self == DpStats::default()
    }
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

    /// Cumulative effort across every solve so far: the DP search nodes
    /// and budget fallbacks.
    pub fn solver_stats(&self) -> DpStats {
        DpStats {
            nodes: self.nodes.get(),
            fallbacks: self.fallbacks.get(),
        }
    }

    /// Solves `w` while recording the full memo table and an optimal
    /// placement witness, for certificate emission. Returns `None` when
    /// the search exceeds its budgets (the caller then emits a safe-cap
    /// certificate instead of an exact one).
    ///
    /// Runs the production search ([`Search::dp`]) with an explicit
    /// `(k, budgets)` map as its memo: no 128-bit packing
    /// limit, the same `max_states` entry budget and node backstop. The
    /// states come out sorted by key, and the carried production memo is
    /// left as it was.
    pub(crate) fn solve_recorded(&self, w: &WindowModel) -> Option<RecordedSolve> {
        if w.n() < 2 {
            return Some(RecordedSolve {
                value: degenerate_value(w)?,
                states: Vec::new(),
                witness: Vec::new(),
            });
        }
        let mut scratch = self.scratch.borrow_mut();
        let s = &mut *scratch;
        let layout = KeyLayout::new(w, self.max_states, &mut s.budget_bits);
        let max_cancel = s.load(w, layout, self.symmetry);
        let mut search = Search::new(w, layout, self.max_states, s, RecMemo::new(), max_cancel);
        if search.hopeless(true) {
            return None;
        }
        let root = search.dp(0, |s| RecMemo::key(s, 0));
        let value = search.root_value(root);
        self.nodes.set(self.nodes.get() + search.nodes);
        if search.aborted {
            return None;
        }
        let witness = search.traceback(value)?;
        // Sorted by key: the memo's hash order differs between runs, and
        // the emitted certificate must not.
        let mut states: Vec<RecordedState> = std::mem::take(&mut search.memo)
            .into_iter()
            .map(|((k, budgets), terms)| RecordedState { k, budgets, terms })
            .collect();
        states.sort_unstable_by(|a, b| (a.k, &a.budgets).cmp(&(b.k, &b.budgets)));
        Some(RecordedSolve {
            value,
            states,
            witness,
        })
    }
}

/// One memoized DP state captured by [`ExactEngine::solve_recorded`]:
/// slot, canonical budgets and the state's four max-plus terms.
#[derive(Debug, Clone)]
pub(crate) struct RecordedState {
    pub k: usize,
    pub budgets: Vec<u64>,
    pub terms: [i64; 4],
}

/// A recorded solve: the exact optimum, every memoized state, and one
/// placement (choice codes for slots `0 … N-2`) attaining the optimum.
#[derive(Debug, Clone)]
pub(crate) struct RecordedSolve {
    pub value: i64,
    pub states: Vec<RecordedState>,
    pub witness: Vec<u64>,
}

impl ExactEngine {
    /// Solves `w`, indexing its memo directly ([`DenseMemo`]) when the
    /// window uses the carried key layout and its box fits `dense_cells`,
    /// and hashing it by packed key otherwise. A memo carried from the
    /// previous solve of the same shape stays where it is, except that a
    /// dense memo whose box outgrows `dense_cells` moves into the packed
    /// table. Which table holds the states changes no visit, abort or
    /// result.
    fn solve(&self, w: &WindowModel, dense_cells: usize) -> Result<DelayBound, CoreError> {
        if w.n() < 2 {
            let delay = degenerate_value(w).ok_or(CoreError::TimeOverflow)?;
            return Ok(DelayBound {
                delay: Time::from_ticks(delay),
                exact: true,
                nodes: 0,
            });
        }
        let mut scratch = self.scratch.borrow_mut();
        let s = &mut *scratch;
        let layout = KeyLayout::new(w, self.max_states, &mut s.budget_bits);
        let max_cancel = s.load(w, layout, self.symmetry);
        let warm = layout.carry && s.shape == s.memo_shape;
        let carried_dense = warm && s.memo_dense;
        s.memo_dense = layout.carry
            && (carried_dense || !warm)
            && s.dense.fit(carried_dense, w.n(), &s.budget, dense_cells);
        if s.memo_dense {
            let memo = std::mem::take(&mut s.dense);
            let search = Search::new(w, layout, self.max_states, s, memo, max_cancel);
            self.finish(search, warm, |s, memo| s.dense = memo)
        } else if layout.bits <= u64::BITS {
            self.solve_packed::<u64>(w, layout, max_cancel, warm, carried_dense, s)
        } else {
            self.solve_packed::<u128>(w, layout, max_cancel, warm, carried_dense, s)
        }
    }

    /// Solves `w` on the packed memo of key width `K`. A cold solve starts
    /// from an empty table sized for the solve that filled it; a warm one
    /// takes over the dense memo's states when `carried_dense`.
    fn solve_packed<K: PackedKey>(
        &self,
        w: &WindowModel,
        layout: KeyLayout,
        max_cancel: (i64, i64),
        warm: bool,
        carried_dense: bool,
        s: &mut Scratch,
    ) -> Result<DelayBound, CoreError> {
        let mut memo = std::mem::take(K::table(s));
        if carried_dense {
            s.dense.drain_into(&mut memo, &s.budget_bits);
        } else if !warm {
            // A cold solve starts from a table sized for the solve that
            // filled it, not for the largest solve this engine has seen.
            let filled = memo.len();
            memo.clear();
            memo.shrink_to(filled);
        }
        let search = Search::new(w, layout, self.max_states, s, memo, max_cancel);
        self.finish(search, warm, |s, memo| *K::table(s) = memo)
    }

    /// Runs `search` and reports its bound; `put` hands the memo back to
    /// the scratch for the next solve of the same shape.
    fn finish<M: MemoTable>(
        &self,
        mut search: Search<'_, M>,
        warm: bool,
        put: fn(&mut Scratch, M),
    ) -> Result<DelayBound, CoreError> {
        let outcome = search.run(warm);
        put(search.s, std::mem::take(&mut search.memo));
        self.nodes.set(self.nodes.get() + search.nodes);
        if search.overflowed {
            return Err(CoreError::TimeOverflow);
        }
        let (delay, exact) = match outcome {
            Some(best) => (best, true),
            None => {
                let cap = search.fallback_bound().ok_or(CoreError::TimeOverflow)?;
                self.fallbacks.set(self.fallbacks.get() + 1);
                warn_fallback_once();
                (cap, false)
            }
        };
        Ok(DelayBound {
            delay: Time::from_ticks(delay),
            exact,
            nodes: search.nodes,
        })
    }
}

impl DelayEngine for ExactEngine {
    fn max_total_delay(&self, w: &WindowModel) -> Result<DelayBound, CoreError> {
        self.solve(w, DENSE_MAX_CELLS)
    }
}

/// Value of a window with fewer than two intervals (no DP); `None` on
/// overflow.
fn degenerate_value(w: &WindowModel) -> Option<i64> {
    let boundary = w.max_l.as_ticks().checked_add(w.max_u.as_ticks())?;
    Some(w.exec_i.as_ticks().max(boundary))
}

/// Minimal bit width of an unsigned value (at least 1).
#[inline]
fn bit_width(v: u64) -> u32 {
    (u64::BITS - v.leading_zeros()).max(1)
}

/// Node-budget backstop for instances too large to memoize.
const NODE_BUDGET: u64 = 100_000_000;

/// Minimum width of the slot field and of every higher-priority budget
/// field of a carried memo key. Fixed so the key layout does not change,
/// restarting the memo, each time a growing `N−1` needs one more bit.
const CARRY_FIELD_BITS: u32 = 7;

struct Search<'a, M> {
    /// `N_i(t)`.
    n: usize,
    s: &'a mut Scratch,
    /// The memo table of this solve (see [`MemoTable`]). A field rather
    /// than an argument of [`Search::dp`], whose arguments then still fit
    /// in registers: the extra argument cost the sweep measurable
    /// throughput.
    memo: M,
    /// Largest copy-in among cancellable hp tasks / among all cancellable
    /// tasks of `I_0` (free cancellations, rule R3 gating included).
    max_cancel_hp: i64,
    max_cancel_i0: i64,
    max_l: i64,
    max_u: i64,
    l_i: i64,
    c_i: i64,
    /// `X(N−1)`: the terms of the terminal slot, `Δ_{N−2} + Δ_{N−1}`.
    terminal: Terms,
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
    /// Visits of [`Search::dp`], memo hits and terminals included.
    nodes: u64,
    /// `nodes` value beyond which the current run aborts (the node budget
    /// of a cold re-run starts at the nodes already spent).
    node_limit: u64,
    aborted: bool,
    /// `true` when a delay sum left the `i64` tick range; the search is
    /// then aborted and its caller reports [`CoreError::TimeOverflow`].
    overflowed: bool,
    layout: KeyLayout,
}

/// Bit layout of a window's packed memo key (see [`Search::memo_key`]);
/// the per-task budget field widths live in `Scratch::budget_bits`.
#[derive(Debug, Clone, Copy)]
struct KeyLayout {
    /// Total key width; beyond 128 bits the DP runs unmemoized until the
    /// node budget trips.
    bits: u32,
    /// `true` when the key indexes slots by slots remaining in the fixed
    /// layout, so the memo may carry over to the next solve of the same
    /// shape; `false` for the adaptive layout indexed by slot.
    carry: bool,
    /// Bit width of the slot field.
    slot_bits: u32,
}

impl KeyLayout {
    /// Lays out the packing of `(slot, budgets)` into a memo
    /// key for `w`, writing the budget field widths into `budget_bits`.
    ///
    /// The carried layout keys the slot by slots remaining plus a two-bit
    /// gate and gives the slot and every hp budget a fixed width
    /// (canonical budgets never exceed `N−1`); lp budgets keep their own
    /// width. It is used when it fits in 128 bits and when a cold solve
    /// within the memo budget cannot trip the node budget (each memoized
    /// state expands at most `2m+1` children), the condition under which
    /// a carried solve completes exactly when a cold one does. Otherwise
    /// each field gets exactly the bits its range needs, keyed by slot
    /// index.
    fn new(w: &WindowModel, max_states: usize, budget_bits: &mut Vec<u32>) -> Self {
        let m = w.tasks.len();
        let n = w.n();
        let field = bit_width(n.saturating_sub(1) as u64).max(CARRY_FIELD_BITS);
        budget_bits.clear();
        budget_bits.extend(
            w.tasks
                .iter()
                .map(|t| if t.hp { field } else { bit_width(t.budget) }),
        );
        let key_bits =
            |slot_bits: u32, budget_bits: &[u32]| slot_bits + budget_bits.iter().sum::<u32>();
        let node_bound = (max_states as u64)
            .saturating_mul(2 * m as u64 + 1)
            .saturating_add(1);
        let mut slot_bits = field + 2;
        let carry = key_bits(slot_bits, budget_bits) <= u128::BITS && node_bound <= NODE_BUDGET;
        if !carry {
            slot_bits = bit_width(n as u64);
            budget_bits.clear();
            budget_bits.extend(w.tasks.iter().map(|t| bit_width(t.budget)));
        }
        KeyLayout {
            bits: key_bits(slot_bits, budget_bits),
            carry,
            slot_bits,
        }
    }
}

impl<'a, M: MemoTable> Search<'a, M> {
    /// A search of `w`, whose per-task vectors [`Scratch::load`] put in
    /// `scratch` and whose free-cancellation maxima it returned as
    /// `max_cancel`.
    fn new(
        w: &WindowModel,
        layout: KeyLayout,
        max_states: usize,
        scratch: &'a mut Scratch,
        memo: M,
        (max_cancel_hp, max_cancel_i0): (i64, i64),
    ) -> Self {
        let n = w.n();
        let remaining_budget: u64 = scratch.budget.iter().sum();
        let remaining_lp: u64 = (0..scratch.budget.len())
            .filter(|&j| !scratch.hp[j])
            .map(|j| scratch.budget[j])
            .sum();

        let (max_l, l_i, c_i) = (
            w.max_l.as_ticks(),
            w.copy_in_i.as_ticks(),
            w.exec_i.as_ticks(),
        );
        let mut search = Search {
            n,
            s: scratch,
            memo,
            max_cancel_hp,
            max_cancel_i0,
            max_l,
            max_u: w.max_u.as_ticks(),
            l_i,
            c_i,
            terminal: [c_i, max_l, 0, 0],
            last_lp_exec: w.last_lp_exec_interval(),
            remaining_budget,
            remaining_lp,
            max_states,
            nodes: 0,
            node_limit: NODE_BUDGET,
            aborted: false,
            overflowed: false,
            layout,
        };
        if n >= 2 {
            search.terminal[2] = search.add(l_i, c_i);
            search.terminal[3] = search.add(l_i, max_l);
        }
        search
    }

    /// `a + b`, or 0 with the search aborted as overflowed when the sum
    /// leaves the `i64` tick range.
    #[inline]
    fn add(&mut self, a: i64, b: i64) -> i64 {
        a.checked_add(b).unwrap_or_else(|| {
            self.overflowed = true;
            self.aborted = true;
            0
        })
    }

    #[inline]
    fn cpu(&mut self, c: Choice) -> i64 {
        match c {
            Choice::Idle => 0,
            Choice::Run { task, urgent } => {
                if urgent {
                    self.add(self.s.cin[task], self.s.exec[task])
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

    /// The candidate test of slot `k`: the copy-in `in_c` that `I_{k−1}`
    /// carries when task `task` runs in slot `k` (urgent or not, see
    /// [`Search::input`]), or `None` when that placement is not explored —
    /// no budget left, urgent without an LS flag (Constraint 4), outside
    /// the lp placement region (Constraints 3/14), urgent without a victim
    /// (Constraint 8), or out of the symmetry order.
    fn candidate(&self, k: usize, task: usize, urgent: bool) -> Option<i64> {
        if self.s.budget[task] == 0 {
            return None;
        }
        if urgent && !self.s.ls[task] {
            return None; // Constraint 4.
        }
        if !self.s.hp[task] && k > self.last_lp_exec {
            return None; // Constraints 3 / 14.
        }
        // Symmetry breaking: within an interchangeability class, jobs are
        // consumed in canonical (index) order. Any placement violating the
        // order maps to one respecting it by permuting the identical
        // classmates, so no optimum is lost. A blocked task never shrinks
        // the candidate set to empty: its lowest-indexed classmate with
        // remaining budget passes the same shape-determined checks.
        if self.s.class_prev[task].is_some_and(|p| self.s.budget[p] > 0) {
            return None;
        }
        self.input(k, Choice::Run { task, urgent })
    }

    /// The copy-in of `I_{k−1}` when slot `k` takes `c` (`in_c` of the
    /// module docs); 0 at the window start, `None` if `c` is infeasible.
    #[inline]
    fn input(&self, k: usize, c: Choice) -> Option<i64> {
        if k == 0 {
            Some(0)
        } else {
            self.in_at(k - 1, c)
        }
    }

    /// The idle gate of slot `k`, given whether any run candidate exists.
    ///
    /// Idling is dominated by placing a job (exchange argument: moving
    /// a job that would otherwise stay unplaced into the idle slot only
    /// grows Δ terms) EXCEPT when (a) a free cancellation can charge
    /// the preceding DMA slot with a copy-in larger than any placeable
    /// job's, or (b) the window has more slots left than *spendable*
    /// jobs (stranded lower-priority budgets excluded) — an idle slot
    /// is then inevitable and *where* it falls matters, because an
    /// idle slot's DMA still carries the copy-in of the next slot's
    /// job (the standalone copy-in interval of a blocking lp job: CPU
    /// idle, Δ_k = l_j + copy-out, execution following in I_{k+1}).
    /// When neither holds every spendable job fits in the remaining
    /// slots and no free cancellation pays: each idle-containing
    /// completion is weakly dominated by the no-idle completion that
    /// pulls the later jobs forward, so the idle branch is pruned.
    #[inline]
    fn idle_admissible(&self, k: usize, any_candidate: bool) -> bool {
        let idle_useful = k >= 1 && self.free_cancel(k - 1) > 0;
        let surplus_slot = (self.n - 1 - k) as u64 > self.usable_budget(k);
        !any_candidate || idle_useful || surplus_slot
    }

    /// Spends one job of `task` (the choice is taken).
    #[inline]
    fn take(&mut self, task: usize) {
        self.s.budget[task] -= 1;
        self.remaining_budget -= 1;
        self.remaining_lp -= u64::from(!self.s.hp[task]);
    }

    /// Undoes [`Search::take`].
    #[inline]
    fn restore(&mut self, task: usize) {
        self.s.budget[task] += 1;
        self.remaining_budget += 1;
        self.remaining_lp += u64::from(!self.s.hp[task]);
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

    /// A-priori abort gate: `true` when a certified lower bound on the
    /// states a completed DP run must memoize already exceeds the search
    /// budget, so running the search could only burn the node budget
    /// before degrading to the fallback anyway. With `memoized` the
    /// threshold is the memo-entry budget; without (the packed key does
    /// not fit in 128 bits) every distinct state costs at least one node,
    /// so the node backstop is the binding budget.
    fn hopeless(&mut self, memoized: bool) -> bool {
        let threshold = if memoized {
            self.max_states as u64
        } else {
            NODE_BUDGET
        };
        self.min_states_lower_bound(threshold) >= threshold
    }

    /// Certified lower bound (saturating) on the number of distinct
    /// `(slot, canonical budgets)` states a completed DP run visits and
    /// memoizes.
    ///
    /// Construction: consider only higher-priority interchangeability
    /// classes with total budget `B_c`, and every consumption vector `x`
    /// (`0 ≤ x_c ≤ B_c`) with `t = Σ x_c ≤ S` where
    /// `S = min(N−2, N−1−max_c B_c)`. All-run prefixes are never gated —
    /// hp placements are unconditional candidates, constrained only by
    /// the within-class consumption order — so for every `x` some
    /// explored prefix consumes exactly `x` and reaches slot `t`. Each
    /// such `(t, x)` is a distinct memoized state: the budgets determine
    /// `x` (within-class order is forced, so per-task budgets follow from
    /// per-class counts), and lp budgets are equal across prefixes of
    /// one slot. Slot capping is provably inactive
    /// (`N−1−k ≥ N−1−S ≥ max_c B_c`) and evaporation does not apply to hp
    /// tasks, so canonicalization collapses none of them.
    ///
    /// When idling is admissible at every interior slot
    /// (`max_cancel_i0 > 0` and `max_cancel_hp > 0` keep the idle-useful
    /// gate open), a prefix with `t ≥ 1` placements can additionally park
    /// idles after its first placement, reaching every slot `k ∈ [t, S]`
    /// with the same budgets — `S + 1 − t` distinct states in all.
    ///
    /// The count is a per-class convolution, `O(C·N)` for `C` classes;
    /// every clamp is downward (values saturate at `LIMIT`, which is
    /// monotone and 1-Lipschitz under the windowed prefix-sum
    /// differences), so the result never exceeds the true state count.
    /// The cheap short-circuit below `threshold` returns an
    /// *over*-approximation instead — callers only compare against
    /// `threshold`, and a value below it cannot trip the gate. A
    /// `threshold` of 0 always evaluates the certified count.
    fn min_states_lower_bound(&mut self, threshold: u64) -> u64 {
        let m = self.s.exec.len();
        let s = &mut *self.s;
        // Class roots and per-class hp budgets.
        s.class_root.clear();
        s.root_budget.clear();
        s.root_budget.resize(m, 0);
        for j in 0..m {
            let root = s.class_prev[j].map_or(j, |p| s.class_root[p]);
            s.class_root.push(root);
            if s.hp[j] {
                s.root_budget[root] += s.budget[j];
            }
        }
        s.hp_classes.clear();
        s.hp_classes.extend(
            (0..m)
                .filter(|&j| s.class_root[j] == j && s.hp[j] && s.root_budget[j] > 0)
                .map(|j| s.root_budget[j]),
        );
        let classes = &s.hp_classes;
        let Some(&bmax) = classes.iter().max() else {
            return 1;
        };
        let s_total = (self.n as i64 - 2).min(self.n as i64 - 1 - bmax as i64);
        if s_total <= 0 {
            return 1;
        }
        let s_total = s_total as usize;
        let spread = self.max_cancel_i0 > 0 && self.max_cancel_hp > 0;
        // Cheap over-approximation (vectors × slots) short-circuits the
        // common case; below the threshold it cannot trip the caller's
        // gate.
        let product = classes
            .iter()
            .try_fold(1u64, |acc, &b| acc.checked_mul(b + 1))
            .unwrap_or(u64::MAX)
            .saturating_mul(if spread { s_total as u64 } else { 1 });
        if product < threshold {
            return product.max(1);
        }
        const LIMIT: u64 = 1 << 40;
        // f[t] = number of consumption vectors with Σx = t, clamped at
        // LIMIT (downward, so differences stay lower bounds).
        let mut f = vec![0u64; s_total + 1];
        f[0] = 1;
        let mut pre = vec![0u64; s_total + 2];
        for &b in classes {
            for t in 0..=s_total {
                pre[t + 1] = (pre[t] + f[t]).min(LIMIT);
            }
            let width = b.min(s_total as u64) as usize;
            for t in 0..=s_total {
                f[t] = (pre[t + 1] - pre[t.saturating_sub(width)]).min(LIMIT);
            }
        }
        f.iter().enumerate().fold(0u64, |total, (t, &v)| {
            let slots = if spread && t >= 1 {
                (s_total + 1 - t) as u64
            } else {
                1
            };
            (total + v.saturating_mul(slots).min(LIMIT)).min(LIMIT)
        })
    }

    /// The terms `X(k, b)` of the exact maximum of `Δ_{k-1} + … + Δ_{N-1}`
    /// over all legal completions of slots `k … N-2` under the current
    /// budgets `b` (see the module docs for the value they encode). The
    /// only recursion of the engine (with [`Search::expand`]): production
    /// solves and certificate recording differ only in their memo table.
    ///
    /// This is one visit: the abort and node-budget checks, the terminal
    /// slot and the memo lookup. It is inlined into its callers, so a memo
    /// hit costs no call; only a miss calls [`Search::expand`].
    #[inline(always)]
    fn dp(&mut self, k: usize, key: impl FnOnce(&Self) -> Option<M::Key>) -> Terms {
        if self.aborted {
            return [0; 4];
        }
        self.nodes += 1;
        if self.nodes > self.node_limit {
            // Backstop for instances too large to memoize.
            self.aborted = true;
            return [0; 4];
        }

        if k == self.n - 1 {
            return self.terminal;
        }

        let key = key(self);
        if let Some(x) = key.as_ref().and_then(|key| self.memo.lookup(key)) {
            return x;
        }
        self.expand(k, key)
    }

    /// Expands slot `k` under the current budgets, which [`Search::dp`]
    /// did not find in the memo: folds every candidate and the idle gate
    /// into the four terms, and stores them under `key`.
    #[inline(never)]
    fn expand(&mut self, k: usize, key: Option<M::Key>) -> Terms {
        let mut x = [i64::MIN; 4];
        let mut any_candidate = false;
        // The key of the idle child, from which the table may derive the
        // others; none for the terminal slot.
        let base = if k + 2 < self.n {
            M::key(self, k + 1)
        } else {
            None
        };
        for task in 0..self.s.exec.len() {
            // A plain and an urgent placement lead to the same child
            // state; an urgent one is explored only where a plain one is.
            let Some(plain) = self.candidate(k, task, false) else {
                continue;
            };
            let urgent = if self.s.ls[task] {
                self.candidate(k, task, true)
            } else {
                None
            };
            any_candidate = true;
            self.take(task);
            let y = self.dp(k + 1, |s| M::child_key(s, k + 1, &base, task));
            self.restore(task);
            let (exec, out) = (self.s.exec[task], self.s.cout[task]);
            let (p, q) = self.fold(&mut x, exec, out, plain, y);
            if let Some(input) = urgent {
                // The urgent placement also copies out `out`, so its `Q_c`
                // is the plain one's, and its `P_c` adds the copy-in that
                // the CPU performs.
                let p = self.add(p, self.s.cin[task]);
                x[0] = x[0].max(p);
                x[2] = x[2].max(self.add(input, p));
                x[3] = x[3].max(self.add(input, q));
            }
        }
        if self.idle_admissible(k, any_candidate) {
            if let Some(input) = self.input(k, Choice::Idle) {
                let y = self.dp(k + 1, |_| base);
                self.fold(&mut x, 0, 0, input, y);
            }
        }

        if let Some(key) = key {
            if self.memo.entries() >= self.max_states {
                self.aborted = true;
            } else {
                self.memo.store(key, x);
            }
        }
        x
    }

    /// Folds a choice with CPU demand `cpu` and copy-out `out` (copy-in
    /// `input` of `I_{k−1}`, child terms `y`) into the terms `x` of its
    /// parent: `P_c = cpu_c + max(Y1, out_c + Y2)`, `Q_c = max(Y3, out_c +
    /// Y4)`, and `x` takes the maxima of `(P_c, Q_c, in_c + P_c, in_c +
    /// Q_c)`. Returns `(P_c, Q_c)`.
    #[inline]
    fn fold(&mut self, x: &mut Terms, cpu: i64, out: i64, input: i64, y: Terms) -> (i64, i64) {
        let y2 = self.add(out, y[1]);
        let p = self.add(cpu, y[0].max(y2));
        let q = y[2].max(self.add(out, y[3]));
        x[0] = x[0].max(p);
        x[1] = x[1].max(q);
        x[2] = x[2].max(self.add(input, p));
        x[3] = x[3].max(self.add(input, q));
        (p, q)
    }

    /// The value `V(p, o1, o2)` of terms `x` for a slot whose predecessor
    /// has CPU demand `p` and copy-out `o1`, and whose `Δ_{k−1}` copies
    /// out `o2`.
    #[inline]
    fn value(&mut self, x: Terms, p: i64, o1: i64, o2: i64) -> i64 {
        let a = self.add(p, x[0]);
        let b = self.add(p, o1);
        let b = self.add(b, x[1]);
        let c = self.add(o2, x[2]);
        let d = self.add(o1, o2);
        let d = self.add(d, x[3]);
        a.max(b).max(c).max(d)
    }

    /// The window optimum from the root terms: slot 0 has no `Δ_{−1}`, and
    /// slot 1's `Δ_0` copies out `max_u` (Constraint 12).
    #[inline]
    fn root_value(&mut self, x: Terms) -> i64 {
        let b = self.add(self.max_u, x[1]);
        x[0].max(b)
    }

    /// Packs `(slot, canonical budgets)` into a memo key of width `K` with
    /// the [`KeyLayout`] computed before the search; `None` when the
    /// layout exceeds 128 bits (the caller then runs without memoization
    /// until the node budget trips). In the carried layout the slot is
    /// `(N−1−k, min(k, 2))`: slots remaining plus the gate through which
    /// `k` enters the search (`k = 0`, `k = 1`; every `k ≥ 2` lies past the
    /// lp placement region, whose last slot is 0 or 1). Budgets enter in
    /// canonical form ([`Search::canon_budget`]) so states with provably
    /// equal suffix optima share one entry; canonical values never exceed
    /// the raw budget or `N−1`, so the precomputed field widths still fit.
    #[inline]
    fn memo_key<K: PackedKey>(&self, k: usize) -> Option<K> {
        let layout = self.layout;
        if layout.bits > u128::BITS {
            return None;
        }
        debug_assert!(layout.bits <= K::BITS);
        let slot = if layout.carry {
            (((self.n - 1 - k) as u64) << 2) | k.min(2) as u64
        } else {
            k as u64
        };
        debug_assert!(bit_width(slot) <= layout.slot_bits);
        let mut key = K::from(slot);
        for (j, &bits) in self.s.budget_bits.iter().enumerate() {
            key = (key << bits) | K::from(self.canon_budget(j, k));
        }
        Some(key)
    }

    /// Safe upper bound on the window's total delay, used when the DP
    /// aborts: the tighter of
    ///
    /// * per-slot caps: every middle interval is below
    ///   `max(max demand, l̂+û)`;
    /// * decoupled sums: `Σ_k Δ_k ≤ Σ_k Δ^cpu_k + Σ_k (Δ^in_k + Δ^out_k)`,
    ///   with the DMA side budgeted by the copies each job performs once,
    ///   plus cancellation charges and the window-start `max_u` boundary.
    ///
    /// Computed at the root only: full budgets, all `N−1` placement slots,
    /// in checked arithmetic: a cap that overflows is dropped, and `None`
    /// means both overflowed.
    fn fallback_bound(&self) -> Option<i64> {
        let m = self.s.exec.len();
        let demand = |j: usize| {
            if self.s.ls[j] {
                self.s.cin[j].checked_add(self.s.exec[j])
            } else {
                Some(self.s.exec[j])
            }
        };
        let per_slot = || -> Option<i64> {
            let mut max_demand = 0;
            for j in 0..m {
                max_demand = max_demand.max(demand(j)?);
            }
            let slot_cap = max_demand.max(self.max_l.checked_add(self.max_u)?);
            let last2_cap = max_demand
                .max(self.l_i.checked_add(self.max_u)?)
                .checked_add(self.c_i.max(self.max_l.checked_add(self.max_u)?))?;
            // Δ_0 … Δ_{N−1}: the two terminal intervals plus `N−2` middle ones.
            slot_cap
                .checked_mul(self.n as i64 - 2)?
                .checked_add(last2_cap)
        };
        let decoupled = || -> Option<i64> {
            let mut cpu_sum = 0i64;
            let mut dma_sum = 0i64;
            let mut ls_jobs = 0i64;
            for j in 0..m {
                let b = i64::try_from(self.s.budget[j]).ok()?;
                cpu_sum = cpu_sum.checked_add(b.checked_mul(demand(j)?)?)?;
                let copies = self.s.cin[j].checked_add(self.s.cout[j])?;
                dma_sum = dma_sum.checked_add(b.checked_mul(copies)?)?;
                if self.s.ls[j] {
                    ls_jobs = ls_jobs.checked_add(b)?;
                }
            }
            // Cancellation charges can fill slots without executions and
            // slots preceding urgent executions.
            let slots = (self.n - 1) as i64;
            let jobs = i64::try_from(self.remaining_budget).ok()?;
            let free_slots = (slots - jobs).max(0).checked_add(ls_jobs)?;
            [
                dma_sum,
                free_slots.checked_mul(self.max_cancel_i0)?,
                self.c_i,
                self.l_i,
                self.max_l,
                self.max_u,
            ]
            .into_iter()
            .try_fold(cpu_sum, i64::checked_add)
        };
        [per_slot(), decoupled()].into_iter().flatten().min()
    }
}

impl<M: MemoTable> Search<'_, M> {
    /// Solves the window (`N ≥ 2`), on the memo of the previous solve when
    /// `warm` (same shape, see the module docs) and otherwise on an empty
    /// memo. `None` when the search aborted, as `overflowed` or out of
    /// budget.
    fn run(&mut self, warm: bool) -> Option<i64> {
        // Until this solve completes, the memo holds no reusable values.
        self.s.memo_shape.clear();
        if self.hopeless(self.layout.bits <= u128::BITS) {
            self.aborted = true;
            return None;
        }
        let mut x = self.dp(0, |s| M::key(s, 0));
        if self.aborted && warm && !self.overflowed {
            // The carried entries crowded the memo budget: re-run cold.
            self.memo.clear();
            self.aborted = false;
            self.node_limit = self.nodes + NODE_BUDGET;
            x = self.dp(0, |s| M::key(s, 0));
        }
        let v = self.root_value(x);
        if self.aborted {
            return None;
        }
        if self.layout.carry {
            std::mem::swap(&mut self.s.memo_shape, &mut self.s.shape);
        }
        Some(v)
    }
}

impl Search<'_, RecMemo> {
    /// Recovers one optimal placement from a recorded memo: walks forward
    /// from the root through the search's own candidate test and idle
    /// gate, taking at each slot the first explored choice whose score
    /// plus child value reproduces the state's recorded optimum.
    fn traceback(&mut self, total: i64) -> Option<Vec<u64>> {
        let mut witness = Vec::with_capacity(self.n - 1);
        let (mut prev, mut prev2) = (Choice::Idle, Choice::Idle);
        let mut v = total;
        for k in 0..self.n - 1 {
            let (cand, d) = self.optimal_choice(k, prev, prev2, v)?;
            witness.push(cand.code());
            v -= d;
            prev2 = prev;
            prev = cand;
        }
        Some(witness)
    }

    /// The first choice of slot `k`, in search order, whose `Δ_{k−1}`
    /// contribution `d` plus its child's recorded value equals `v`, with
    /// its budget taken; `None` when no explored choice attains `v`.
    fn optimal_choice(
        &mut self,
        k: usize,
        prev: Choice,
        prev2: Choice,
        v: i64,
    ) -> Option<(Choice, i64)> {
        let mut any_candidate = false;
        for task in 0..self.s.exec.len() {
            for urgent in [false, true] {
                let Some(input) = self.candidate(k, task, urgent) else {
                    continue;
                };
                any_candidate = true;
                let cand = Choice::Run { task, urgent };
                let d = self.score(k, prev, prev2, input);
                self.take(task);
                if self.child_value(k, cand, prev) == Some(v - d) {
                    return Some((cand, d));
                }
                self.restore(task);
            }
        }
        if !self.idle_admissible(k, any_candidate) {
            return None;
        }
        let d = self.score(k, prev, prev2, self.input(k, Choice::Idle)?);
        (self.child_value(k, Choice::Idle, prev) == Some(v - d)).then_some((Choice::Idle, d))
    }

    /// Contribution of `Δ_{k-1}` once slot `k`'s choice, whose copy-in
    /// `I_{k−1}` carries is `input`, is fixed; `0` at the window start.
    fn score(&mut self, k: usize, prev: Choice, prev2: Choice, input: i64) -> i64 {
        if k == 0 {
            return 0;
        }
        let dma = self.add(input, self.out_at(k - 1, prev2));
        self.cpu(prev).max(dma)
    }

    /// Value of the state after choosing `cand` at slot `k` (budget
    /// taken), at the concrete `prev` of the walk: its recorded terms
    /// evaluated at `cand`'s CPU demand and copy-out and `I_k`'s copy-out.
    fn child_value(&mut self, k: usize, cand: Choice, prev: Choice) -> Option<i64> {
        let y = if k + 1 == self.n - 1 {
            self.terminal
        } else {
            let key = RecMemo::key(self, k + 1)?;
            self.memo.lookup(&key)?
        };
        let (p, o1, o2) = (self.cpu(cand), self.out_of(cand), self.out_at(k, prev));
        Some(self.value(y, p, o1, o2))
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

    /// A window's key width, as [`ExactEngine::max_total_delay`] picks it.
    fn key_bits(w: &WindowModel) -> u32 {
        KeyLayout::new(w, DEFAULT_MAX_STATES, &mut Vec::new()).bits
    }

    /// Solves `w` with a long-lived engine that hashes every memo (twice,
    /// so the second solve runs on the carried memo), a fresh engine and
    /// the recorder, and checks that all three agree.
    fn assert_engines_agree(long_lived: &ExactEngine, w: &WindowModel) {
        let fresh = ExactEngine::default().max_total_delay(w).expect("fresh");
        assert!(fresh.exact);
        for _ in 0..2 {
            let warm = long_lived.solve(w, 0).expect("long-lived");
            assert_eq!((warm.delay, warm.exact), (fresh.delay, fresh.exact));
        }
        let rec = long_lived.solve_recorded(w).expect("recording solve");
        assert_eq!(rec.value, fresh.delay.as_ticks());
    }

    /// `n − 1` hp tasks ahead of the lowest-priority `τ_{n−1}`, in two
    /// shapes plus one LS task, so the window stays cheap to solve.
    fn chain_set(n: u32) -> TaskSet {
        let tasks = (0..n)
            .map(|i| {
                let exec = 20 + 5 * i64::from(i % 2) + 40 * i64::from(i + 1 == n);
                test_task(i, exec, 2, 2, 400 + 150 * i64::from(i), i, i == 0)
            })
            .collect();
        TaskSet::new(tasks).expect("valid task set")
    }

    #[test]
    fn key_width_follows_the_layout() {
        let long_lived = ExactEngine::default();
        // The lowest-priority task of an n = 9 set: a 9-bit slot field
        // and eight 7-bit hp budgets, 65 bits.
        let set = chain_set(9);
        let wide = WindowModel::build(&set, TaskId(8), WindowCase::Nls, Time::from_ticks(100))
            .expect("τ8 is in the set");
        assert_eq!(key_bits(&wide), 65);
        // The next task up (the lowest-priority task of an n = 8 set,
        // with one lp blocker) fits a u64 key: 9 + 7·7 + 1 bits.
        let narrow = WindowModel::build(&set, TaskId(7), WindowCase::Nls, Time::from_ticks(300))
            .expect("τ7 is in the set");
        assert_eq!(key_bits(&narrow), 59);
        for w in [&wide, &narrow, &wide, &narrow] {
            assert_engines_agree(&long_lived, w);
        }
        let scratch = long_lived.scratch.borrow();
        assert!(!scratch.memo64.is_empty() && !scratch.memo128.is_empty());
    }

    #[test]
    fn cold_solves_start_from_a_right_sized_table() {
        let engine = ExactEngine::default();
        let solve = |set: &TaskSet, id: u32, t: i64| {
            let w = WindowModel::build(set, TaskId(id), WindowCase::Nls, Time::from_ticks(t))
                .expect("task id is in the set");
            assert!(key_bits(&w) <= 64);
            engine.solve(&w, 0).expect("engine result");
            let scratch = engine.scratch.borrow();
            (scratch.memo64.len(), scratch.memo64.capacity())
        };
        let set = chain_set(8);
        let (large, _) = solve(&set, 5, 900);
        let (small, _) = solve(&set, 1, 60);
        assert!(small * 16 < large, "small {small} vs large {large} states");
        // The next cold solve starts from a table sized for the small
        // solve before it, not for the large one.
        let (_, capacity) = solve(&set, 2, 80);
        assert!(
            capacity * 4 < large,
            "capacity {capacity} after {large} states"
        );
    }

    #[test]
    fn delay_overflow_is_an_error() {
        // Copy phases of 2^61 ticks: every interval fits the tick range,
        // but their sum in the DP does not.
        let big = 1i64 << 61;
        let set = TaskSet::new(vec![
            test_task(0, 10, big, big, i64::MAX / 2, 0, false),
            test_task(1, 10, big, big, i64::MAX / 2, 1, false),
        ])
        .expect("valid task set");
        assert_eq!(
            crate::analyze_task_set(&set, &ExactEngine::default()),
            Err(CoreError::TimeOverflow)
        );
        // A starved engine skips the DP; its fallback cap overflows too.
        let w = WindowModel::build(&set, TaskId(1), WindowCase::Nls, Time::from_ticks(10))
            .expect("τ1 is in the set");
        assert_eq!(
            ExactEngine::with_max_states(1).max_total_delay(&w),
            Err(CoreError::TimeOverflow)
        );
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

    /// A long-lived engine solving through [`ExactEngine::solve`] with a
    /// fixed dense-table limit, recording every call's window and bound.
    struct Recorded {
        engine: ExactEngine,
        dense_cells: usize,
        calls: std::cell::RefCell<Vec<(WindowModel, DelayBound)>>,
    }

    impl Recorded {
        fn new(max_states: usize, dense_cells: usize) -> Self {
            Recorded {
                engine: ExactEngine::with_max_states(max_states),
                dense_cells,
                calls: Default::default(),
            }
        }

        fn bounds(&self) -> Vec<DelayBound> {
            self.calls.borrow().iter().map(|&(_, b)| b).collect()
        }
    }

    impl DelayEngine for Recorded {
        fn max_total_delay(&self, w: &WindowModel) -> Result<DelayBound, CoreError> {
            let b = self.engine.solve(w, self.dense_cells)?;
            self.calls.borrow_mut().push((w.clone(), b));
            Ok(b)
        }
    }

    /// Analyzes `sets` in order on a long-lived engine that hashes every
    /// memo and on one long-lived engine per dense-table limit in
    /// `limits`, and checks that every call returns the same bound (delay,
    /// exactness and nodes) and that the engines count the same effort
    /// and fallbacks. Returns the hashing engine.
    fn assert_tables_agree(sets: &[TaskSet], max_states: usize, limits: &[usize]) -> Recorded {
        let run = |dense_cells: usize| {
            let engine = Recorded::new(max_states, dense_cells);
            let reports: Vec<_> = sets
                .iter()
                .map(|set| crate::analyze_task_set(set, &engine))
                .collect();
            (engine, reports)
        };
        let (hashed, expected) = run(0);
        for &limit in limits {
            let (dense, reports) = run(limit);
            assert_eq!(reports, expected, "limit {limit}: reports differ");
            assert_eq!(
                dense.bounds(),
                hashed.bounds(),
                "limit {limit}: bounds differ"
            );
            assert_eq!(
                dense.engine.solver_stats(),
                hashed.engine.solver_stats(),
                "limit {limit}"
            );
        }
        hashed
    }

    /// `count` sets of `n` tasks from the workload generator.
    fn generated_sets(n: usize, utilization: f64, gamma: f64, count: u64) -> Vec<TaskSet> {
        let config = pmcs_workload::TaskSetConfig {
            n,
            utilization,
            gamma,
            ..Default::default()
        };
        (0..count)
            .map(|i| {
                let seed = pmcs_workload::derive_seed(7, n as u64, i);
                pmcs_workload::TaskSetGenerator::new(config.clone(), seed).generate()
            })
            .collect()
    }

    /// Dense-table limits that put some windows on each side: the
    /// production limit, and smaller ones that fixed points cross.
    const LIMITS: [usize; 3] = [DENSE_MAX_CELLS, 2_048, 256];

    #[test]
    fn dense_and_hashed_memos_agree_call_for_call() {
        let mut sets = Vec::new();
        for u in [0.1, 0.2, 0.25] {
            for gamma in [0.1, 0.3] {
                sets.extend(generated_sets(5, u, gamma, 4));
            }
        }
        for n in 6..=8 {
            sets.extend(generated_sets(n, 0.3, 0.3, 2));
        }
        let hashed = assert_tables_agree(&sets, DEFAULT_MAX_STATES, &LIMITS);
        assert_eq!(hashed.engine.solver_stats().fallbacks, 0);
    }

    /// The cells of `w`'s box: 3 gates, `N−1` slot counts and every
    /// task's canonical budgets.
    fn box_cells(w: &WindowModel) -> usize {
        let slots = w.n() - 1;
        w.tasks
            .iter()
            .map(|t| t.budget.min(slots as u64) as usize + 1)
            .product::<usize>()
            * 3
            * slots
    }

    #[test]
    fn a_dense_memo_that_outgrows_the_limit_moves_to_the_hash_table() {
        // One task's fixed-point windows: the same shape with growing
        // budgets and `N`, so every solve after the first is carried.
        let set = chain_set(5);
        let windows: Vec<WindowModel> = [300, 500, 650]
            .into_iter()
            .map(|t| {
                WindowModel::build(&set, TaskId(4), WindowCase::Nls, Time::from_ticks(t))
                    .expect("τ4 is in the set")
            })
            .collect();
        let limit = box_cells(&windows[1]);
        assert!(box_cells(&windows[0]) < limit && limit < box_cells(&windows[2]));
        let dense = ExactEngine::default();
        let hashed = ExactEngine::default();
        for (i, w) in windows.iter().enumerate() {
            let got = dense.solve(w, limit).expect("dense");
            assert_eq!(got, hashed.solve(w, 0).expect("hashed"), "window {i}");
            assert_eq!(dense.scratch.borrow().memo_dense, i < 2, "window {i}");
            let fresh = ExactEngine::default().max_total_delay(w).expect("fresh");
            assert_eq!(got.nodes < fresh.nodes, i > 0, "window {i} is carried");
        }
        let (dense, hashed) = (dense.scratch.borrow(), hashed.scratch.borrow());
        assert!(dense.dense.entries() == 0);
        assert_eq!(dense.memo64.len(), hashed.memo64.len());
        for (key, terms) in hashed.memo64.iter() {
            assert_eq!(dense.memo64.get(key), Some(terms));
        }
    }

    #[test]
    fn starved_memos_abort_and_rerun_alike() {
        let mut sets = Vec::new();
        for u in [0.15, 0.25] {
            sets.extend(generated_sets(5, u, 0.3, 6));
        }
        for max_states in [32, 128] {
            let hashed = assert_tables_agree(&sets, max_states, &LIMITS);
            assert!(hashed.engine.solver_stats().fallbacks > 0);
            // A carried solve that overflows the budget is re-run cold, so
            // it costs more nodes than a fresh engine's solve.
            let reruns = hashed
                .calls
                .borrow()
                .iter()
                .filter(|(w, b)| {
                    let cold = ExactEngine::with_max_states(max_states)
                        .max_total_delay(w)
                        .expect("fresh");
                    b.nodes > cold.nodes
                })
                .count();
            assert!(reruns > 0, "max_states {max_states}: no re-run");
        }
    }

    /// The hopeless gate's certified state count of `w` (no
    /// short-circuit) and the memo entries of a cold solve of `w`.
    fn bound_and_entries(w: &WindowModel) -> (u64, usize) {
        let mut scratch = Scratch::default();
        let layout = KeyLayout::new(w, DEFAULT_MAX_STATES, &mut scratch.budget_bits);
        let max_cancel = scratch.load(w, layout, true);
        let mut search = Search::new(
            w,
            layout,
            DEFAULT_MAX_STATES,
            &mut scratch,
            RecMemo::new(),
            max_cancel,
        );
        let bound = search.min_states_lower_bound(0);
        let engine = ExactEngine::default();
        assert!(engine.max_total_delay(w).expect("engine result").exact);
        let scratch = engine.scratch.borrow();
        let entries = if scratch.memo_dense {
            scratch.dense.entries()
        } else {
            scratch.memo64.len() + scratch.memo128.len()
        };
        (bound, entries)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The hopeless gate never fires on a window that fits: its
        /// certified count is at most the states a cold solve memoizes.
        #[test]
        fn state_lower_bound_never_exceeds_a_cold_solve(
            specs in proptest::collection::vec(
                (1i64..=30, 0i64..=10, 0i64..=10, 30i64..=120, proptest::prelude::any::<bool>()),
                2..=5,
            ),
            under in 0usize..5,
            ls_case in proptest::prelude::any::<bool>(),
            t in 1i64..=200,
        ) {
            let tasks = specs
                .iter()
                .enumerate()
                .map(|(i, &(c, l, u, period, ls))| test_task(i as u32, c, l, u, period, i as u32, ls))
                .collect();
            let set = TaskSet::new(tasks).expect("valid task set");
            let case = if ls_case { WindowCase::LsCaseA } else { WindowCase::Nls };
            let under = TaskId((under % specs.len()) as u32);
            let w = WindowModel::build(&set, under, case, Time::from_ticks(t)).expect("task in set");
            let (bound, entries) = bound_and_entries(&w);
            proptest::prop_assert!(bound <= entries as u64, "bound {} > {} entries", bound, entries);
        }
    }

    #[test]
    fn state_lower_bound_counts_vectors_and_idle_spread() {
        // Three hp classes of two jobs each ahead of τ4, one LS task
        // keeping free cancellations (and so the idle spread) open: the
        // certified count is well above one state per slot, and a cold
        // solve memoizes at least that many.
        let set = TaskSet::new(vec![
            test_task(0, 10, 4, 2, 60, 0, true),
            test_task(1, 12, 3, 3, 70, 1, false),
            test_task(2, 14, 5, 1, 80, 2, false),
            test_task(3, 9, 6, 2, 90, 3, false),
            test_task(4, 30, 2, 2, 1_000, 4, false),
        ])
        .expect("valid task set");
        let w = WindowModel::build(&set, TaskId(4), WindowCase::Nls, Time::from_ticks(100))
            .expect("τ4 is in the set");
        let (bound, entries) = bound_and_entries(&w);
        assert!(bound > w.n() as u64, "bound {bound} for N = {}", w.n());
        assert!(bound <= entries as u64, "bound {bound} > {entries} entries");
    }
}
