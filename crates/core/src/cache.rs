//! Window-level delay-bound caching for long-lived services.
//!
//! The hot path of every analysis is the delay-maximization call
//! [`DelayEngine::max_total_delay`]. The window model depends on the
//! tentative window length only through the per-task job budgets
//! `η_j(t) + 1`, so windows of equal content have equal bounds and can be
//! memoized. Within one batch analysis that buys nothing: the fixed point
//! already skips the solve when it rebuilds its previous window (see
//! [`WcrtAnalyzer`](crate::WcrtAnalyzer)), and other repeats are rare —
//! a promotion changes the LS flag of a competitor in nearly every
//! window of the next greedy round, and across independently generated
//! task sets windows almost never coincide. Batch drivers therefore run
//! the bare engine. The cache pays off where the *same* windows come back
//! across requests: `pmcs-serve` shares one cache between all its
//! connections, whose sessions keep re-analyzing sets that differ by one
//! task.
//!
//! [`SharedCachedEngine`] wraps any [`DelayEngine`] with a
//! [`SharedDelayCache`]: a sharded map from a canonical [`WindowKey`] to
//! the engine's [`DelayBound`], shared by every engine handed the same
//! `Arc` (a one-shard cache serves a single engine privately). The key
//! captures exactly the data a delay engine may consume (case, interval
//! count, per-task phases/budgets/markings, boundary terms) and *nothing
//! else* — task identifiers are deliberately excluded, and priorities are
//! normalized to ranks, so windows that merely relabel tasks share one
//! entry.
//!
//! ## Invalidation under LS promotions
//!
//! The greedy algorithm of Section VI flips one task `τ_j` from NLS to LS
//! per round. No explicit invalidation is needed: the `ls` marking of
//! every competing task is part of the key, so windows whose content
//! changed simply miss and are re-solved, while windows the promotion
//! cannot have influenced keep hitting. The key additionally
//! *canonicalizes* markings that are provably irrelevant: an LS flag on a
//! competing task `τ_j` only matters if `τ_j` can inflict extra delay
//! through it, i.e. if its copy-in is nonzero (urgent executions inflate
//! CPU demand by `l_j`) or some window task has strictly lower priority
//! (cancellation victims exist, rules R3/R4) — the inertness rule of
//! [`WindowModel::ls_inert`], which the DP engine applies too. A promotion of a
//! zero-copy-in, lowest-priority task therefore changes the key of *no*
//! window of the other tasks: their re-analysis in the next greedy round
//! hits the cache window by window.
//!
//! ## Determinism
//!
//! Two windows with equal keys are indistinguishable to a correct engine,
//! so serving a memoized [`DelayBound`] never changes analysis results;
//! `SharedCachedEngine` is property-tested against its inner engine in
//! `tests/cache_consistency.rs`. The only observable difference is the
//! `nodes` effort counter of a hit (the stored value is returned).

use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

use crate::error::CoreError;
use crate::wcrt::{DelayBound, DelayEngine};
use crate::window::{WindowCase, WindowModel};

/// One competing task as seen by the cache key: everything a delay engine
/// may read, with the identifier dropped and the priority rank-normalized.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct TaskKey {
    exec: i64,
    copy_in: i64,
    copy_out: i64,
    /// Canonicalized LS marking (see the module docs): the raw flag is
    /// kept only when it can influence the optimum.
    ls: bool,
    hp: bool,
    /// Rank of the task's priority among all priorities in the window
    /// (0 = highest). Engines compare priorities, never their raw values.
    prio_rank: u32,
    budget: u64,
}

/// Canonical content key of a [`WindowModel`].
///
/// Equal keys imply semantically identical windows: every quantity a
/// delay engine consumes is either present verbatim or derivable from the
/// key. See the module docs for the canonicalization rules.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WindowKey {
    case: WindowCase,
    n_intervals: usize,
    tasks: Vec<TaskKey>,
    exec_i: i64,
    copy_in_i: i64,
    copy_out_i: i64,
    prio_rank_i: u32,
    max_l: i64,
    max_u: i64,
}

impl WindowKey {
    /// Builds the canonical key of a window.
    pub fn of(w: &WindowModel) -> Self {
        // Rank-normalize priorities: collect every priority in the window
        // (competitors plus the task under analysis), dedupe, and replace
        // each priority by its index in the sorted list.
        let mut prios: Vec<u32> = w.tasks.iter().map(|t| t.priority.0).collect();
        prios.push(w.priority_i.0);
        prios.sort_unstable();
        prios.dedup();
        let rank = |p: u32| -> u32 {
            prios
                .binary_search(&p)
                .expect("priority present by construction") as u32
        };
        let tasks: Vec<TaskKey> = w
            .tasks
            .iter()
            .enumerate()
            .map(|(j, t)| TaskKey {
                exec: t.exec.as_ticks(),
                copy_in: t.copy_in.as_ticks(),
                copy_out: t.copy_out.as_ticks(),
                ls: t.ls && !w.ls_inert(j),
                hp: t.hp,
                prio_rank: rank(t.priority.0),
                budget: t.budget,
            })
            .collect();
        WindowKey {
            case: w.case,
            n_intervals: w.n_intervals,
            tasks,
            exec_i: w.exec_i.as_ticks(),
            copy_in_i: w.copy_in_i.as_ticks(),
            copy_out_i: w.copy_out_i.as_ticks(),
            prio_rank_i: rank(w.priority_i.0),
            max_l: w.max_l.as_ticks(),
            max_u: w.max_u.as_ticks(),
        }
    }
}

/// Hit/miss/eviction counters of a [`SharedDelayCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through to the inner engine.
    pub misses: u64,
    /// Entries dropped to honor the entry budget.
    pub evictions: u64,
}

impl CacheStats {
    /// `hits / (hits + misses)`, or `0.0` before the first lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Accumulates another counter set into this one.
    ///
    /// Aggregation rule for sharded and multi-worker setups: merge either
    /// the per-shard counters *or* the per-engine local counters, never
    /// both — each lookup is counted exactly once on each side, so mixing
    /// the two double-counts.
    pub fn merge(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.1}%)",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0
        )
    }
}

/// One memoized bound plus the access stamp driving LRU eviction.
#[derive(Debug, Clone, Copy)]
struct ShardEntry {
    bound: DelayBound,
    stamp: u64,
}

/// One mutex-guarded shard of a [`SharedDelayCache`].
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<WindowKey, ShardEntry>,
    stats: CacheStats,
    /// Monotonic per-shard access counter; every lookup or insert stamps
    /// the touched entry, so stamps order entries by recency.
    tick: u64,
    max_entries: usize,
}

impl Shard {
    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Drops the least-recently-used half of the shard and returns how
    /// many entries were evicted. Stamps are unique within a shard, so
    /// the median stamp splits the map deterministically.
    fn evict_lru_half(&mut self) -> u64 {
        let before = self.map.len();
        if before == 0 {
            return 0;
        }
        let mut stamps: Vec<u64> = self.map.values().map(|e| e.stamp).collect();
        let mid = stamps.len() / 2;
        let (_, cutoff, _) = stamps.select_nth_unstable(mid);
        let cutoff = *cutoff;
        self.map.retain(|_, e| e.stamp >= cutoff);
        let evicted = (before - self.map.len()) as u64;
        self.stats.evictions += evicted;
        evicted
    }
}

/// Process-wide window-bound cache shared across threads.
///
/// The map is split into N mutex-guarded shards; a lookup hashes the
/// [`WindowKey`], locks only the owning shard, and never blocks traffic
/// to other shards. Each shard evicts its least-recently-used *half* when
/// its entry budget is exceeded, so a long-running server keeps its
/// hottest window shapes warm indefinitely. A one-shard cache
/// (`with_config(1, DEFAULT_CAPACITY)`) is the private cache of a single
/// engine.
///
/// Sharing is sound for the same reason per-worker caching is: keys are
/// content-addressed, so a bound stored by one thread is exactly the
/// bound any other thread would have computed. Only telemetry (hit
/// counts, eviction counts) depends on interleaving — analysis rows do
/// not.
///
/// Two views of the counters exist and must not be mixed (see
/// [`CacheStats::merge`]): [`SharedDelayCache::stats`] aggregates the
/// authoritative per-shard counters, while each
/// [`SharedCachedEngine`] keeps a private local tally of its own
/// lookups for double-count-free per-worker merging.
#[derive(Debug)]
pub struct SharedDelayCache {
    shards: Vec<Mutex<Shard>>,
}

/// Default shard count of a [`SharedDelayCache`].
pub const DEFAULT_SHARDS: usize = 16;

/// Default total entry budget of a [`SharedDelayCache`].
pub const DEFAULT_CAPACITY: usize = 1 << 20;

impl Default for SharedDelayCache {
    fn default() -> Self {
        SharedDelayCache::with_config(DEFAULT_SHARDS, DEFAULT_CAPACITY)
    }
}

impl SharedDelayCache {
    /// Creates a cache with `shards` shards holding at most
    /// `max_entries` entries in total (split evenly across shards; both
    /// arguments are clamped to at least 1).
    pub fn with_config(shards: usize, max_entries: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = (max_entries / shards).max(1);
        SharedDelayCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        max_entries: per_shard,
                        ..Shard::default()
                    })
                })
                .collect(),
        }
    }

    fn shard_of(&self, key: &WindowKey) -> &Mutex<Shard> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        let idx = (hasher.finish() as usize) % self.shards.len();
        &self.shards[idx]
    }

    fn lock(shard: &Mutex<Shard>) -> std::sync::MutexGuard<'_, Shard> {
        // A poisoned shard only means another thread panicked mid-update
        // of a HashMap insert; the map itself is still coherent.
        shard.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up a window, counting the outcome on the owning shard and
    /// refreshing the entry's recency stamp.
    pub fn lookup(&self, key: &WindowKey) -> Option<DelayBound> {
        let mut shard = Self::lock(self.shard_of(key));
        let stamp = shard.touch();
        match shard.map.get_mut(key) {
            Some(entry) => {
                entry.stamp = stamp;
                let bound = entry.bound;
                shard.stats.hits += 1;
                Some(bound)
            }
            None => {
                shard.stats.misses += 1;
                None
            }
        }
    }

    /// Stores a bound, evicting the owning shard's LRU half first if its
    /// entry budget is exhausted. Returns the number of evicted entries.
    pub fn insert(&self, key: WindowKey, bound: DelayBound) -> u64 {
        let mut shard = Self::lock(self.shard_of(&key));
        let evicted = if shard.map.len() >= shard.max_entries {
            shard.evict_lru_half()
        } else {
            0
        };
        let stamp = shard.touch();
        shard.map.insert(key, ShardEntry { bound, stamp });
        evicted
    }

    /// Aggregated counters across all shards.
    ///
    /// Each lookup and eviction is recorded on exactly one shard, so the
    /// per-shard sum is exact even under concurrent access — no lookup
    /// is counted twice and none is lost.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            total.merge(Self::lock(shard).stats);
        }
        total
    }

    /// Number of memoized windows across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| Self::lock(s).map.len()).sum()
    }

    /// `true` iff no window is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Drops all entries in all shards (counters are kept; the drop is
    /// not counted as an eviction).
    pub fn clear(&self) {
        for shard in &self.shards {
            Self::lock(shard).map.clear();
        }
    }
}

/// A [`DelayEngine`] adapter memoizing bounds in a [`SharedDelayCache`].
///
/// Works with any inner engine ([`ExactEngine`](crate::ExactEngine) or
/// an audit layer around it). A multi-threaded server wraps each
/// connection's own inner engine around one shared
/// `Arc<SharedDelayCache>`, so a window solved for any connection is a
/// hit for all of them. Each adapter additionally keeps *local*
/// hit/miss/eviction counters (its own lookups only); merging those
/// per-engine locals sums to exactly the shared cache's own
/// [`SharedDelayCache::stats`] — counting each lookup once.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use pmcs_core::{analyze_task_set, ExactEngine, SharedCachedEngine, SharedDelayCache};
/// use pmcs_core::window::test_task;
/// use pmcs_model::TaskSet;
///
/// let set = TaskSet::new(vec![
///     test_task(0, 10, 2, 2, 100, 0, false),
///     test_task(1, 20, 4, 4, 200, 1, false),
/// ])?;
/// let cache = Arc::new(SharedDelayCache::default());
/// let engine = SharedCachedEngine::new(ExactEngine::default(), cache);
/// let first = analyze_task_set(&set, &engine)?;
/// assert!(first.schedulable());
/// let cold = engine.stats();
/// // A second analysis of the same set finds every window in the cache.
/// let second = analyze_task_set(&set, &engine)?;
/// assert_eq!(first, second);
/// assert_eq!(engine.stats().misses, cold.misses);
/// assert!(engine.stats().hits > cold.hits);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct SharedCachedEngine<E> {
    inner: E,
    cache: Arc<SharedDelayCache>,
    local: Cell<CacheStats>,
}

impl<E> SharedCachedEngine<E> {
    /// Wraps an engine around an existing shared cache.
    pub fn new(inner: E, cache: Arc<SharedDelayCache>) -> Self {
        SharedCachedEngine {
            inner,
            cache,
            local: Cell::new(CacheStats::default()),
        }
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// The shared cache this adapter reads and writes.
    pub fn shared(&self) -> &Arc<SharedDelayCache> {
        &self.cache
    }

    /// This adapter's local counters (only lookups made through it).
    pub fn stats(&self) -> CacheStats {
        self.local.get()
    }
}

impl<E: DelayEngine> DelayEngine for SharedCachedEngine<E> {
    fn max_total_delay(&self, window: &WindowModel) -> Result<DelayBound, CoreError> {
        let key = WindowKey::of(window);
        let mut local = self.local.get();
        if let Some(bound) = self.cache.lookup(&key) {
            local.hits += 1;
            self.local.set(local);
            return Ok(bound);
        }
        let bound = self.inner.max_total_delay(window)?;
        local.misses += 1;
        local.evictions += self.cache.insert(key, bound);
        self.local.set(local);
        Ok(bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExactEngine;
    use crate::window::test_task;
    use pmcs_model::{Sensitivity, TaskId, TaskSet, Time};

    fn window(set: &TaskSet, id: u32, case: WindowCase, t: i64) -> WindowModel {
        WindowModel::build(set, TaskId(id), case, Time::from_ticks(t)).expect("task in set")
    }

    fn set3() -> TaskSet {
        TaskSet::new(vec![
            test_task(0, 10, 2, 2, 100, 0, false),
            test_task(1, 20, 4, 4, 200, 1, true),
            test_task(2, 30, 6, 6, 300, 2, false),
        ])
        .expect("valid set")
    }

    #[test]
    fn identical_windows_share_a_key() {
        let set = set3();
        let a = WindowKey::of(&window(&set, 1, WindowCase::Nls, 100));
        let b = WindowKey::of(&window(&set, 1, WindowCase::Nls, 100));
        assert_eq!(a, b);
    }

    #[test]
    fn window_lengths_with_equal_budgets_share_a_key() {
        let set = set3();
        // η_0(101) = η_0(140) = 2 (period 100): same budgets, same key.
        let a = WindowKey::of(&window(&set, 2, WindowCase::Nls, 101));
        let b = WindowKey::of(&window(&set, 2, WindowCase::Nls, 140));
        assert_eq!(a, b);
        // Crossing an arrival boundary changes the budgets and the key.
        let c = WindowKey::of(&window(&set, 2, WindowCase::Nls, 201));
        assert_ne!(a, c);
    }

    #[test]
    fn case_and_marking_are_part_of_the_key() {
        let set = set3();
        let nls = WindowKey::of(&window(&set, 0, WindowCase::Nls, 50));
        let ls = WindowKey::of(&window(&set, 0, WindowCase::LsCaseA, 50));
        assert_ne!(nls, ls);
        // Promoting τ2 (nonzero copy-in) changes the key of windows that
        // contain it.
        let promoted = set
            .with_sensitivity(TaskId(2), Sensitivity::Ls)
            .expect("τ2 in set");
        let after = WindowKey::of(&window(&promoted, 0, WindowCase::Nls, 50));
        assert_ne!(nls, after);
    }

    #[test]
    fn irrelevant_ls_flag_is_canonicalized_away() {
        // τ2: zero copy-in, lowest priority → its LS flag cannot matter
        // in τ0's window.
        let tasks = vec![
            test_task(0, 10, 2, 2, 100, 0, false),
            test_task(1, 20, 4, 4, 200, 1, false),
            test_task(2, 30, 0, 6, 300, 2, false),
        ];
        let set = TaskSet::new(tasks).expect("valid set");
        let before = WindowKey::of(&window(&set, 0, WindowCase::Nls, 50));
        let promoted = set
            .with_sensitivity(TaskId(2), Sensitivity::Ls)
            .expect("τ2 in set");
        let after = WindowKey::of(&window(&promoted, 0, WindowCase::Nls, 50));
        assert_eq!(before, after, "zero-copy-in lowest-priority LS flag");
    }

    #[test]
    fn priorities_are_rank_normalized() {
        // Two sets identical up to a uniform priority shift share keys.
        let mk = |base: u32| {
            TaskSet::new(vec![
                test_task(0, 10, 2, 2, 100, base, false),
                test_task(1, 20, 4, 4, 200, base + 7, false),
            ])
            .expect("valid set")
        };
        let a = WindowKey::of(&window(&mk(0), 1, WindowCase::Nls, 60));
        let b = WindowKey::of(&window(&mk(5), 1, WindowCase::Nls, 60));
        assert_eq!(a, b);
    }

    fn private_engine() -> SharedCachedEngine<ExactEngine> {
        SharedCachedEngine::new(
            ExactEngine::default(),
            Arc::new(SharedDelayCache::with_config(1, DEFAULT_CAPACITY)),
        )
    }

    #[test]
    fn one_shard_cache_hits_and_agrees() {
        let set = set3();
        let w = window(&set, 2, WindowCase::Nls, 150);
        let plain = ExactEngine::default();
        let cached = private_engine();
        let reference = plain.max_total_delay(&w).expect("engine result");
        let first = cached.max_total_delay(&w).expect("engine result");
        let second = cached.max_total_delay(&w).expect("engine result");
        assert_eq!(first.delay, reference.delay);
        assert_eq!(second.delay, reference.delay);
        assert_eq!(first.exact, second.exact);
        let stats = cached.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(cached.shared().len(), 1);
        assert_eq!(cached.shared().shard_count(), 1);
    }

    #[test]
    fn capacity_exhaustion_evicts_but_stays_correct() {
        let set = set3();
        let cached = SharedCachedEngine::new(
            ExactEngine::default(),
            Arc::new(SharedDelayCache::with_config(1, 2)),
        );
        let w1 = window(&set, 2, WindowCase::Nls, 101);
        let b1 = cached.max_total_delay(&w1).expect("engine result");
        for t in [201, 301] {
            let _ = cached.max_total_delay(&window(&set, 2, WindowCase::Nls, t));
        }
        // w1 was the least recently used entry and got evicted;
        // re-solving must still agree.
        assert_eq!(cached.stats().evictions, 1);
        let again = cached.max_total_delay(&w1).expect("engine result");
        assert_eq!(b1.delay, again.delay);
        assert_eq!(cached.stats().misses, 4);
        assert!(cached.shared().len() <= 2);
    }

    #[test]
    fn stats_merge_and_display() {
        let mut a = CacheStats {
            hits: 3,
            misses: 1,
            evictions: 2,
        };
        a.merge(CacheStats {
            hits: 1,
            misses: 3,
            evictions: 1,
        });
        assert_eq!(
            a,
            CacheStats {
                hits: 4,
                misses: 4,
                evictions: 3,
            }
        );
        assert!(a.to_string().contains("50.0%"));
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn shared_cache_hits_and_agrees() {
        let set = set3();
        let w = window(&set, 2, WindowCase::Nls, 150);
        let plain = ExactEngine::default();
        let shared = Arc::new(SharedDelayCache::default());
        let a = SharedCachedEngine::new(ExactEngine::default(), Arc::clone(&shared));
        let b = SharedCachedEngine::new(ExactEngine::default(), Arc::clone(&shared));
        let reference = plain.max_total_delay(&w).expect("engine result");
        let first = a.max_total_delay(&w).expect("engine result");
        // The second adapter hits the entry stored by the first.
        let second = b.max_total_delay(&w).expect("engine result");
        assert_eq!(first.delay, reference.delay);
        assert_eq!(second.delay, reference.delay);
        assert_eq!(a.stats().misses, 1);
        assert_eq!(b.stats().hits, 1);
        // Per-engine locals sum to the shard-side aggregate.
        let mut merged = a.stats();
        merged.merge(b.stats());
        assert_eq!(merged, shared.stats());
        assert_eq!(shared.len(), 1);
    }

    #[test]
    fn shared_cache_evicts_lru_half_per_shard() {
        // One shard with room for 4 entries: the 5th insert evicts the
        // two least-recently-used entries.
        let cache = SharedDelayCache::with_config(1, 4);
        let set = set3();
        let mk = |t: i64| WindowKey::of(&window(&set, 2, WindowCase::Nls, t));
        let bound = DelayBound {
            delay: Time::from_ticks(1),
            exact: true,
            nodes: 0,
        };
        // Distinct budgets (period 100/200/300) → distinct keys.
        let keys: Vec<WindowKey> = [101, 201, 301, 401, 501].iter().map(|&t| mk(t)).collect();
        for key in keys.iter().take(4) {
            assert_eq!(cache.insert(key.clone(), bound), 0);
        }
        // Refresh key 0 so keys 1 and 2 become the LRU half.
        assert!(cache.lookup(&keys[0]).is_some());
        assert_eq!(cache.insert(keys[4].clone(), bound), 2);
        assert_eq!(cache.len(), 3);
        assert!(cache.lookup(&keys[0]).is_some(), "recently used survives");
        assert!(cache.lookup(&keys[1]).is_none(), "LRU entry evicted");
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn shared_cache_is_coherent_across_threads() {
        let set = set3();
        let shared = Arc::new(SharedDelayCache::default());
        let reference: Vec<i64> = (0..8)
            .map(|k| {
                let w = window(&set, 2, WindowCase::Nls, 101 + 100 * k);
                ExactEngine::default()
                    .max_total_delay(&w)
                    .expect("engine result")
                    .delay
                    .as_ticks()
            })
            .collect();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let set = set3();
                std::thread::spawn(move || {
                    let engine = SharedCachedEngine::new(ExactEngine::default(), shared);
                    let got: Vec<i64> = (0..8)
                        .map(|k| {
                            let w = window(&set, 2, WindowCase::Nls, 101 + 100 * k);
                            engine
                                .max_total_delay(&w)
                                .expect("engine result")
                                .delay
                                .as_ticks()
                        })
                        .collect();
                    (got, engine.stats())
                })
            })
            .collect();
        let mut merged = CacheStats::default();
        for handle in handles {
            let (got, stats) = handle.join().expect("worker thread");
            assert_eq!(got, reference, "shared cache must not change bounds");
            merged.merge(stats);
        }
        // Every lookup was counted exactly once on both sides.
        assert_eq!(merged, shared.stats());
        assert_eq!(merged.hits + merged.misses, 32);
        // The first lookup of each distinct window misses; racing
        // threads may add further misses on the same key.
        assert!(merged.misses >= 8, "each distinct window misses once");
    }
}
