//! Session-scoped reuse of presolved programs and warm-start bases.
//!
//! The incremental solve path presolves a window program
//! once per *structure* and warm-starts every re-solve from the previous
//! round's basis. A single cached slot suffices within one WCRT fixed
//! point — consecutive rounds share a structure — but a long-running
//! analysis session interleaves queries over many task configurations,
//! revisiting a handful of window structures over and over. A
//! [`BasisStore`] keeps the N most-recently-used structures alive, keyed
//! by the caller's structural fingerprint, so a structure seen by *any*
//! earlier query re-solves without re-presolving and with a warm basis.
//!
//! Reuse is sound by construction: the fingerprint hashes everything
//! about the problem except the mutable budget-row right-hand sides, and
//! a warm-start basis is only ever a hint — the simplex re-solves to
//! optimality from whatever starting point it is given.

use std::collections::HashMap;
use std::fmt;

use crate::presolve::PresolvedProblem;
use crate::revised::Basis;

/// One cached structure: the presolved program plus the basis its next
/// re-solve warm-starts from.
#[derive(Debug, Clone)]
pub struct StoredProgram {
    /// The presolved program; budget-row RHS values are mutated in place
    /// between re-solves via [`PresolvedProblem::update_rhs`].
    pub program: Box<PresolvedProblem>,
    /// Root basis of the most recent solve of this structure, if any.
    pub basis: Option<Basis>,
    stamp: u64,
}

/// Reuse counters of a [`BasisStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BasisStoreStats {
    /// Lookups that found their structure cached (presolve skipped).
    pub hits: u64,
    /// Lookups that required a fresh presolve.
    pub misses: u64,
    /// Structures dropped to honor the entry budget.
    pub evictions: u64,
}

impl BasisStoreStats {
    /// `hits / (hits + misses)`, or `0.0` before the first lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl fmt::Display for BasisStoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} presolves reused / {} fresh ({:.1}%), {} evicted",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.evictions
        )
    }
}

/// A bounded most-recently-used map from structural fingerprints to
/// [`StoredProgram`]s.
///
/// The generalization of the single-slot program cache: it answers for
/// any of the last N distinct structures instead of only the most recent
/// one. When full, the least-recently-looked-up structure is evicted.
#[derive(Debug, Clone)]
pub struct BasisStore {
    map: HashMap<u64, StoredProgram>,
    max_entries: usize,
    tick: u64,
    stats: BasisStoreStats,
}

/// Default number of structures a [`BasisStore`] keeps alive.
pub const DEFAULT_STORE_ENTRIES: usize = 64;

impl Default for BasisStore {
    fn default() -> Self {
        BasisStore::with_capacity(DEFAULT_STORE_ENTRIES)
    }
}

impl BasisStore {
    /// Creates a store holding at most `max_entries` structures
    /// (clamped to at least 1).
    pub fn with_capacity(max_entries: usize) -> Self {
        BasisStore {
            map: HashMap::new(),
            max_entries: max_entries.max(1),
            tick: 0,
            stats: BasisStoreStats::default(),
        }
    }

    /// Looks a fingerprint up, counting the outcome and refreshing the
    /// entry's recency on a hit. Returns `true` iff the structure is
    /// cached; fetch it with [`entry_mut`](BasisStore::entry_mut).
    pub fn lookup(&mut self, fingerprint: u64) -> bool {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(&fingerprint) {
            Some(entry) => {
                entry.stamp = tick;
                self.stats.hits += 1;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Mutable access to a cached structure (no counting).
    pub fn entry_mut(&mut self, fingerprint: u64) -> Option<&mut StoredProgram> {
        self.map.get_mut(&fingerprint)
    }

    /// Stores a freshly presolved structure, evicting the
    /// least-recently-used one first when at capacity.
    pub fn insert(&mut self, fingerprint: u64, program: Box<PresolvedProblem>) {
        while self.map.len() >= self.max_entries {
            let lru = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(&fp, _)| fp)
                .expect("non-empty map at capacity");
            self.map.remove(&lru);
            self.stats.evictions += 1;
        }
        self.tick += 1;
        self.map.insert(
            fingerprint,
            StoredProgram {
                program,
                basis: None,
                stamp: self.tick,
            },
        );
    }

    /// Number of cached structures.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` iff no structure is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Reuse counters.
    pub fn stats(&self) -> BasisStoreStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presolve::{presolve, PresolveOutcome};
    use crate::problem::{Cmp, Problem};

    fn presolved(rhs: f64) -> Box<PresolvedProblem> {
        let mut p = Problem::maximize();
        let x = p.continuous("x", 0.0, 10.0);
        p.constrain_named(Some("row"), x, Cmp::Le, rhs);
        p.set_objective(x);
        match presolve(&p, &[0]).expect("presolve") {
            PresolveOutcome::Reduced(prog) => prog,
            PresolveOutcome::Infeasible(_) => panic!("feasible by construction"),
        }
    }

    #[test]
    fn lookup_counts_and_insert_retrieves() {
        let mut store = BasisStore::with_capacity(4);
        assert!(!store.lookup(42));
        store.insert(42, presolved(5.0));
        assert!(store.lookup(42));
        assert!(store.entry_mut(42).is_some());
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 0));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let mut store = BasisStore::with_capacity(2);
        store.insert(1, presolved(1.0));
        store.insert(2, presolved(2.0));
        // Touch 1 so 2 becomes the LRU entry.
        assert!(store.lookup(1));
        store.insert(3, presolved(3.0));
        assert_eq!(store.len(), 2);
        assert!(store.entry_mut(1).is_some(), "recently used survives");
        assert!(store.entry_mut(2).is_none(), "LRU structure evicted");
        assert_eq!(store.stats().evictions, 1);
    }

    #[test]
    fn stats_display_mentions_reuse() {
        let mut store = BasisStore::default();
        let _ = store.lookup(7);
        assert!(store.stats().to_string().contains("fresh"));
        assert!(store.is_empty());
    }
}
