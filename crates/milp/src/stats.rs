//! Solver-effort accounting.
//!
//! Before the staged-pipeline refactor, branch-and-bound node counts and
//! LP iteration counts died inside the solver: `MilpSolution` carried a
//! bare node count and everything else was discarded. [`SolverStats`] is
//! the uniform effort record threaded from the LP solver through
//! [`BranchAndBound`](crate::BranchAndBound) up to the MILP engine that
//! solves the paper's formulation.
//!
//! The counters are plain sums, so records can be merged across solves,
//! engines and worker threads ([`SolverStats::merge`]) and attributed to
//! a single analysis by differencing cumulative snapshots
//! ([`SolverStats::since`]).

use std::fmt;

/// Cumulative solver-effort counters.
///
/// Every field is a monotone count; the struct is closed under
/// [`merge`](SolverStats::merge) and [`since`](SolverStats::since).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolverStats {
    /// Branch-and-bound nodes explored.
    pub bb_nodes: u64,
    /// LP relaxations solved (one per B&B node that reached the LP solver).
    pub lp_solves: u64,
    /// Simplex pivots performed across all LP solves, bound flips
    /// included.
    pub lp_pivots: u64,
    /// LP solves that were offered a starting basis.
    pub warm_start_attempts: u64,
    /// Offered bases that were actually adopted (factorizable and
    /// complete); a miss falls back to a cold start.
    pub warm_start_hits: u64,
    /// Variables eliminated by presolve fixed-variable substitution.
    pub presolve_vars_fixed: u64,
    /// Rows removed by presolve (singleton conversion or redundancy).
    pub presolve_rows_removed: u64,
    /// Variable bounds tightened by presolve.
    pub presolve_bounds_tightened: u64,
}

impl SolverStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: SolverStats) {
        self.bb_nodes += other.bb_nodes;
        self.lp_solves += other.lp_solves;
        self.lp_pivots += other.lp_pivots;
        self.warm_start_attempts += other.warm_start_attempts;
        self.warm_start_hits += other.warm_start_hits;
        self.presolve_vars_fixed += other.presolve_vars_fixed;
        self.presolve_rows_removed += other.presolve_rows_removed;
        self.presolve_bounds_tightened += other.presolve_bounds_tightened;
    }

    /// The work performed between an `earlier` cumulative snapshot and
    /// this one (saturating, so stale snapshots cannot underflow).
    pub fn since(&self, earlier: &SolverStats) -> SolverStats {
        SolverStats {
            bb_nodes: self.bb_nodes.saturating_sub(earlier.bb_nodes),
            lp_solves: self.lp_solves.saturating_sub(earlier.lp_solves),
            lp_pivots: self.lp_pivots.saturating_sub(earlier.lp_pivots),
            warm_start_attempts: self
                .warm_start_attempts
                .saturating_sub(earlier.warm_start_attempts),
            warm_start_hits: self.warm_start_hits.saturating_sub(earlier.warm_start_hits),
            presolve_vars_fixed: self
                .presolve_vars_fixed
                .saturating_sub(earlier.presolve_vars_fixed),
            presolve_rows_removed: self
                .presolve_rows_removed
                .saturating_sub(earlier.presolve_rows_removed),
            presolve_bounds_tightened: self
                .presolve_bounds_tightened
                .saturating_sub(earlier.presolve_bounds_tightened),
        }
    }

    /// `warm_start_hits / warm_start_attempts`, or `0.0` before the
    /// first attempt.
    pub fn warm_hit_rate(&self) -> f64 {
        if self.warm_start_attempts == 0 {
            0.0
        } else {
            self.warm_start_hits as f64 / self.warm_start_attempts as f64
        }
    }

    /// `true` iff every counter is zero.
    pub fn is_empty(&self) -> bool {
        *self == SolverStats::default()
    }
}

impl fmt::Display for SolverStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nodes, {} LP solves, {} pivots, warm {}/{} ({:.0}%), \
             presolve −{} vars −{} rows {} bounds",
            self.bb_nodes,
            self.lp_solves,
            self.lp_pivots,
            self.warm_start_hits,
            self.warm_start_attempts,
            self.warm_hit_rate() * 100.0,
            self.presolve_vars_fixed,
            self.presolve_rows_removed,
            self.presolve_bounds_tightened,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_every_counter() {
        let mut a = SolverStats {
            bb_nodes: 1,
            lp_solves: 2,
            lp_pivots: 3,
            warm_start_attempts: 4,
            warm_start_hits: 2,
            presolve_vars_fixed: 5,
            presolve_rows_removed: 6,
            presolve_bounds_tightened: 7,
        };
        a.merge(a);
        assert_eq!(a.bb_nodes, 2);
        assert_eq!(a.lp_pivots, 6);
        assert_eq!(a.presolve_bounds_tightened, 14);
        assert!((a.warm_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn since_recovers_the_difference() {
        let early = SolverStats {
            bb_nodes: 10,
            lp_solves: 5,
            ..SolverStats::default()
        };
        let mut late = early;
        late.merge(SolverStats {
            bb_nodes: 3,
            lp_pivots: 9,
            ..SolverStats::default()
        });
        let diff = late.since(&early);
        assert_eq!(diff.bb_nodes, 3);
        assert_eq!(diff.lp_solves, 0);
        assert_eq!(diff.lp_pivots, 9);
        // A stale (larger) snapshot saturates instead of wrapping.
        assert_eq!(early.since(&late).bb_nodes, 0);
    }

    #[test]
    fn display_and_emptiness() {
        assert!(SolverStats::default().is_empty());
        assert_eq!(SolverStats::default().warm_hit_rate(), 0.0);
        let s = SolverStats {
            warm_start_attempts: 4,
            warm_start_hits: 3,
            ..SolverStats::default()
        };
        assert!(!s.is_empty());
        assert!(s.to_string().contains("3/4"));
    }
}
