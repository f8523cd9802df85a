//! Shared-bus contention model with per-core bandwidth regulation.
//!
//! The paper analyzes each core in isolation: every core owns a private
//! DMA engine and a crossbar provides contention-free point-to-point
//! paths to memory, so all contention is folded into the per-task copy
//! bounds `l_i`/`u_i`. Real QorIQ-class targets are not that generous —
//! the per-core DMA engines share one bus/DRAM controller. [`BusModel`]
//! makes that assumption explicit and optional:
//!
//! * [`BusModel::contention_free`] — the paper's crossbar. Transfers
//!   from different cores never interfere; this is the default for
//!   every platform built without an explicit bus, so single-core and
//!   legacy multi-core experiments are bit-for-bit unchanged.
//! * [`BusModel::regulated`] — a MemGuard-style bandwidth-regulated
//!   shared bus (Agrawal et al., arXiv 1809.05921): every core `p_m`
//!   holds a budget of `Q_m` bus ticks that replenishes at every
//!   multiple of a global period `P`. One tick of bus service moves one
//!   tick worth of DMA data; a core whose budget is exhausted stalls —
//!   even if the bus is idle — until the next replenishment (hard,
//!   non-work-conserving regulation, which is what makes per-core
//!   interference bounds compositional).
//!
//! The admission constraint `Σ_m Q_m ≤ P` is validated at construction:
//! it guarantees that a continuously backlogged core always receives
//! its full budget within every period, which the contention analysis
//! in `pmcs-core` relies on.

use std::fmt;

use crate::error::ModelError;
use crate::platform::CoreId;
use crate::time::Time;

/// Memory-bus model of a platform: either the paper's contention-free
/// crossbar or a shared bus under per-core bandwidth regulation.
///
/// # Example
///
/// ```
/// use pmcs_model::{BusModel, CoreId, Time};
///
/// let bus = BusModel::regulated(
///     Time::from_ticks(100),
///     vec![Time::from_ticks(30), Time::from_ticks(30)],
/// )?;
/// assert!(!bus.is_contention_free());
/// assert_eq!(bus.budget(CoreId(1)), Some(Time::from_ticks(30)));
/// # Ok::<(), pmcs_model::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusModel {
    /// Replenishment period `P`; `Time::ZERO` encodes the
    /// contention-free crossbar (no regulation, no budgets).
    period: Time,
    /// Per-core budgets `Q_m`, indexed by core; empty for the crossbar.
    budgets: Vec<Time>,
}

impl BusModel {
    /// The paper's contention-free crossbar: per-core DMA transfers
    /// never interfere. This is the default bus of every platform.
    pub fn contention_free() -> Self {
        BusModel {
            period: Time::ZERO,
            budgets: Vec::new(),
        }
    }

    /// A shared bus regulated with per-core budgets `budgets[m] = Q_m`
    /// replenished at every multiple of `period = P`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidBus`] unless `P > 0`, at least one
    /// budget is given, every budget is at least one tick, and the
    /// budgets sum to at most `P` (so every backlogged core drains its
    /// full budget each period regardless of arbitration order) without
    /// leaving the tick range.
    pub fn regulated(period: Time, budgets: Vec<Time>) -> Result<Self, ModelError> {
        if period <= Time::ZERO {
            return Err(ModelError::InvalidBus {
                reason: format!("replenishment period must be positive, got {period}"),
            });
        }
        if budgets.is_empty() {
            return Err(ModelError::InvalidBus {
                reason: "a regulated bus needs at least one per-core budget".to_string(),
            });
        }
        for (m, &q) in budgets.iter().enumerate() {
            if q < Time::TICK {
                return Err(ModelError::InvalidBus {
                    reason: format!("budget of core {} must be at least one tick, got {q}", m),
                });
            }
        }
        let total = budgets
            .iter()
            .try_fold(Time::ZERO, |acc, &q| acc.checked_add(q))
            .ok_or_else(|| ModelError::InvalidBus {
                reason: "budgets sum beyond the tick range".to_string(),
            })?;
        if total > period {
            return Err(ModelError::InvalidBus {
                reason: format!("budgets sum to {total}, exceeding the period {period}"),
            });
        }
        Ok(BusModel { period, budgets })
    }

    /// A regulated bus giving each of `cores` cores the same `budget`
    /// (convenience for uniform-budget sweeps).
    ///
    /// # Errors
    ///
    /// Same validation as [`BusModel::regulated`].
    pub fn uniform(period: Time, cores: usize, budget: Time) -> Result<Self, ModelError> {
        BusModel::regulated(period, vec![budget; cores])
    }

    /// Whether this bus is the contention-free crossbar.
    pub fn is_contention_free(&self) -> bool {
        self.budgets.is_empty()
    }

    /// Whether transfers on this bus can actually contend: regulated
    /// *and* at least two cores share it. A regulated bus with a single
    /// core degenerates to the crossbar (there is nothing to arbitrate),
    /// so `M = 1` platforms keep their uncontended analysis.
    pub fn is_contended(&self) -> bool {
        self.budgets.len() >= 2
    }

    /// Replenishment period `P`, or `None` for the crossbar.
    pub fn period(&self) -> Option<Time> {
        if self.is_contention_free() {
            None
        } else {
            Some(self.period)
        }
    }

    /// Per-core budgets, indexed by core (empty for the crossbar).
    pub fn budgets(&self) -> &[Time] {
        &self.budgets
    }

    /// Budget `Q_m` of the given core, or `None` for the crossbar or an
    /// out-of-range core.
    pub fn budget(&self, core: CoreId) -> Option<Time> {
        self.budgets.get(core.0 as usize).copied()
    }

    /// Number of cores the bus regulates (`0` for the crossbar).
    pub fn num_cores(&self) -> usize {
        self.budgets.len()
    }

    /// A copy regulating only the cores selected by `keep` (same
    /// length as [`BusModel::budgets`]), renumbered densely. Used when
    /// partitioning drops empty cores from the final platform. On a
    /// contention-free bus this is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidBus`] if `keep` selects no core of
    /// a regulated bus or its length disagrees with the budget count.
    pub fn restrict(&self, keep: &[bool]) -> Result<Self, ModelError> {
        if self.is_contention_free() {
            return Ok(self.clone());
        }
        if keep.len() != self.budgets.len() {
            return Err(ModelError::InvalidBus {
                reason: format!(
                    "restriction mask has {} entries for {} budgets",
                    keep.len(),
                    self.budgets.len()
                ),
            });
        }
        let budgets: Vec<Time> = self
            .budgets
            .iter()
            .zip(keep)
            .filter(|&(_, &k)| k)
            .map(|(&q, _)| q)
            .collect();
        BusModel::regulated(self.period, budgets)
    }
}

impl Default for BusModel {
    fn default() -> Self {
        BusModel::contention_free()
    }
}

impl fmt::Display for BusModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_contention_free() {
            write!(f, "contention-free crossbar")
        } else {
            write!(f, "regulated bus (P={}, Q=[", self.period)?;
            for (i, q) in self.budgets.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{q}")?;
            }
            write!(f, "])")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ticks: i64) -> Time {
        Time::from_ticks(ticks)
    }

    #[test]
    fn contention_free_is_the_default() {
        let bus = BusModel::default();
        assert!(bus.is_contention_free());
        assert!(!bus.is_contended());
        assert_eq!(bus.period(), None);
        assert_eq!(bus.budgets(), &[]);
        assert_eq!(bus.budget(CoreId(0)), None);
        assert_eq!(bus.num_cores(), 0);
        assert_eq!(bus.to_string(), "contention-free crossbar");
    }

    #[test]
    fn regulated_bus_exposes_period_and_budgets() {
        let bus = BusModel::regulated(t(100), vec![t(30), t(20)]).unwrap();
        assert!(!bus.is_contention_free());
        assert!(bus.is_contended());
        assert_eq!(bus.period(), Some(t(100)));
        assert_eq!(bus.budget(CoreId(0)), Some(t(30)));
        assert_eq!(bus.budget(CoreId(1)), Some(t(20)));
        assert_eq!(bus.budget(CoreId(2)), None);
        assert_eq!(bus.num_cores(), 2);
        assert_eq!(bus.to_string(), "regulated bus (P=100µs, Q=[30µs, 20µs])");
    }

    #[test]
    fn single_core_regulated_bus_is_not_contended() {
        let bus = BusModel::regulated(t(100), vec![t(40)]).unwrap();
        assert!(!bus.is_contention_free());
        assert!(!bus.is_contended());
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        for (period, budgets) in [
            (t(0), vec![t(10)]),          // non-positive period
            (t(-5), vec![t(10)]),         // negative period
            (t(100), vec![]),             // no budgets
            (t(100), vec![t(10), t(0)]),  // zero budget
            (t(100), vec![t(60), t(50)]), // budgets exceed period
            (t(100), vec![t(100), t(1)]), // just over
            // budgets whose sum leaves the tick range
            (Time::MAX, vec![t(i64::MAX / 2 + 1), t(i64::MAX / 2 + 1)]),
        ] {
            let err = BusModel::regulated(period, budgets.clone()).unwrap_err();
            assert!(
                matches!(err, ModelError::InvalidBus { .. }),
                "P={period} Q={budgets:?}: {err}"
            );
        }
    }

    #[test]
    fn budgets_may_exactly_fill_the_period() {
        let bus = BusModel::regulated(t(100), vec![t(50), t(50)]).unwrap();
        assert_eq!(bus.num_cores(), 2);
    }

    #[test]
    fn uniform_budgets_replicate() {
        let bus = BusModel::uniform(t(100), 4, t(25)).unwrap();
        assert_eq!(bus.budgets(), &[t(25); 4]);
        assert!(BusModel::uniform(t(100), 4, t(26)).is_err());
    }

    #[test]
    fn restrict_drops_unselected_cores() {
        let bus = BusModel::regulated(t(100), vec![t(10), t(20), t(30)]).unwrap();
        let sub = bus.restrict(&[true, false, true]).unwrap();
        assert_eq!(sub.budgets(), &[t(10), t(30)]);
        assert_eq!(sub.period(), Some(t(100)));
        assert!(bus.restrict(&[true, false]).is_err());
        assert!(bus.restrict(&[false, false, false]).is_err());
        let free = BusModel::contention_free();
        assert_eq!(free.restrict(&[]).unwrap(), free);
    }
}
