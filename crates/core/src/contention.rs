//! Copy-phase inflation under shared-bus bandwidth regulation.
//!
//! The paper's analysis assumes each core's DMA engine moves data over a
//! contention-free crossbar, so a copy phase of demand `d` occupies the
//! DMA for exactly `d` ticks. On a regulated shared bus
//! ([`BusModel::regulated`]) that is no longer true: core `p_m` holds a
//! budget of `Q_m` bus ticks per replenishment period `P`, loses the bus
//! for the rest of each period, and additionally waits while other
//! cores spend their own budgets. [`Inflation`] captures the resulting
//! worst-case *service time* of a transfer and turns it into a
//! **reversible task-set transform**: inflate every `l_i`/`u_i`, run the
//! entire existing per-core machinery (sessions, caches, certificates,
//! MILP) verbatim on the inflated set, and interpret the verdicts for
//! the original set.
//!
//! # The bound
//!
//! With `σ = Σ_{m' ≠ m} Q_{m'}` the contending cores' total budget, the
//! worst-case service time of a transfer of demand `d > 0` issued by
//! core `p_m` is
//!
//! ```text
//! inflate(d) = d + ceil(d / Q_m) · (P − Q_m) + 2σ
//! ```
//!
//! **Soundness sketch** (the full argument is DESIGN.md §16). Measure
//! from the instant `s` the transfer reaches the head of its core's DMA
//! queue. Hard regulation guarantees two facts: (a) other cores
//! transfer at most `σ` ticks inside any replenishment period, and (b) a
//! continuously backlogged core with fresh budget receives its full
//! `Q_m` ticks before the period ends (budgets sum to at most `P`).
//! Decompose `[s, completion)` by replenishment boundaries:
//!
//! * *first (partial) period*: the core may inherit an exhausted budget,
//!   stalling at most `P − Q_m` zero-budget ticks, and waits at most `σ`
//!   ticks for budgeted rivals — stall ≤ `(P − Q_m) + σ`;
//! * *interior periods*: fresh budget and still backlogged, so by (b)
//!   exactly `Q_m` ticks of progress per period — stall `P − Q_m` each,
//!   and at most `ceil(d / Q_m) − 1` such periods are needed;
//! * *final period*: at most `Q_m` ticks remain against a fresh budget,
//!   so the core never runs dry and only rivals' budgeted ticks stall
//!   it — stall ≤ `σ`.
//!
//! Total stall ≤ `ceil(d / Q_m)·(P − Q_m) + 2σ`. The bound is exact
//! tick arithmetic (no floats) and degenerates to the identity when the
//! bus is contention-free or no other core is active — which is what
//! keeps `M = 1` and legacy platforms byte-identical to the
//! pre-contention analyzer.

use pmcs_model::{ArrivalModel, BusModel, CoreId, Task, TaskSet, Time};

use crate::error::CoreError;

/// Worst-case copy-phase inflation for one core of a regulated bus.
///
/// Obtained from [`Inflation::for_core`] (all other cores contend) or
/// [`Inflation::for_core_among`] (only selected cores contend — used by
/// partitioning, where empty cores issue no transfers). The identity
/// transform ([`Inflation::none`]) leaves every duration untouched.
///
/// # Example
///
/// ```
/// use pmcs_core::contention::Inflation;
/// use pmcs_model::{BusModel, CoreId, Time};
///
/// let bus = BusModel::regulated(
///     Time::from_ticks(100),
///     vec![Time::from_ticks(40), Time::from_ticks(40)],
/// )?;
/// let inflation = Inflation::for_core(&bus, CoreId(0));
/// // ceil(50/40)·(100−40) + 2·40 = 120 + 80 extra ticks.
/// assert_eq!(inflation.inflate(Time::from_ticks(50))?, Time::from_ticks(250));
/// assert_eq!(inflation.inflate(Time::ZERO)?, Time::ZERO);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inflation {
    /// Own budget `Q_m`; `Time::ZERO` encodes the identity transform.
    own_budget: Time,
    /// Replenishment period `P`.
    period: Time,
    /// Total budget `σ` of the contending cores.
    others_budget: Time,
}

impl Inflation {
    /// The identity transform: no bus contention.
    pub fn none() -> Self {
        Inflation {
            own_budget: Time::ZERO,
            period: Time::ZERO,
            others_budget: Time::ZERO,
        }
    }

    /// Inflation seen by `core` when every other core of `bus` contends.
    ///
    /// Contention-free buses, single-core regulated buses, and cores the
    /// bus does not regulate all yield the identity transform.
    pub fn for_core(bus: &BusModel, core: CoreId) -> Self {
        let all = vec![true; bus.num_cores()];
        Inflation::for_core_among(bus, core, &all)
    }

    /// Inflation seen by `core` when only the cores with `active[m] =
    /// true` issue transfers (entries beyond `active` count as
    /// inactive; `core` itself is counted regardless). Partitioning uses
    /// this to ignore still-empty cores during admission.
    pub fn for_core_among(bus: &BusModel, core: CoreId, active: &[bool]) -> Self {
        let Some(period) = bus.period() else {
            return Inflation::none();
        };
        let Some(own) = bus.budget(core) else {
            return Inflation::none();
        };
        let others = bus
            .budgets()
            .iter()
            .enumerate()
            .filter(|&(m, _)| m != core.0 as usize && active.get(m).copied().unwrap_or(false))
            .fold(Time::ZERO, |acc, (_, &q)| acc + q);
        if others == Time::ZERO {
            // Nobody to contend with: hard regulation never engages a
            // lone core (see `BusModel::is_contended`).
            return Inflation::none();
        }
        Inflation {
            own_budget: own,
            period,
            others_budget: others,
        }
    }

    /// Whether this is the identity transform (`inflate(d) = d`).
    pub fn is_identity(&self) -> bool {
        self.own_budget == Time::ZERO
    }

    /// Worst-case service time of a transfer of demand `d`:
    /// `d + ceil(d / Q_m)·(P − Q_m) + 2σ`, or `d` unchanged under the
    /// identity transform or for `d ≤ 0`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::TimeOverflow`] when the service time does not
    /// fit in a [`Time`] (a bus period or demand near the tick range).
    pub fn inflate(&self, d: Time) -> Result<Time, CoreError> {
        if self.is_identity() || d <= Time::ZERO {
            return Ok(d);
        }
        let ticks = || {
            let windows = i64::try_from(d.div_ceil(self.own_budget)).ok()?;
            let stall_per_window = self
                .period
                .as_ticks()
                .checked_sub(self.own_budget.as_ticks())?;
            let others = self.others_budget.as_ticks();
            windows
                .checked_mul(stall_per_window)?
                .checked_add(d.as_ticks())?
                .checked_add(others)?
                .checked_add(others)
        };
        ticks().map(Time::from_ticks).ok_or(CoreError::TimeOverflow)
    }

    /// Inflates a single task: copy-in and copy-out are replaced by
    /// their worst-case bus service times; everything else (id, name,
    /// execution, arrival model, deadline, priority, sensitivity) is
    /// preserved, which is what makes the transform reversible — the
    /// original task is recovered by swapping the copy bounds back.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::TimeOverflow`] if an inflated copy phase
    /// overflows (see [`Inflation::inflate`]); propagates
    /// [`CoreError::Model`] if the inflated durations no longer form a
    /// valid task.
    pub fn inflate_task(&self, task: &Task) -> Result<Task, CoreError> {
        let mut b = Task::builder(task.id())
            .exec(task.exec())
            .copy_in(self.inflate(task.copy_in())?)
            .copy_out(self.inflate(task.copy_out())?)
            .arrival(ArrivalModel::clone(task.arrival()))
            .deadline(task.deadline())
            .priority(task.priority())
            .sensitivity(task.sensitivity());
        if let Some(name) = task.name() {
            b = b.name(name);
        }
        Ok(b.build()?)
    }

    /// Inflates every task of a set (see [`Inflation::inflate_task`]).
    /// Under the identity transform the result compares equal to the
    /// input, so contention-free analyses are byte-identical to the
    /// legacy path.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::TimeOverflow`] and [`CoreError::Model`]
    /// from [`Inflation::inflate_task`].
    pub fn inflate_set(&self, set: &TaskSet) -> Result<TaskSet, CoreError> {
        let tasks = set
            .iter()
            .map(|t| self.inflate_task(t))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(TaskSet::new(tasks)?)
    }
}

impl Default for Inflation {
    fn default() -> Self {
        Inflation::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::test_task;

    fn t(ticks: i64) -> Time {
        Time::from_ticks(ticks)
    }

    fn bus2() -> BusModel {
        BusModel::regulated(t(100), vec![t(40), t(40)]).unwrap()
    }

    #[test]
    fn identity_for_contention_free_and_lone_cores() {
        assert!(Inflation::for_core(&BusModel::contention_free(), CoreId(0)).is_identity());
        let lone = BusModel::regulated(t(100), vec![t(40)]).unwrap();
        assert!(Inflation::for_core(&lone, CoreId(0)).is_identity());
        // Out-of-range core: nothing to say, identity.
        assert!(Inflation::for_core(&bus2(), CoreId(7)).is_identity());
        // Two cores but the rival is inactive.
        assert!(Inflation::for_core_among(&bus2(), CoreId(0), &[true, false]).is_identity());
        let infl = Inflation::none();
        assert_eq!(infl.inflate(t(123)), Ok(t(123)));
    }

    #[test]
    fn inflate_matches_the_formula() {
        let infl = Inflation::for_core(&bus2(), CoreId(0));
        // d=1: ceil(1/40)=1 window → 1 + 60 + 80.
        assert_eq!(infl.inflate(t(1)), Ok(t(141)));
        // d=40: exactly one window → 40 + 60 + 80.
        assert_eq!(infl.inflate(t(40)), Ok(t(180)));
        // d=41: two windows → 41 + 120 + 80.
        assert_eq!(infl.inflate(t(41)), Ok(t(241)));
        // Zero demand is untouched (no transfer, no stall).
        assert_eq!(infl.inflate(Time::ZERO), Ok(Time::ZERO));
    }

    #[test]
    fn inflation_is_monotone_in_rival_budgets_and_core_count() {
        let small = BusModel::regulated(t(100), vec![t(20), t(10)]).unwrap();
        let large = BusModel::regulated(t(100), vec![t(20), t(30)]).unwrap();
        let three = BusModel::regulated(t(100), vec![t(20), t(30), t(25)]).unwrap();
        for d in [1, 7, 20, 21, 55] {
            let d = t(d);
            let s = Inflation::for_core(&small, CoreId(0)).inflate(d).unwrap();
            let l = Inflation::for_core(&large, CoreId(0)).inflate(d).unwrap();
            let m = Inflation::for_core(&three, CoreId(0)).inflate(d).unwrap();
            assert!(d <= s, "never below the demand");
            assert!(s < l, "larger rival budget must inflate strictly more");
            assert!(l < m, "an extra contending core must inflate more");
        }
    }

    #[test]
    fn inflate_set_preserves_everything_but_the_copy_bounds() {
        let set = TaskSet::new(vec![
            test_task(0, 10, 5, 3, 1_000, 0, true),
            test_task(1, 20, 0, 7, 2_000, 1, false),
        ])
        .unwrap();
        let infl = Inflation::for_core(&bus2(), CoreId(1));
        let inflated = infl.inflate_set(&set).unwrap();
        for (orig, new) in set.iter().zip(inflated.iter()) {
            assert_eq!(orig.id(), new.id());
            assert_eq!(orig.exec(), new.exec());
            assert_eq!(orig.deadline(), new.deadline());
            assert_eq!(orig.priority(), new.priority());
            assert_eq!(orig.sensitivity(), new.sensitivity());
            assert_eq!(orig.arrival(), new.arrival());
            assert_eq!(infl.inflate(orig.copy_in()), Ok(new.copy_in()));
            assert_eq!(infl.inflate(orig.copy_out()), Ok(new.copy_out()));
        }
        // Reversibility: deflating by construction recovers the input.
        assert_eq!(Inflation::none().inflate_set(&set).unwrap(), set);
    }

    #[test]
    fn overflowing_inflation_is_an_error() {
        // A period near i64::MAX/2 makes one stall window alone exceed
        // half the tick range; two windows overflow it.
        let huge = BusModel::regulated(t(i64::MAX / 2), vec![t(40), t(40)]).unwrap();
        let infl = Inflation::for_core(&huge, CoreId(0));
        assert!(infl.inflate(t(40)).is_ok());
        assert_eq!(infl.inflate(t(41)), Err(CoreError::TimeOverflow));
        let set = TaskSet::new(vec![test_task(0, 10, 100, 3, 1_000, 0, false)]).unwrap();
        assert_eq!(infl.inflate_set(&set), Err(CoreError::TimeOverflow));
    }
}
