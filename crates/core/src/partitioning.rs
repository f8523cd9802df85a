//! Partitioned-multiprocessor support.
//!
//! The paper's model is partitioned scheduling: tasks are statically
//! assigned to cores and every core is analyzed in isolation
//! (Section II). This module provides the partitioning step itself —
//! bin-packing heuristics with the schedulability analysis as admission
//! test — and whole-platform analysis.
//!
//! On a platform with a regulated shared bus ([`BusModel::regulated`])
//! the admission test is contention-aware: every candidate placement is
//! analyzed under the copy-phase inflation *induced by that candidate
//! assignment* ([`partition_regulated`]), and [`assign_budgets`]
//! searches the regulation knob itself — a deterministic descent over
//! uniform per-core budget levels, accepting the first one that yields
//! a schedulable partition.

use std::fmt;

use pmcs_model::{BusModel, CoreId, ModelError, Platform, Task, TaskId, TaskSet, Time};

use crate::contention::Inflation;
use crate::error::CoreError;
use crate::schedulability::{analyze_task_set, SchedulabilityReport};
use crate::wcrt::DelayEngine;

/// Bin-packing heuristic used to pick the target core for each task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Heuristic {
    /// First core (in index order) that admits the task.
    FirstFit,
    /// Admitting core with the highest current utilization (tightest fit).
    BestFit,
    /// Admitting core with the lowest current utilization (load spread).
    WorstFit,
}

impl Heuristic {
    /// All heuristics, in the order they are usually swept.
    pub const ALL: [Heuristic; 3] = [Heuristic::FirstFit, Heuristic::BestFit, Heuristic::WorstFit];

    /// Parses the [`fmt::Display`] names (`first-fit`, `best-fit`,
    /// `worst-fit`) plus the short forms `ff`/`bf`/`wf`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "first-fit" | "ff" => Some(Heuristic::FirstFit),
            "best-fit" | "bf" => Some(Heuristic::BestFit),
            "worst-fit" | "wf" => Some(Heuristic::WorstFit),
            _ => None,
        }
    }
}

impl fmt::Display for Heuristic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Heuristic::FirstFit => "first-fit",
            Heuristic::BestFit => "best-fit",
            Heuristic::WorstFit => "worst-fit",
        })
    }
}

/// Outcome of [`partition`].
#[derive(Debug, Clone)]
pub struct Partitioning {
    /// The resulting platform (one task set per core).
    pub platform: Platform,
    /// Per-core schedulability reports under the final assignment.
    pub reports: Vec<SchedulabilityReport>,
}

impl Partitioning {
    /// `true` iff every core is schedulable.
    pub fn schedulable(&self) -> bool {
        self.reports.iter().all(SchedulabilityReport::schedulable)
    }
}

/// Error: a task could not be placed on any core.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionError {
    /// The task that does not fit anywhere.
    pub task: TaskId,
    /// Cores tried.
    pub cores: usize,
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "task {} is not schedulable on any of the {} cores",
            self.task, self.cores
        )
    }
}

impl std::error::Error for PartitionError {}

/// Statically partitions `tasks` onto `cores` cores, using the proposed
/// protocol's greedy-LS schedulability analysis as the admission test.
///
/// Tasks are considered in decreasing-utilization order (the standard
/// bin-packing decreasing variant); a placement is admitted iff the
/// target core's task set remains schedulable *as a whole* (LS markings
/// are re-derived from scratch by the greedy algorithm on every test, so
/// earlier placements may change marking when later tasks arrive).
///
/// This is [`partition_regulated`] on a contention-free bus.
///
/// # Errors
///
/// Two failure kinds are kept apart in the nested result: an engine or
/// model failure aborts with `Err(CoreError)`, while an ordinary packing
/// failure (no core admits some task) is a normal outcome reported as
/// `Ok(Err(PartitionError))`.
///
/// # Panics
///
/// Panics if `cores` is zero.
pub fn partition(
    tasks: Vec<Task>,
    cores: usize,
    heuristic: Heuristic,
    engine: &impl DelayEngine,
) -> Result<Result<Partitioning, PartitionError>, CoreError> {
    partition_regulated(
        tasks,
        cores,
        &BusModel::contention_free(),
        heuristic,
        engine,
    )
}

/// Statically partitions `tasks` onto `cores` cores sharing `bus`, with
/// a contention-aware admission test: every candidate placement is
/// analyzed under the copy-phase inflation *induced by that candidate
/// assignment* ([`Inflation::for_core_among`], counting only non-empty
/// cores as contenders). On a regulated bus, placing a task on a
/// previously empty core raises every other core's inflation, so such
/// placements additionally re-verify all already-populated cores before
/// being admitted.
///
/// With a contention-free `bus` every inflation is the identity, so this
/// is exactly [`partition`]. The returned platform carries the bus
/// restricted to its non-empty cores, and the reports are the per-core
/// analyses of the inflated sets.
///
/// # Errors
///
/// Same convention as [`partition`], plus [`CoreError::Model`] with
/// [`ModelError::InvalidBus`] when a regulated `bus` does not cover
/// exactly `cores` cores.
///
/// # Panics
///
/// Panics if `cores` is zero.
pub fn partition_regulated(
    tasks: Vec<Task>,
    cores: usize,
    bus: &BusModel,
    heuristic: Heuristic,
    engine: &impl DelayEngine,
) -> Result<Result<Partitioning, PartitionError>, CoreError> {
    assert!(cores > 0, "need at least one core");
    let regulated = !bus.is_contention_free();
    if regulated && bus.num_cores() != cores {
        return Err(CoreError::Model(ModelError::InvalidBus {
            reason: format!(
                "bus regulates {} core(s) but partitioning onto {}",
                bus.num_cores(),
                cores
            ),
        }));
    }
    let mut ordered = tasks;
    ordered.sort_by(|a, b| {
        b.utilization()
            .partial_cmp(&a.utilization())
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut bins: Vec<Vec<Task>> = vec![Vec::new(); cores];
    for task in ordered {
        let mut admitted = false;
        for core in candidate_order(&bins, heuristic) {
            let mut trial = bins[core].clone();
            trial.push(task.clone());
            let Ok(set) = TaskSet::new(trial) else {
                continue; // duplicate priority on this core — try another
            };
            let mut active: Vec<bool> = bins.iter().map(|b| !b.is_empty()).collect();
            let newly_active = !active[core];
            active[core] = true;
            let infl = Inflation::for_core_among(bus, CoreId(core as u32), &active);
            if !analyze_task_set(&infl.inflate_set(&set)?, engine)?.schedulable() {
                continue;
            }
            // Activating a fresh core adds its budget to everyone
            // else's contention, so the placements admitted so far must
            // survive the raised inflation too.
            if regulated
                && newly_active
                && !rivals_still_schedulable(&bins, bus, &active, core, engine)?
            {
                continue;
            }
            bins[core].push(task.clone());
            admitted = true;
            break;
        }
        if !admitted {
            return Ok(Err(PartitionError {
                task: task.id(),
                cores,
            }));
        }
    }

    let keep: Vec<bool> = bins.iter().map(|b| !b.is_empty()).collect();
    let restricted = bus.restrict(&keep).map_err(CoreError::from)?;
    let mut builder = Platform::builder().bus(restricted.clone());
    let mut reports = Vec::new();
    for (kept, bin) in bins.into_iter().filter(|b| !b.is_empty()).enumerate() {
        let set = TaskSet::new(bin).expect("admitted bins are valid sets");
        let infl = Inflation::for_core(&restricted, CoreId(kept as u32));
        reports.push(analyze_task_set(&infl.inflate_set(&set)?, engine)?);
        builder = builder.core(set);
    }
    let platform = builder.build().map_err(CoreError::from)?;
    Ok(Ok(Partitioning { platform, reports }))
}

/// Re-analyzes every populated core except `placed` under the `active`
/// contention map; `true` iff all stay schedulable.
fn rivals_still_schedulable(
    bins: &[Vec<Task>],
    bus: &BusModel,
    active: &[bool],
    placed: usize,
    engine: &impl DelayEngine,
) -> Result<bool, CoreError> {
    for (m, bin) in bins.iter().enumerate() {
        if m == placed || bin.is_empty() {
            continue;
        }
        let set = TaskSet::new(bin.clone()).expect("admitted bins are valid sets");
        let infl = Inflation::for_core_among(bus, CoreId(m as u32), active);
        if !analyze_task_set(&infl.inflate_set(&set)?, engine)?.schedulable() {
            return Ok(false);
        }
    }
    Ok(true)
}

/// One uniform budget level tried by [`assign_budgets`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetAttempt {
    /// Per-core budget `Q` tried (same for every core).
    pub budget: Time,
    /// Whether partitioning under this budget was fully schedulable.
    pub schedulable: bool,
}

/// Outcome of the budget-assignment search ([`assign_budgets`]).
#[derive(Debug, Clone)]
pub struct BudgetSearch {
    /// Budget levels tried, in search order (most generous first).
    pub attempts: Vec<BudgetAttempt>,
    /// The first schedulable partition found, if any; its platform
    /// carries the winning bus.
    pub solution: Option<Partitioning>,
}

/// Fractions of the fair share `P / cores` tried by [`assign_budgets`],
/// most generous first: 100%, 75%, 50%, 25%.
const BUDGET_LEVELS: &[(i64, i64)] = &[(1, 1), (3, 4), (1, 2), (1, 4)];

/// Searches the regulation knob: tries uniform per-core budgets at
/// descending fractions of the fair share `period / cores`
/// (`BUDGET_LEVELS`: 100%, 75%, 50%, 25%), partitioning with
/// [`partition_regulated`] at each level, and stops at the first fully
/// schedulable partition. The descent is deterministic, so identical
/// inputs always select the same budget.
///
/// # Errors
///
/// Propagates engine and model failures; packing failures at one level
/// are a normal outcome recorded in the attempt log.
///
/// # Panics
///
/// Panics if `cores` is zero or `period` is not positive.
pub fn assign_budgets(
    tasks: Vec<Task>,
    cores: usize,
    period: Time,
    heuristic: Heuristic,
    engine: &impl DelayEngine,
) -> Result<BudgetSearch, CoreError> {
    assert!(cores > 0, "need at least one core");
    assert!(period > Time::ZERO, "need a positive replenishment period");
    let share = period.as_ticks() / cores as i64;
    let mut attempts: Vec<BudgetAttempt> = Vec::new();
    for &(num, den) in BUDGET_LEVELS {
        // `share · num / den ≤ share`, but `share · num` alone may not fit
        // in an `i64` when the period comes near the tick range.
        let level = i128::from(share) * i128::from(num) / i128::from(den);
        let q = Time::from_ticks((level as i64).max(1));
        if attempts.iter().any(|a| a.budget == q) {
            continue; // tiny shares collapse adjacent levels
        }
        let bus = BusModel::uniform(period, cores, q).map_err(CoreError::from)?;
        let outcome = partition_regulated(tasks.clone(), cores, &bus, heuristic, engine)?;
        let solution = outcome.ok().filter(Partitioning::schedulable);
        attempts.push(BudgetAttempt {
            budget: q,
            schedulable: solution.is_some(),
        });
        if solution.is_some() {
            return Ok(BudgetSearch { attempts, solution });
        }
    }
    Ok(BudgetSearch {
        attempts,
        solution: None,
    })
}

/// Candidate core order for one placement.
fn candidate_order(bins: &[Vec<Task>], heuristic: Heuristic) -> Vec<usize> {
    let mut order: Vec<usize> = (0..bins.len()).collect();
    let util = |core: usize| -> f64 { bins[core].iter().map(Task::utilization).sum() };
    match heuristic {
        Heuristic::FirstFit => {}
        Heuristic::BestFit => {
            order.sort_by(|&a, &b| {
                util(b)
                    .partial_cmp(&util(a))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }
        Heuristic::WorstFit => {
            order.sort_by(|&a, &b| {
                util(a)
                    .partial_cmp(&util(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }
    }
    order
}

/// Analyzes every core of an already-partitioned platform.
///
/// # Errors
///
/// Propagates analysis failures.
pub fn analyze_platform(
    platform: &Platform,
    engine: &impl DelayEngine,
) -> Result<Vec<SchedulabilityReport>, CoreError> {
    platform
        .iter()
        .map(|(_, set)| analyze_task_set(set, engine))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExactEngine;
    use crate::window::test_task;

    fn tasks(n: u32) -> Vec<Task> {
        (0..n)
            .map(|i| test_task(i, 30 + 5 * i as i64, 5, 5, 200 + 10 * i as i64, i, false))
            .collect()
    }

    #[test]
    fn single_core_partitioning_matches_direct_analysis() {
        let ts = tasks(3);
        let engine = ExactEngine::default();
        let result = partition(ts.clone(), 1, Heuristic::FirstFit, &engine)
            .unwrap()
            .unwrap();
        assert_eq!(result.platform.num_cores(), 1);
        assert!(result.schedulable());
        let direct = analyze_task_set(&TaskSet::new(ts).unwrap(), &engine).unwrap();
        assert_eq!(direct.schedulable(), result.schedulable());
    }

    #[test]
    fn overload_spreads_across_cores() {
        // Six tasks that cannot share one core but fit on two.
        let ts: Vec<Task> = (0..6)
            .map(|i| test_task(i, 40, 8, 8, 150, i, false))
            .collect();
        let engine = ExactEngine::default();
        assert!(
            partition(ts.clone(), 1, Heuristic::FirstFit, &engine)
                .unwrap()
                .is_err(),
            "six 27%-utilization tasks with heavy blocking cannot share one core"
        );
        let two = partition(ts, 3, Heuristic::WorstFit, &engine)
            .unwrap()
            .unwrap();
        assert!(two.schedulable());
        assert!(two.platform.num_cores() >= 2);
    }

    #[test]
    fn heuristics_produce_valid_partitions() {
        let ts = tasks(5);
        let engine = ExactEngine::default();
        for h in [Heuristic::FirstFit, Heuristic::BestFit, Heuristic::WorstFit] {
            let p = partition(ts.clone(), 2, h, &engine).unwrap().unwrap();
            assert!(p.schedulable(), "{h}");
            let total: usize = p.platform.iter().map(|(_, s)| s.len()).sum();
            assert_eq!(total, 5, "{h}: every task placed exactly once");
        }
    }

    #[test]
    fn worst_fit_spreads_best_fit_packs() {
        let ts = tasks(4);
        let engine = ExactEngine::default();
        let wf = partition(ts.clone(), 4, Heuristic::WorstFit, &engine)
            .unwrap()
            .unwrap();
        let bf = partition(ts, 4, Heuristic::BestFit, &engine)
            .unwrap()
            .unwrap();
        // Worst-fit uses at least as many cores as best-fit.
        assert!(wf.platform.num_cores() >= bf.platform.num_cores());
    }

    #[test]
    fn analyze_platform_covers_all_cores() {
        let ts = tasks(4);
        let engine = ExactEngine::default();
        let p = partition(ts, 2, Heuristic::WorstFit, &engine)
            .unwrap()
            .unwrap();
        let reports = analyze_platform(&p.platform, &engine).unwrap();
        assert_eq!(reports.len(), p.platform.num_cores());
    }

    #[test]
    fn heuristic_parse_roundtrips() {
        for h in Heuristic::ALL {
            assert_eq!(Heuristic::parse(&h.to_string()), Some(h));
        }
        assert_eq!(Heuristic::parse("ff"), Some(Heuristic::FirstFit));
        assert_eq!(Heuristic::parse("nope"), None);
    }

    #[test]
    fn contention_free_bus_analyzes_uninflated_bins() {
        let ts = tasks(5);
        let engine = ExactEngine::default();
        let p = partition(ts, 2, Heuristic::BestFit, &engine)
            .unwrap()
            .unwrap();
        assert_eq!(p.platform.bus(), &BusModel::contention_free());
        for ((_, set), report) in p.platform.iter().zip(&p.reports) {
            assert_eq!(&analyze_task_set(set, &engine).unwrap(), report);
        }
    }

    #[test]
    fn regulated_bus_must_cover_the_cores() {
        let bus = BusModel::uniform(Time::from_ticks(100), 3, Time::from_ticks(10)).unwrap();
        let err = partition_regulated(
            tasks(2),
            2,
            &bus,
            Heuristic::FirstFit,
            &ExactEngine::default(),
        )
        .unwrap_err();
        assert!(
            matches!(err, CoreError::Model(ModelError::InvalidBus { .. })),
            "{err}"
        );
    }

    #[test]
    fn contention_shrinks_what_fits() {
        // Two cores, heavy copy phases: fine on a crossbar, hopeless
        // under a starved regulated bus (tiny budgets inflate every
        // copy phase past the deadlines).
        let ts: Vec<Task> = (0..2)
            .map(|i| test_task(i, 30, 20, 20, 300, i, false))
            .collect();
        let engine = ExactEngine::default();
        let free = partition_regulated(
            ts.clone(),
            2,
            &BusModel::contention_free(),
            Heuristic::WorstFit,
            &engine,
        )
        .unwrap()
        .unwrap();
        assert!(free.schedulable());
        let starved = BusModel::uniform(Time::from_ticks(200), 2, Time::from_ticks(2)).unwrap();
        let packed = partition_regulated(ts, 2, &starved, Heuristic::WorstFit, &engine).unwrap();
        match packed {
            Err(_) => {}
            Ok(p) => assert!(
                !p.schedulable() || p.platform.num_cores() == 1,
                "a starved bus cannot admit both cores"
            ),
        }
    }

    #[test]
    fn regulated_platform_carries_the_restricted_bus() {
        let ts = tasks(2);
        let engine = ExactEngine::default();
        let bus = BusModel::uniform(Time::from_ticks(1_000), 4, Time::from_ticks(250)).unwrap();
        let p = partition_regulated(ts, 4, &bus, Heuristic::FirstFit, &engine)
            .unwrap()
            .unwrap();
        let platform_bus = p.platform.bus();
        assert_eq!(platform_bus.num_cores(), p.platform.num_cores());
        assert_eq!(platform_bus.period(), Some(Time::from_ticks(1_000)));
    }

    #[test]
    fn budget_search_descends_until_schedulable() {
        let ts = tasks(3);
        let engine = ExactEngine::default();
        let search =
            assign_budgets(ts, 2, Time::from_ticks(200), Heuristic::WorstFit, &engine).unwrap();
        assert!(!search.attempts.is_empty());
        if let Some(p) = &search.solution {
            let winner = search.attempts.last().unwrap();
            assert!(winner.schedulable);
            assert_eq!(
                p.platform.bus().budgets().first().copied(),
                Some(winner.budget)
            );
            // Everything before the winner failed.
            for a in &search.attempts[..search.attempts.len() - 1] {
                assert!(!a.schedulable);
            }
        }
    }

    #[test]
    fn partition_error_displays_task() {
        let err = PartitionError {
            task: TaskId(7),
            cores: 2,
        };
        assert!(err.to_string().contains("τ7"));
    }
}
