//! Multi-core schedulability sweep: cores × regulation budgets ×
//! partitioning heuristics.
//!
//! For each budget level (a fraction of the fair share `P / cores`) and
//! each generated workload, the sweep partitions the tasks onto the
//! regulated platform with every bin-packing heuristic
//! ([`pmcs_core::partition_regulated`], contention-aware admission) and
//! records the schedulability ratio per heuristic — the
//! bandwidth-regulation analogue of the paper's Figure 2 utilization
//! sweeps. Optionally every schedulable first-fit partition is
//! multi-core cross-validated ([`cross_validate_platform`]): per-core
//! adversarial plans plus the coupled bus-arbiter replay, any refutation
//! reported upward.
//!
//! The sweep runs on the shared worker pool ([`parallel_map_with`]) with
//! one shared delay cache; every per-item seed derives from
//! `(base seed, point, set)`, so results are byte-identical for any
//! `--jobs` value.

use std::sync::Arc;
use std::time::Instant;

use pmcs_analysis::{cross_validate_platform, AnalysisConfig, AnalysisContext, SimCounters};
use pmcs_core::{partition_regulated, CacheStats, DpStats, Heuristic, SharedDelayCache};
use pmcs_model::{BusModel, Time};
use pmcs_workload::{derive_seed, TaskSetConfig, TaskSetGenerator};

use crate::parallel::parallel_map_with;

/// Seed-stream tag separating cross-validation seeds from generation
/// seeds (same idiom as the single-core sweeps).
const CV_SEED_STREAM: u64 = 0xb05_a4b1;

/// Budget levels swept, as fractions of the fair share `P / cores`
/// (numerator, denominator), most generous first.
pub const BUDGET_FRACTIONS: &[(i64, i64)] = &[(1, 1), (3, 4), (1, 2), (3, 8), (1, 4)];

/// Configuration of one multicore sweep.
#[derive(Debug, Clone)]
pub struct MulticoreConfig {
    /// Number of cores sharing the regulated bus.
    pub cores: usize,
    /// Workloads generated per budget level.
    pub sets: usize,
    /// Base seed; every `(point, set)` seed derives from it.
    pub seed: u64,
    /// Replenishment period `P` of the bus.
    pub period: Time,
    /// Per-core utilization of the generated workloads (total is
    /// `cores ×` this).
    pub util_per_core: f64,
    /// Memory-intensity factor γ of the generated workloads.
    pub gamma: f64,
    /// Adversarial plans per schedulable first-fit partition
    /// (`0` disables cross-validation).
    pub plans: usize,
    /// Engine-stack configuration (jobs, cache, audit, …).
    pub analysis: AnalysisConfig,
}

impl MulticoreConfig {
    /// Defaults scaled to the core count. Under fair-share regulation a
    /// core holds `1/cores` of the bus, so sustained memory demand is
    /// served roughly `cores ×` slower; scaling the generated memory
    /// intensity as `γ = 0.3 / cores` keeps the sweep in the regime
    /// where generous budgets schedule and starved ones do not (instead
    /// of saturating at all-zero or all-one ratios).
    pub fn for_cores(cores: usize) -> Self {
        let cores = cores.max(1);
        MulticoreConfig {
            cores,
            sets: 10,
            seed: 42,
            period: Time::from_ticks(200),
            util_per_core: 0.25,
            gamma: 0.3 / cores as f64,
            plans: 2,
            analysis: AnalysisConfig::default(),
        }
    }
}

impl Default for MulticoreConfig {
    fn default() -> Self {
        MulticoreConfig::for_cores(4)
    }
}

/// One budget level of the sweep result.
#[derive(Debug, Clone)]
pub struct MulticoreRow {
    /// Budget as a fraction of the fair share `P / cores`.
    pub fraction: f64,
    /// The resulting per-core budget `Q` in ticks.
    pub budget: Time,
    /// Schedulability ratio per heuristic (parallel to
    /// [`MulticoreOutcome::labels`]).
    pub ratios: Vec<f64>,
    /// Analysis failures (engine errors) at this level.
    pub failures: u64,
    /// Workloads evaluated.
    pub sets: usize,
}

/// Result of [`sweep_multicore`].
#[derive(Debug, Clone)]
pub struct MulticoreOutcome {
    /// Heuristic names, in ratio order.
    pub labels: Vec<String>,
    /// One row per budget level, most generous first.
    pub rows: Vec<MulticoreRow>,
    /// Per-level compute seconds.
    pub point_secs: Vec<(String, f64)>,
    /// Merged delay-cache statistics of all workers.
    pub cache: CacheStats,
    /// Merged solver-effort statistics of all workers.
    pub solver: DpStats,
    /// Merged cross-validation counters (per-core and bus layers).
    pub sim: SimCounters,
    /// DMA transfers replayed through the shared-bus arbiter.
    pub transfers: u64,
    /// Refutation lines (`point=.. set=.. REFUTATION ..`), in
    /// deterministic `(point, set)` order. Must be empty.
    pub refutations: Vec<String>,
    /// End-to-end wall-clock seconds.
    pub wall_secs: f64,
    /// Worker threads used.
    pub jobs: usize,
}

/// Per-item result collected by the workers.
struct ItemOutcome {
    point: usize,
    schedulable: Vec<bool>,
    failed: bool,
    secs: f64,
    sim: SimCounters,
    transfers: u64,
    refutations: Vec<String>,
}

/// Runs the cores × budgets × heuristics sweep described in the module
/// docs and returns the aggregate outcome. Deterministic for a given
/// config, independent of `analysis.jobs`.
pub fn sweep_multicore(cfg: &MulticoreConfig) -> MulticoreOutcome {
    let started = Instant::now();
    let labels: Vec<String> = Heuristic::ALL.iter().map(ToString::to_string).collect();
    let share = (cfg.period.as_ticks() / cfg.cores as i64).max(1);
    let budgets: Vec<Time> = BUDGET_FRACTIONS
        .iter()
        .map(|&(num, den)| Time::from_ticks((share * num / den).max(1)))
        .collect();
    let workload = TaskSetConfig {
        n: 2 * cfg.cores,
        utilization: cfg.util_per_core * cfg.cores as f64,
        gamma: cfg.gamma,
        ..TaskSetConfig::default()
    };

    let items: Vec<(usize, usize)> = (0..budgets.len())
        .flat_map(|pi| (0..cfg.sets).map(move |si| (pi, si)))
        .collect();
    let shared_cache = Arc::new(SharedDelayCache::default());
    let analysis = cfg.analysis.clone();
    let (outcomes, contexts) = parallel_map_with(
        &items,
        cfg.analysis.jobs,
        || AnalysisContext::with_shared_cache(&analysis, Arc::clone(&shared_cache)),
        |ctx, _, &(pi, si)| {
            let item_started = Instant::now();
            let seed = derive_seed(cfg.seed, pi as u64, si as u64);
            let set = TaskSetGenerator::new(workload.clone(), seed).generate();
            let tasks = set.tasks().to_vec();
            let bus = BusModel::uniform(cfg.period, cfg.cores, budgets[pi])
                .expect("budget levels respect ΣQ ≤ P");
            let mut out = ItemOutcome {
                point: pi,
                schedulable: Vec::with_capacity(Heuristic::ALL.len()),
                failed: false,
                secs: 0.0,
                sim: SimCounters::default(),
                transfers: 0,
                refutations: Vec::new(),
            };
            for h in Heuristic::ALL {
                match partition_regulated(tasks.clone(), cfg.cores, &bus, h, ctx.engine()) {
                    Ok(Ok(p)) => {
                        let sched = p.schedulable();
                        out.schedulable.push(sched);
                        if sched && h == Heuristic::FirstFit && cfg.plans > 0 {
                            let cv_seed = derive_seed(seed, CV_SEED_STREAM, 0);
                            match cross_validate_platform(
                                &p.platform,
                                "proposed",
                                cfg.plans,
                                cv_seed,
                                ctx,
                            ) {
                                Ok(pv) => {
                                    out.sim.merge(&pv.counters());
                                    out.transfers += pv.transfers_checked;
                                    out.refutations.extend(
                                        pv.refutations()
                                            .iter()
                                            .map(|r| format!("point={pi} set={si} {r}")),
                                    );
                                }
                                Err(_) => out.failed = true,
                            }
                        }
                    }
                    Ok(Err(_)) => out.schedulable.push(false),
                    Err(_) => {
                        out.schedulable.push(false);
                        out.failed = true;
                    }
                }
            }
            out.secs = item_started.elapsed().as_secs_f64();
            out
        },
    );

    let mut rows: Vec<MulticoreRow> = budgets
        .iter()
        .zip(BUDGET_FRACTIONS)
        .map(|(&q, &(num, den))| MulticoreRow {
            fraction: num as f64 / den as f64,
            budget: q,
            ratios: vec![0.0; labels.len()],
            failures: 0,
            sets: cfg.sets,
        })
        .collect();
    let mut point_secs = vec![0.0f64; rows.len()];
    let mut sim = SimCounters::default();
    let mut transfers = 0u64;
    let mut refutations = Vec::new();
    for o in &outcomes {
        let row = &mut rows[o.point];
        for (slot, &ok) in row.ratios.iter_mut().zip(&o.schedulable) {
            if ok {
                *slot += 1.0;
            }
        }
        row.failures += u64::from(o.failed);
        point_secs[o.point] += o.secs;
        sim.merge(&o.sim);
        transfers += o.transfers;
        refutations.extend(o.refutations.iter().cloned());
    }
    for row in &mut rows {
        for slot in &mut row.ratios {
            *slot /= cfg.sets.max(1) as f64;
        }
    }

    let mut cache = CacheStats::default();
    let mut solver = DpStats::default();
    for ctx in &contexts {
        cache.merge(ctx.cache_stats());
        solver.merge(ctx.solver_stats());
    }
    MulticoreOutcome {
        labels,
        rows,
        point_secs: budgets
            .iter()
            .zip(point_secs)
            .map(|(q, s)| (format!("Q={q}"), s))
            .collect(),
        cache,
        solver,
        sim,
        transfers,
        refutations,
        wall_secs: started.elapsed().as_secs_f64(),
        jobs: cfg.analysis.jobs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MulticoreConfig {
        MulticoreConfig {
            sets: 2,
            seed: 7,
            plans: 1,
            ..MulticoreConfig::for_cores(2)
        }
    }

    #[test]
    fn sweep_is_byte_identical_for_any_thread_count() {
        let serial = sweep_multicore(&tiny());
        let parallel = sweep_multicore(&MulticoreConfig {
            analysis: AnalysisConfig::default().with_jobs(4),
            ..tiny()
        });
        assert_eq!(serial.labels, parallel.labels);
        for (a, b) in serial.rows.iter().zip(&parallel.rows) {
            assert_eq!(a.ratios, b.ratios);
            assert_eq!(a.budget, b.budget);
            assert_eq!(a.failures, b.failures);
        }
        assert_eq!(serial.refutations, parallel.refutations);
        assert_eq!(serial.transfers, parallel.transfers);
    }

    #[test]
    fn generous_budgets_never_schedule_less_than_starved_ones() {
        let out = sweep_multicore(&MulticoreConfig { plans: 0, ..tiny() });
        // Ratio at the fair share must dominate the 25% level for every
        // heuristic (inflation is monotone in the budget).
        let first = &out.rows.first().expect("rows").ratios;
        let last = &out.rows.last().expect("rows").ratios;
        for (f, l) in first.iter().zip(last) {
            assert!(f >= l, "fair-share ratio {f} below starved ratio {l}");
        }
        assert!(out.refutations.is_empty());
    }
}
