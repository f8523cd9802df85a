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
//! The sweep is one closure over the shared `(point, set)` driver
//! (`sweep_items`): every per-item seed derives from `(base seed,
//! point, set)`, so results are byte-identical for any `--jobs` value.
//! A heuristic whose partitioning fails counts as a failed analysis in
//! [`SweepRow::failures`](crate::SweepRow); a cross-validation that
//! cannot run reports an `ERROR` refutation line.

use pmcs_analysis::{cross_validate_platform, AnalysisConfig, AnalysisContext};
use pmcs_core::{partition_regulated, Heuristic};
use pmcs_model::{BusModel, Platform, Time};
use pmcs_workload::{derive_seed, TaskSetConfig};

use crate::experiment::{sweep_items, Item, SetOutcome, SweepOutcome, SweepPoint};

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
    /// Engine-stack configuration (jobs, audit, …).
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

/// Result of [`sweep_multicore`].
#[derive(Debug, Clone)]
pub struct MulticoreOutcome {
    /// One row per budget level, most generous first (`x` is the budget
    /// as a fraction of the fair share `P / cores`), one column per
    /// heuristic, with the sweep's telemetry.
    pub sweep: SweepOutcome,
    /// The per-core budget `Q` of each level, in row order.
    pub budgets: Vec<Time>,
    /// DMA transfers replayed through the shared-bus arbiter.
    pub transfers: u64,
}

/// Runs the cores × budgets × heuristics sweep described in the module
/// docs and returns the aggregate outcome. Deterministic for a given
/// config, independent of `analysis.jobs`.
pub fn sweep_multicore(cfg: &MulticoreConfig) -> MulticoreOutcome {
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
    let points: Vec<SweepPoint> = BUDGET_FRACTIONS
        .iter()
        .map(|&(num, den)| SweepPoint {
            x: num as f64 / den as f64,
            config: workload.clone(),
        })
        .collect();
    let labels = Heuristic::ALL.iter().map(ToString::to_string).collect();
    // Certificates prove uniprocessor verdicts, not partitions.
    let analysis = cfg.analysis.clone().with_emit_certs(false);
    let (sweep, transfers) = sweep_items(
        &points,
        &vec![cfg.sets; points.len()],
        cfg.seed,
        labels,
        &analysis,
        |worker, pi, set, seed| {
            let bus = BusModel::uniform(cfg.period, cfg.cores, budgets[pi])
                .expect("budget levels respect ΣQ ≤ P");
            let ctx = &worker.ctx;
            let mut item = Item::<u64>::default();
            for h in Heuristic::ALL {
                let before = ctx.solver_stats();
                let tasks = set.tasks().to_vec();
                let outcome = match partition_regulated(tasks, cfg.cores, &bus, h, ctx.engine()) {
                    Ok(Ok(p)) if p.schedulable() => {
                        if h == Heuristic::FirstFit && cfg.plans > 0 {
                            let cv_seed = derive_seed(seed, CV_SEED_STREAM, 0);
                            cross_validate_into(&mut item, &p.platform, cfg.plans, cv_seed, ctx);
                        }
                        SetOutcome::Schedulable
                    }
                    Ok(_) => SetOutcome::Unschedulable,
                    Err(e) => SetOutcome::Failed(e.into()),
                };
                item.outcomes
                    .push((outcome, ctx.solver_stats().since(&before)));
            }
            item
        },
    );
    MulticoreOutcome {
        sweep,
        budgets,
        transfers: transfers.iter().flatten().sum(),
    }
}

/// Cross-validates a schedulable first-fit partition into `item`:
/// per-core adversarial plans plus the coupled bus replay. A check that
/// cannot run becomes an `ERROR` line.
fn cross_validate_into(
    item: &mut Item<u64>,
    platform: &Platform,
    plans: usize,
    seed: u64,
    ctx: &AnalysisContext,
) {
    match cross_validate_platform(platform, "proposed", plans, seed, ctx) {
        Ok(pv) => {
            item.sim.merge(&pv.counters());
            item.extra += pv.transfers_checked;
            item.refutations
                .extend(pv.refutations().iter().map(ToString::to_string));
        }
        Err(e) => item.refutations.push(format!(
            "ERROR heuristic={} cross-validation failed: {e}",
            Heuristic::FirstFit
        )),
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
        assert_eq!(serial.sweep.labels, parallel.sweep.labels);
        assert_eq!(serial.sweep.rows, parallel.sweep.rows);
        assert_eq!(serial.budgets, parallel.budgets);
        assert_eq!(serial.sweep.refutations, parallel.sweep.refutations);
        assert_eq!(serial.transfers, parallel.transfers);
    }

    #[test]
    fn generous_budgets_never_schedule_less_than_starved_ones() {
        let out = sweep_multicore(&MulticoreConfig { plans: 0, ..tiny() });
        // Ratio at the fair share must dominate the 25% level for every
        // heuristic (inflation is monotone in the budget).
        let first = &out.sweep.rows.first().expect("rows").ratios;
        let last = &out.sweep.rows.last().expect("rows").ratios;
        for (f, l) in first.iter().zip(last) {
            assert!(f >= l, "fair-share ratio {f} below starved ratio {l}");
        }
        assert!(out.sweep.refutations.is_empty());
    }
}
