//! Differential golden test for the facade refactor seam.
//!
//! The pre-refactor sweep path evaluated each task set with hardcoded
//! direct calls — `analyze_task_set(..).map(..).unwrap_or(false)`,
//! `WpAnalysis::default().is_schedulable(..)`, the two `NpsAnalysis`
//! variants — and accumulated `[bool; 4]` flags. This test re-implements
//! that legacy path verbatim (including its fold-failures-into-false
//! behavior) and asserts the registry-driven sweep produces byte-identical
//! CSV rows for the same seeds, on a small fig2 inset-A slice.
//!
//! The runtime table and the multicore sweep run on the same `(point,
//! set)` driver; their rows are checked the same way against a serial
//! loop of direct calls on the same `derive_seed` sets.

use pmcs_analysis::{AnalysisConfig, ProposedAnalyzer, Registry};
use pmcs_baselines::{NpsAnalysis, WpAnalysis};
use pmcs_bench::{
    csv_string, fig2_inset, sweep_cold, sweep_multicore, sweep_with, Fig2Inset, MulticoreConfig,
    SweepPoint, SweepRow,
};
use std::sync::Arc;

use pmcs_core::engine::DEFAULT_MAX_STATES;
use pmcs_core::{
    analyze_task_set, partition_regulated, DelayEngine, ExactEngine, Heuristic, SharedCachedEngine,
    SharedDelayCache,
};
use pmcs_model::BusModel;
use pmcs_workload::{derive_seed, TaskSetConfig, TaskSetGenerator};

/// The pre-refactor `evaluate_set`, reproduced exactly — note the
/// `unwrap_or(false)` that motivated the failure-accounting satellite.
fn legacy_evaluate_set(set: &pmcs_model::TaskSet, engine: &impl DelayEngine) -> [bool; 4] {
    let proposed = analyze_task_set(set, engine)
        .map(|r| r.schedulable())
        .unwrap_or(false);
    let wp = WpAnalysis::default().is_schedulable(set);
    let nps = NpsAnalysis::with_carry().is_schedulable(set);
    let nps_classic = NpsAnalysis::default().is_schedulable(set);
    [proposed, wp, nps, nps_classic]
}

/// The pre-refactor single-threaded sweep loop: one cached engine reused
/// across all sets, win counts per point, ratios over `sets_per_point`.
fn legacy_sweep(points: &[SweepPoint], sets_per_point: usize, base_seed: u64) -> Vec<SweepRow> {
    let engine = SharedCachedEngine::new(
        ExactEngine::default(),
        Arc::new(SharedDelayCache::default()),
    );
    points
        .iter()
        .enumerate()
        .map(|(pi, point)| {
            let mut wins = [0usize; 4];
            for si in 0..sets_per_point {
                let seed = derive_seed(base_seed, pi as u64, si as u64);
                let set = TaskSetGenerator::new(point.config.clone(), seed).generate();
                for (w, f) in wins.iter_mut().zip(legacy_evaluate_set(&set, &engine)) {
                    *w += usize::from(f);
                }
            }
            SweepRow {
                x: point.x,
                ratios: wins
                    .iter()
                    .map(|&w| w as f64 / sets_per_point.max(1) as f64)
                    .collect(),
                failures: vec![0; 4],
                sets: sets_per_point,
            }
        })
        .collect()
}

#[test]
fn registry_sweep_matches_legacy_evaluate_set_byte_for_byte() {
    // A fig2 inset-A slice, small enough for a debug-build test run.
    let points: Vec<SweepPoint> = fig2_inset(Fig2Inset::A).into_iter().take(4).collect();
    let sets_per_point = 3;
    let seed = 0xDAC2020u64;

    let legacy_rows = legacy_sweep(&points, sets_per_point, seed);
    let outcome = sweep_with(
        &points,
        sets_per_point,
        seed,
        &Registry::standard(),
        &AnalysisConfig::default(),
    );

    assert_eq!(
        csv_string("utilization", &outcome.labels, &legacy_rows),
        csv_string("utilization", &outcome.labels, &outcome.rows),
        "registry sweep diverged from the pre-refactor evaluate_set path"
    );
    // No analysis failed here, so the two paths agree even on the rows
    // themselves, not just the rendered ratios.
    assert_eq!(outcome.total_failures(), 0);
    assert_eq!(legacy_rows, outcome.rows);
}

#[test]
fn registry_sweep_matches_legacy_on_a_parameter_sweep() {
    // Same check on the γ sweep (inset E), which varies a different knob.
    let points: Vec<SweepPoint> = fig2_inset(Fig2Inset::E).into_iter().take(3).collect();
    let legacy_rows = legacy_sweep(&points, 2, 7);
    let outcome = sweep_with(
        &points,
        2,
        7,
        &Registry::standard(),
        &AnalysisConfig::default(),
    );
    assert_eq!(legacy_rows, outcome.rows);
}

/// The runtime table's cold sweep equals a serial loop that analyses each
/// `derive_seed` set on a bare engine with the point's memo budget.
#[test]
fn cold_sweep_matches_a_serial_loop_of_direct_calls() {
    let points: Vec<SweepPoint> = [0.2f64, 0.35, 0.5]
        .iter()
        .map(|&u| SweepPoint {
            x: u,
            config: TaskSetConfig {
                n: 4,
                utilization: u,
                gamma: 0.3,
                beta: 0.4,
                ..TaskSetConfig::default()
            },
        })
        .collect();
    let (sets, memo, seed) = ([3usize, 3, 2], [DEFAULT_MAX_STATES, 2_000, 500], 99u64);
    let mut registry = Registry::new();
    registry.register(Box::new(ProposedAnalyzer));
    let (outcome, _) = sweep_cold(
        &points,
        &sets,
        &memo,
        seed,
        &registry,
        &AnalysisConfig::default().with_jobs(2),
    );
    let serial: Vec<SweepRow> = points
        .iter()
        .enumerate()
        .map(|(pi, point)| {
            let engine = ExactEngine::with_max_states(memo[pi]);
            let schedulable = (0..sets[pi])
                .filter(|&si| {
                    let set = TaskSetGenerator::new(
                        point.config.clone(),
                        derive_seed(seed, pi as u64, si as u64),
                    )
                    .generate();
                    analyze_task_set(&set, &engine)
                        .expect("analysis")
                        .schedulable()
                })
                .count();
            SweepRow {
                x: point.x,
                ratios: vec![schedulable as f64 / sets[pi] as f64],
                failures: vec![0],
                sets: sets[pi],
            }
        })
        .collect();
    assert_eq!(outcome.rows, serial);
}

/// The multicore sweep equals a serial loop that partitions each
/// `derive_seed` workload with every heuristic on a bare engine.
#[test]
fn multicore_sweep_matches_a_serial_loop_of_direct_calls() {
    let cfg = MulticoreConfig {
        sets: 2,
        seed: 7,
        plans: 1,
        analysis: AnalysisConfig::default().with_jobs(2),
        ..MulticoreConfig::for_cores(2)
    };
    let outcome = sweep_multicore(&cfg);
    let workload = TaskSetConfig {
        n: 2 * cfg.cores,
        utilization: cfg.util_per_core * cfg.cores as f64,
        gamma: cfg.gamma,
        ..TaskSetConfig::default()
    };
    let engine = ExactEngine::default();
    for (pi, (row, &budget)) in outcome.sweep.rows.iter().zip(&outcome.budgets).enumerate() {
        let bus = BusModel::uniform(cfg.period, cfg.cores, budget).expect("valid budget");
        let mut wins = vec![0usize; Heuristic::ALL.len()];
        for si in 0..cfg.sets {
            let set = TaskSetGenerator::new(
                workload.clone(),
                derive_seed(cfg.seed, pi as u64, si as u64),
            )
            .generate();
            for (w, h) in wins.iter_mut().zip(Heuristic::ALL) {
                let p = partition_regulated(set.tasks().to_vec(), cfg.cores, &bus, h, &engine)
                    .expect("partitioning");
                *w += usize::from(p.is_ok_and(|p| p.schedulable()));
            }
        }
        let ratios: Vec<f64> = wins.iter().map(|&w| w as f64 / cfg.sets as f64).collect();
        assert_eq!(row.ratios, ratios, "budget level {pi} diverged");
        assert!(row.failures.iter().all(|&f| f == 0));
    }
    assert!(outcome.sweep.refutations.is_empty());
}
