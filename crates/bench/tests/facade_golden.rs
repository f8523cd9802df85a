//! Differential golden test for the facade refactor seam.
//!
//! The pre-refactor sweep path evaluated each task set with hardcoded
//! direct calls — `analyze_task_set(..).map(..).unwrap_or(false)`,
//! `WpAnalysis::default().is_schedulable(..)`, the two `NpsAnalysis`
//! variants — and accumulated `[bool; 4]` flags. This test re-implements
//! that legacy path verbatim (including its fold-failures-into-false
//! behavior) and asserts the registry-driven sweep produces byte-identical
//! CSV rows for the same seeds, on a small fig2 inset-A slice.

use pmcs_analysis::{AnalysisConfig, Registry};
use pmcs_baselines::{NpsAnalysis, WpAnalysis};
use pmcs_bench::{csv_string, fig2_inset, sweep_with, Fig2Inset, SweepPoint, SweepRow};
use std::sync::Arc;

use pmcs_core::{analyze_task_set, DelayEngine, ExactEngine, SharedCachedEngine, SharedDelayCache};
use pmcs_workload::{derive_seed, TaskSetGenerator};

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
