//! Determinism contract of the parallel sweep executor: the rows (and the
//! CSV rendered from them) must be byte-identical for every thread count,
//! and the cached engine stack must reproduce a bare exact engine.
//!
//! Per-item seeds come from `pmcs_workload::derive_seed(base, point, set)`,
//! so a task set's content depends only on its coordinates — never on
//! which worker thread picked the item off the queue.

use pmcs_analysis::{AnalysisConfig, Registry};
use pmcs_bench::{csv_string, sweep_with, SweepPoint};
use pmcs_core::{analyze_task_set, ExactEngine};
use pmcs_workload::{derive_seed, TaskSetConfig, TaskSetGenerator};

fn points() -> Vec<SweepPoint> {
    [0.2f64, 0.4, 0.6]
        .iter()
        .map(|&u| SweepPoint {
            x: u,
            config: TaskSetConfig {
                n: 5,
                utilization: u,
                gamma: 0.3,
                beta: 0.4,
                ..TaskSetConfig::default()
            },
        })
        .collect()
}

#[test]
fn sweep_rows_are_identical_for_any_thread_count() {
    let points = points();
    let registry = Registry::standard();
    let reference = sweep_with(&points, 8, 7, &registry, &AnalysisConfig::default());
    for jobs in [2usize, 8] {
        let other = sweep_with(
            &points,
            8,
            7,
            &registry,
            &AnalysisConfig::default().with_jobs(jobs),
        );
        assert_eq!(
            reference.rows, other.rows,
            "rows diverged between 1 and {jobs} worker threads"
        );
    }
}

/// The sweep's `proposed` column (shared window cache, two workers)
/// equals the schedulable share a bare [`ExactEngine`] finds on the same
/// generated sets.
#[test]
fn sweep_rows_match_a_bare_engine() {
    let points = points();
    let registry = Registry::standard();
    let (sets, seed) = (8usize, 7u64);
    let cached = sweep_with(
        &points,
        sets,
        seed,
        &registry,
        &AnalysisConfig::default().with_jobs(2),
    );
    assert_eq!(cached.labels[0], "proposed");
    for (pi, (point, row)) in points.iter().zip(&cached.rows).enumerate() {
        let schedulable = (0..sets)
            .filter(|&si| {
                let set = TaskSetGenerator::new(
                    point.config.clone(),
                    derive_seed(seed, pi as u64, si as u64),
                )
                .generate();
                analyze_task_set(&set, &ExactEngine::default())
                    .expect("analysis")
                    .schedulable()
            })
            .count();
        assert_eq!(
            row.ratios[0],
            schedulable as f64 / sets as f64,
            "point {pi}: the cached sweep diverged from a bare engine"
        );
    }
    assert!(
        cached.cache.hits > 0,
        "the sweep should actually exercise the delay cache"
    );
}

#[test]
fn csv_output_is_byte_identical_across_configurations() {
    let points = points();
    let registry = Registry::standard();
    let reference_outcome = sweep_with(&points, 6, 11, &registry, &AnalysisConfig::default());
    let reference = csv_string("U", &reference_outcome.labels, &reference_outcome.rows);
    for jobs in [2usize, 8] {
        let outcome = sweep_with(
            &points,
            6,
            11,
            &registry,
            &AnalysisConfig::default().with_jobs(jobs),
        );
        assert_eq!(
            reference,
            csv_string("U", &outcome.labels, &outcome.rows),
            "CSV bytes diverged at jobs={jobs}"
        );
    }
}
