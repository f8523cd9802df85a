//! Determinism contract of the parallel sweep executor: the rows (and the
//! CSV rendered from them) of every experiment on the `(point, set)`
//! driver — Figure 2, the ablation study, the runtime table — must be
//! byte-identical for every thread count, and the per-worker engine
//! stacks must reproduce a bare exact engine.
//!
//! Per-item seeds come from `pmcs_workload::derive_seed(base, point, set)`,
//! so a task set's content depends only on its coordinates — never on
//! which worker thread picked the item off the queue.

use pmcs_analysis::{AnalysisConfig, ProposedAnalyzer, Registry};
use pmcs_bench::{
    ablation_points, ablation_registry, csv_string, sweep_cold, sweep_with, SweepPoint,
};
use pmcs_core::engine::DEFAULT_MAX_STATES;
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

/// The sweep's `proposed` column (two workers, each reusing its context
/// across sets) equals the schedulable share a bare [`ExactEngine`] finds on the same
/// generated sets.
#[test]
fn sweep_rows_match_a_bare_engine() {
    let points = points();
    let registry = Registry::standard();
    let (sets, seed) = (8usize, 7u64);
    let swept = sweep_with(
        &points,
        sets,
        seed,
        &registry,
        &AnalysisConfig::default().with_jobs(2),
    );
    assert_eq!(swept.labels[0], "proposed");
    for (pi, (point, row)) in points.iter().zip(&swept.rows).enumerate() {
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
            "point {pi}: the sweep diverged from a bare engine"
        );
    }
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

/// The ablation study (its three-column registry over its utilization
/// steps, one set per step) gives the same rows for every thread count.
#[test]
fn ablation_rows_are_identical_for_any_thread_count() {
    let points = ablation_points();
    let registry = ablation_registry();
    let run = |jobs: usize| {
        sweep_with(
            &points,
            1,
            0xAB1A,
            &registry,
            &AnalysisConfig::default().with_jobs(jobs),
        )
    };
    let reference = run(1);
    assert_eq!(reference.labels, ["wp", "wp-milp", "proposed"]);
    for jobs in [2usize, 8] {
        assert_eq!(
            reference.rows,
            run(jobs).rows,
            "ablation rows diverged between 1 and {jobs} worker threads"
        );
    }
}

/// The runtime table's cold per-set analyses give the same
/// schedulable-ratio rows for every thread count, with one timing per set.
#[test]
fn runtime_rows_are_identical_for_any_thread_count() {
    let points: Vec<SweepPoint> = points()
        .into_iter()
        .map(|p| SweepPoint {
            config: TaskSetConfig { n: 4, ..p.config },
            ..p
        })
        .collect();
    let sets = [3usize, 2, 1];
    let memo = [
        DEFAULT_MAX_STATES,
        DEFAULT_MAX_STATES / 4,
        DEFAULT_MAX_STATES,
    ];
    let mut registry = Registry::new();
    registry.register(Box::new(ProposedAnalyzer));
    let run = |jobs: usize| {
        sweep_cold(
            &points,
            &sets,
            &memo,
            99,
            &registry,
            &AnalysisConfig::default().with_jobs(jobs),
        )
    };
    let (reference, times) = run(1);
    assert_eq!(
        times.iter().map(Vec::len).collect::<Vec<_>>(),
        sets.to_vec()
    );
    for jobs in [2usize, 8] {
        assert_eq!(
            reference.rows,
            run(jobs).0.rows,
            "runtime rows diverged between 1 and {jobs} worker threads"
        );
    }
}
