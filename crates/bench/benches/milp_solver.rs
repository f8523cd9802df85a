//! Criterion benchmarks for the from-scratch MILP substrate: LP solves and
//! branch & bound on schedulability formulations of growing size, plus the
//! formulation-vs-specialized-engine comparison that justifies the
//! engine's existence (DESIGN.md §2).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use pmcs_analysis::MilpEngine;
use pmcs_core::window::{test_task, WindowCase, WindowModel};
use pmcs_core::{DelayEngine, ExactEngine};
use pmcs_milp::{Cmp, LinExpr, Problem, RevisedSimplex, Solver};
use pmcs_model::{TaskId, TaskSet, Time};

fn window(n_tasks: u32, t: i64) -> WindowModel {
    let tasks: Vec<_> = (0..n_tasks)
        .map(|i| {
            test_task(
                i,
                10 + 7 * i as i64,
                2 + i as i64,
                2 + (i as i64 + 1) % 3,
                80 + 30 * i as i64,
                i,
                i % 2 == 0,
            )
        })
        .collect();
    let set = TaskSet::new(tasks).unwrap();
    let low = TaskId(n_tasks - 1);
    WindowModel::build(&set, low, WindowCase::Nls, Time::from_ticks(t)).unwrap()
}

fn bench_lp(c: &mut Criterion) {
    let mut group = c.benchmark_group("simplex_lp");
    for size in [10usize, 30, 60] {
        // Dense random-ish LP: maximize Σ x_i, chained capacity rows.
        let mut p = Problem::maximize();
        let vars: Vec<_> = (0..size)
            .map(|i| p.continuous(format!("x{i}"), 0.0, 10.0))
            .collect();
        for w in vars.windows(3) {
            let e = LinExpr::from(w[0]) + w[1] + w[2];
            p.constrain(e, Cmp::Le, 12.0);
        }
        let mut obj = LinExpr::zero();
        for v in &vars {
            obj += LinExpr::from(*v);
        }
        p.set_objective(obj);
        let bounds: Vec<(f64, f64)> = p.vars().map(|v| p.var_bounds(v)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(size), &p, |b, p| {
            b.iter(|| {
                RevisedSimplex::default()
                    .solve_with_bounds(p, &bounds, None)
                    .unwrap()
            });
        });
    }
    group.finish();
}

fn bench_bnb_knapsack(c: &mut Criterion) {
    let mut p = Problem::maximize();
    let weights = [5.0, 7.0, 4.0, 3.0, 9.0, 6.0, 5.5, 4.5, 8.0, 2.0];
    let mut cap = LinExpr::zero();
    let mut obj = LinExpr::zero();
    for (i, w) in weights.iter().enumerate() {
        let v = p.binary(format!("b{i}"));
        cap += v * *w;
        obj += v * (*w + (i as f64) * 0.3);
    }
    p.constrain(cap, Cmp::Le, 23.0);
    p.set_objective(obj);
    c.bench_function("bnb_knapsack_10", |b| {
        b.iter(|| Solver::new().solve(&p).unwrap());
    });
}

fn bench_formulation_vs_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("window_delay");
    group.sample_size(10);
    for n in [2u32, 3] {
        let w = window(n, 60);
        group.bench_with_input(BenchmarkId::new("milp", n), &w, |b, w| {
            b.iter(|| MilpEngine::default().max_total_delay(w).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("exact", n), &w, |b, w| {
            b.iter(|| ExactEngine::default().max_total_delay(w).unwrap());
        });
    }
    // Larger windows: specialized engine only (the MILP would take minutes,
    // as CPLEX did for the authors).
    for n in [5u32, 7] {
        let w = window(n, 200);
        group.bench_with_input(BenchmarkId::new("exact", n), &w, |b, w| {
            b.iter(|| ExactEngine::default().max_total_delay(w).unwrap());
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_lp,
    bench_bnb_knapsack,
    bench_formulation_vs_engine
);
criterion_main!(benches);
