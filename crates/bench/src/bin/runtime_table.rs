//! Reproduces the analysis-runtime measurements the paper reports in
//! prose (Section VII): average and maximum time to analyze a task set
//! (greedy LS algorithm included), per configuration.
//!
//! The paper measured hundreds of seconds per task set with IBM CPLEX;
//! the specialized exact engine of this reproduction solves the same
//! optimization in milliseconds (see DESIGN.md §2 for the substitution
//! argument).
//!
//! The table is one `pmcs_bench::sweep_cold` over the (n, U)
//! configurations: every `(configuration, set)` item runs on the worker
//! pool (`--jobs N` / `PMCS_JOBS`, resolved at this CLI edge), seeded
//! `derive_seed(99, configuration, set)`, so the schedulable ratios are
//! identical for every thread count. Per-set timings use a **fresh**
//! engine stack per task set, so each measurement reflects one cold
//! analysis rather than cross-set memoization. A failed analysis counts
//! as unschedulable and lands in `analysis_failures`. A perf record goes
//! to `BENCH_runtime_table.json`.
//!
//! With `--cross-validate N` (or `PMCS_CROSS_VALIDATE`), every analyzed
//! set is additionally simulated under `N` adversarial release plans
//! (outside the timed region, so the runtime numbers are unaffected),
//! checking observed worst responses against the proposed bounds;
//! refutations exit nonzero.
//!
//! With `--emit-certs` (or `PMCS_EMIT_CERTS=1`), every set is certified
//! right after its timed analysis (outside the timed region): the
//! proposed analysis re-runs with a recorded proof transcript and the
//! bundle is validated by the independent `pmcs-cert` checker; `cert_*`
//! counters land in the perf record and any rejection exits nonzero.
//!
//! Usage: `cargo run --release -p pmcs-bench --bin runtime_table -- \
//!     [--sets N] [--n N] [--jobs N] [--cross-validate N] [--emit-certs]`
//!
//! `--n N` restricts the sweep to the configurations with exactly `N`
//! tasks per set (repeatable); the default sweeps n ∈ {4, 6, 8, 10, 12}.
//!
//! `--sets N` is the *base* sample count: configurations with n ≤ 6
//! analyze `N` sets each, n = 8 analyzes `max(1, N/8)`, and n ≥ 10
//! analyzes `max(1, N/25)` — one analysis of a 10–12-task set costs
//! 10³–10⁴× an n=4 one, so the sweep samples densely where sets are
//! cheap and sparsely where each set is expensive. For n ≥ 10 the
//! exact-DP memo budget also drops to a quarter, so pathological
//! windows fall back to the safe cap quickly instead of burning the
//! full search budget first. The actual per-row counts land in the
//! perf record under `sets_schedule` / `max_states_schedule`.

use std::process::ExitCode;
use std::time::Duration;

use pmcs_analysis::{AnalysisConfig, CliOverrides, ProposedAnalyzer, Registry};
use pmcs_bench::{finish_run, sweep_cold, PerfPoint, PerfRecord, SweepPoint};
use pmcs_workload::TaskSetConfig;

/// Per-configuration sample count: the full base for small n, scaled
/// down where a single analysis is orders of magnitude more expensive.
fn sets_for(base: usize, n: usize) -> usize {
    let div = match n {
        0..=6 => 1,
        7 | 8 => 8,
        _ => 25,
    };
    (base / div).max(1)
}

/// Per-configuration exact-DP memo budget: the full base for n ≤ 8; at
/// n ≥ 10 a single window can legitimately demand tens of millions of
/// search nodes, so the budget shrinks (to a quarter) to keep one cold analysis
/// bounded — exhausted solves fall back to the safe cap and are counted
/// in `dp_fallbacks` (the hopeless-state pre-gate also trips earlier,
/// skipping most such windows without burning nodes at all).
fn max_states_for(base: usize, n: usize) -> usize {
    if n >= 10 {
        (base / 4).max(1)
    } else {
        base
    }
}

fn main() -> ExitCode {
    let mut sets = 25usize;
    let mut only_n: Vec<usize> = Vec::new();
    let mut cli = CliOverrides::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--sets" => sets = args.next().and_then(|v| v.parse().ok()).expect("--sets N"),
            "--n" => only_n.push(args.next().and_then(|v| v.parse().ok()).expect("--n N")),
            "--jobs" => {
                cli.jobs = Some(args.next().and_then(|v| v.parse().ok()).expect("--jobs N"));
            }
            "--cross-validate" => {
                cli.cross_validate = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--cross-validate N"),
                );
            }
            "--emit-certs" => cli.emit_certs = Some(true),
            other => {
                eprintln!("unknown argument '{other}'");
                return ExitCode::from(2);
            }
        }
    }
    let cfg = AnalysisConfig::resolve(&cli);

    let mut points = Vec::new();
    for n in [4usize, 6, 8, 10, 12] {
        if !only_n.is_empty() && !only_n.contains(&n) {
            continue;
        }
        for u in [0.2f64, 0.35, 0.5] {
            points.push(SweepPoint {
                x: u,
                config: TaskSetConfig {
                    n,
                    utilization: u,
                    gamma: 0.3,
                    beta: 0.4,
                    ..TaskSetConfig::default()
                },
            });
        }
    }
    let label = |p: &SweepPoint| format!("n={},U={:.2}", p.config.n, p.x);
    let set_counts: Vec<usize> = points.iter().map(|p| sets_for(sets, p.config.n)).collect();
    let memo_budgets: Vec<usize> = points
        .iter()
        .map(|p| max_states_for(cfg.max_states, p.config.n))
        .collect();
    let mut registry = Registry::new();
    registry.register(Box::new(ProposedAnalyzer));
    let (out, times) = sweep_cold(&points, &set_counts, &memo_budgets, 99, &registry, &cfg);

    let mut perf = PerfRecord::new("runtime_table");
    println!(
        "{:>3} {:>6} {:>6} {:>6} | {:>12} {:>12} {:>12}",
        "n", "U", "gamma", "beta", "avg", "max", "sched-ratio"
    );
    for ((point, row), times) in points.iter().zip(&out.rows).zip(&times) {
        let total: Duration = times.iter().sum();
        let max = times.iter().max().copied().unwrap_or_default();
        println!(
            "{:>3} {:>6.2} {:>6.2} {:>6.2} | {:>12?} {:>12?} {:>12.2}",
            point.config.n,
            point.x,
            0.3,
            0.4,
            total / row.sets.max(1) as u32,
            max,
            row.ratios[0]
        );
        perf.points.push(PerfPoint {
            label: label(point),
            secs: total.as_secs_f64(),
        });
    }
    println!(
        "\n(analysis = full greedy LS-marking schedulability test per task \
         set; the paper reports avg ≈ hundreds of seconds and max ≈ 1 h \
         with CPLEX on an i7-6700K)"
    );
    let failures = out.total_failures();
    if failures > 0 {
        eprintln!("{failures} analyses FAILED (counted as unschedulable)");
    }

    perf.jobs = out.jobs;
    perf.wall_secs = out.wall_secs;
    perf.extra_solver("solver", out.solver[0]);
    perf.extra_num("sets_per_config", sets as f64);
    let schedule = |values: &[usize]| {
        points
            .iter()
            .zip(values)
            .map(|(p, v)| format!("{}:{v}", label(p)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    perf.extra_str("sets_schedule", &schedule(&set_counts));
    perf.extra_str("max_states_schedule", &schedule(&memo_budgets));
    perf.extra_num("analysis_failures", failures as f64);
    perf.extra_sim(&out.sim);
    if let Some(certs) = &out.certs {
        println!("certificates: {certs}");
    }
    perf.extra_cert(out.certs.as_ref());
    finish_run(&perf, out.certs.as_ref(), &out.refutations)
}
