//! Reproduces the analysis-runtime measurements the paper reports in
//! prose (Section VII): average and maximum time to analyze a task set
//! (greedy LS algorithm included), per configuration.
//!
//! The paper measured hundreds of seconds per task set with IBM CPLEX;
//! the specialized exact engine of this reproduction solves the same
//! optimization in milliseconds (see DESIGN.md §2 for the substitution
//! argument).
//!
//! The nine configurations run on the worker pool (`--jobs N` /
//! `PMCS_JOBS`, resolved at this CLI edge). Per-set timings use a
//! **fresh** engine stack per task set, so each measurement reflects
//! one cold analysis rather than cross-set memoization. A perf record
//! goes to `BENCH_runtime_table.json`.
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
use std::time::Instant;

use pmcs_analysis::{
    cross_validate_report, AnalysisConfig, AnalysisContext, Analyzer, CliOverrides,
    ProposedAnalyzer, SimCounters,
};
use pmcs_bench::{certify_set, finish_run, parallel_map, CertSummary, PerfPoint, PerfRecord};
use pmcs_core::{CacheStats, DpStats};
use pmcs_workload::{adversarial_specs, derive_seed, TaskSetConfig, TaskSetGenerator};

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

    let mut configs = Vec::new();
    for n in [4usize, 6, 8, 10, 12] {
        if !only_n.is_empty() && !only_n.contains(&n) {
            continue;
        }
        for u in [0.2f64, 0.35, 0.5] {
            configs.push((n, u));
        }
    }

    let started = Instant::now();
    let measured = parallel_map(&configs, cfg.jobs, |ci, &(n, u)| {
        let sets = sets_for(sets, n);
        let mut cfg = cfg.clone();
        cfg.max_states = max_states_for(cfg.max_states, n);
        let ts_cfg = TaskSetConfig {
            n,
            utilization: u,
            gamma: 0.3,
            beta: 0.4,
            ..TaskSetConfig::default()
        };
        let mut generator = TaskSetGenerator::new(ts_cfg, 99);
        let mut total = std::time::Duration::ZERO;
        let mut max = std::time::Duration::ZERO;
        let mut schedulable = 0usize;
        let mut failures = 0usize;
        let mut stats = CacheStats::default();
        let mut solver = DpStats::default();
        let sim_registry = pmcs_sim::Registry::standard();
        let mut sim = SimCounters::default();
        let mut refutations: Vec<String> = Vec::new();
        let mut certs = CertSummary::default();
        for si in 0..sets {
            let set = generator.generate();
            // One cold engine stack per set: the timing measures a single
            // analysis, caching only within it (fixed-point iterations
            // and greedy rounds), never across sets.
            let t0 = Instant::now();
            let ctx = AnalysisContext::new(&cfg);
            let report = ProposedAnalyzer.analyze_with(&set, &ctx);
            let elapsed = t0.elapsed();
            stats.merge(ctx.cache_stats());
            solver.merge(ctx.solver_stats());
            total += elapsed;
            max = max.max(elapsed);
            match report {
                Ok(r) => {
                    schedulable += usize::from(r.schedulable());
                    // Cross-validation runs outside the timed region so
                    // the runtime numbers stay comparable.
                    if cfg.cross_validate > 0 {
                        let policy = sim_registry
                            .get(&r.approach)
                            .expect("proposed policy is registered");
                        let specs = adversarial_specs(
                            cfg.cross_validate,
                            derive_seed(99, ci as u64, si as u64),
                        );
                        let (counters, refs) = cross_validate_report(&set, policy, &r, &specs)
                            .expect("cross-validation");
                        sim.merge(&counters);
                        refutations
                            .extend(refs.iter().map(|r| format!("n={n} U={u:.2} set={si} {r}")));
                    }
                }
                Err(_) => failures += 1,
            }
            if cfg.emit_certs {
                certs.merge(&certify_set(&set, &format!("n={n} U={u:.2} set={si}")));
            }
        }
        let line = format!(
            "{n:>3} {u:>6.2} {:>6.2} {:>6.2} | {:>12?} {:>12?} {:>12.2}",
            0.3,
            0.4,
            total / sets.max(1) as u32,
            max,
            schedulable as f64 / sets.max(1) as f64
        );
        (
            line,
            total.as_secs_f64(),
            stats,
            solver,
            failures,
            sim,
            refutations,
            certs,
        )
    });

    println!(
        "{:>3} {:>6} {:>6} {:>6} | {:>12} {:>12} {:>12}",
        "n", "U", "gamma", "beta", "avg", "max", "sched-ratio"
    );
    for (line, ..) in &measured {
        println!("{line}");
    }
    println!(
        "\n(analysis = full greedy LS-marking schedulability test per task \
         set; the paper reports avg ≈ hundreds of seconds and max ≈ 1 h \
         with CPLEX on an i7-6700K)"
    );

    let mut perf = PerfRecord::new("runtime_table");
    perf.jobs = cfg.jobs;
    perf.wall_secs = started.elapsed().as_secs_f64();
    let mut merged = CacheStats::default();
    let mut solver = DpStats::default();
    let mut failures = 0usize;
    let mut sim = SimCounters::default();
    let mut refutations: Vec<String> = Vec::new();
    let mut certs = CertSummary::default();
    for ((n, u), (_, secs, stats, cfg_solver, fails, cfg_sim, cfg_refs, cfg_certs)) in
        configs.iter().zip(&measured)
    {
        merged.merge(*stats);
        solver.merge(*cfg_solver);
        failures += fails;
        sim.merge(cfg_sim);
        refutations.extend(cfg_refs.iter().cloned());
        certs.merge(cfg_certs);
        perf.points.push(PerfPoint {
            label: format!("n={n},U={u:.2}"),
            secs: *secs,
        });
    }
    if failures > 0 {
        eprintln!("{failures} analyses FAILED (excluded from the schedulable count)");
    }
    perf.cache = merged;
    perf.extra_solver("solver", solver);
    perf.extra_num("sets_per_config", sets as f64);
    let schedule = configs
        .iter()
        .map(|&(n, u)| format!("n={n},U={u:.2}:{}", sets_for(sets, n)))
        .collect::<Vec<_>>()
        .join(" ");
    perf.extra_str("sets_schedule", &schedule);
    let memo_schedule = configs
        .iter()
        .map(|&(n, u)| format!("n={n},U={u:.2}:{}", max_states_for(cfg.max_states, n)))
        .collect::<Vec<_>>()
        .join(" ");
    perf.extra_str("max_states_schedule", &memo_schedule);
    perf.extra_num("analysis_failures", failures as f64);
    perf.extra_sim(&sim);

    let certs = cfg.emit_certs.then_some(certs);
    if let Some(certs) = &certs {
        println!("certificates: {certs}");
    }
    perf.extra_cert(certs.as_ref());
    finish_run(&perf, "", certs.as_ref(), &refutations)
}
