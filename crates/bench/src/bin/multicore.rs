//! Multi-core schedulability sweep under shared-bus bandwidth regulation.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p pmcs-bench --bin multicore -- \
//!     [--cores M] [--sets N] [--seed S] [--period TICKS] \
//!     [--util U] [--gamma G] [--jobs N] [--cross-validate N]
//! ```
//!
//! Sweeps per-core regulation budgets (fractions of the fair share
//! `P / cores`) against all partitioning heuristics on randomly generated
//! workloads: each task set is packed onto the `M`-core regulated
//! platform with contention-aware admission and the schedulability ratio
//! per heuristic is reported. Every schedulable first-fit partition is
//! additionally multi-core cross-validated — per-core adversarial plans
//! on the inflated sets *plus* a coupled replay of all DMA transfers
//! through the shared-bus arbiter, checking observed service times
//! against the analytical inflation bound. `--cross-validate N` sets the
//! adversarial plans per partition (default 2; `0` disables the check).
//!
//! Results go to `target/experiments/multicore.csv` and a perf record
//! (including bus-replay counters) to `BENCH_multicore.json` at the
//! repository root. Any refutation prints a machine-readable line —
//! byte-identical for every `--jobs` value — and makes the binary exit
//! nonzero.

use std::path::PathBuf;
use std::process::ExitCode;

use pmcs_analysis::{AnalysisConfig, CliOverrides};
use pmcs_bench::report::text_table;
use pmcs_bench::{
    ascii_chart, finish_run, sweep_multicore, write_csv, MulticoreConfig, PerfPoint, PerfRecord,
};
use pmcs_core::DpStats;
use pmcs_model::Time;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cores = 4usize;
    let mut sets: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut period: Option<i64> = None;
    let mut util: Option<f64> = None;
    let mut gamma: Option<f64> = None;
    let mut cli = CliOverrides::default();
    let mut plans_flag: Option<usize> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cores" => {
                cores = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&m| m >= 1)
                    .expect("--cores needs a positive number");
            }
            "--sets" => {
                sets = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--sets needs a number"),
                );
            }
            "--seed" => {
                seed = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--seed needs a number"),
                );
            }
            "--period" => {
                period = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&t| t > 0)
                        .expect("--period needs a positive tick count"),
                );
            }
            "--util" => {
                util = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--util needs a per-core utilization"),
                );
            }
            "--gamma" => {
                gamma = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--gamma needs a memory-intensity factor"),
                );
            }
            "--jobs" => {
                cli.jobs = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--jobs needs a number"),
                );
            }
            "--cross-validate" => {
                plans_flag = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--cross-validate needs a number of plans"),
                );
            }
            other => {
                eprintln!("unknown argument '{other}'");
                return ExitCode::from(2);
            }
        }
    }
    // Workload defaults (memory intensity in particular) scale with the
    // core count, so the base config is built only after parsing.
    let mut mc = MulticoreConfig::for_cores(cores);
    if let Some(v) = sets {
        mc.sets = v;
    }
    if let Some(v) = seed {
        mc.seed = v;
    }
    if let Some(v) = period {
        mc.period = Time::from_ticks(v);
    }
    if let Some(v) = util {
        mc.util_per_core = v;
    }
    if let Some(v) = gamma {
        mc.gamma = v;
    }
    mc.analysis = AnalysisConfig::resolve(&cli);
    if let Some(plans) = plans_flag {
        mc.plans = plans;
    }

    println!(
        "=== Multi-core sweep — {} cores, bus period {}, {} sets/level, seed {}, \
         {} jobs, {} plan(s)/partition ===",
        mc.cores, mc.period, mc.sets, mc.seed, mc.analysis.jobs, mc.plans,
    );
    let out = sweep_multicore(&mc);
    let sweep = &out.sweep;

    println!("{}", text_table(&sweep.rows, &sweep.labels, "Q/share"));
    println!("{}", ascii_chart(&sweep.rows, &sweep.labels, "Q/share"));
    let path = PathBuf::from("target/experiments/multicore.csv");
    write_csv(&path, "Q/share", &sweep.labels, &sweep.rows).expect("write csv");
    println!("wrote {} ({:.1}s wall)", path.display(), sweep.wall_secs);
    let failures = sweep.total_failures();
    if failures > 0 {
        eprintln!("multicore: {failures} analyses FAILED (counted as unschedulable)");
    }
    if mc.plans > 0 {
        println!(
            "cross-validation: {} plans simulated, {} traces validated, \
             {} bus transfers replayed, {} refutations",
            sweep.sim.plans_run, sweep.sim.traces_validated, out.transfers, sweep.sim.refutations,
        );
    }

    let mut perf = PerfRecord::new("multicore");
    perf.jobs = sweep.jobs;
    perf.wall_secs = sweep.wall_secs;
    for (q, secs) in out.budgets.iter().zip(&sweep.point_secs) {
        perf.points.push(PerfPoint {
            label: format!("multicore:Q={q}"),
            secs: *secs,
        });
    }
    let mut solver = DpStats::default();
    sweep.solver.iter().for_each(|s| solver.merge(*s));
    perf.extra_num("cores", mc.cores as f64);
    perf.extra_num("period_ticks", mc.period.as_ticks() as f64);
    perf.extra_num("sets_per_level", mc.sets as f64);
    perf.extra_num("analysis_failures", failures as f64);
    perf.extra_num("bus_transfers_checked", out.transfers as f64);
    perf.extra_solver("solver_total", solver);
    perf.extra_sim(&sweep.sim);
    finish_run(&perf, None, &sweep.refutations)
}
