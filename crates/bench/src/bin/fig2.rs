//! Regenerates one inset of Figure 2 (schedulability-ratio comparison).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p pmcs-bench --bin fig2 -- <a|b|c|d|e|f|all> \
//!     [--sets N] [--seed S] [--jobs N] [--audit] \
//!     [--cross-validate N] [--emit-certs]
//! ```
//!
//! Execution knobs resolve through `AnalysisConfig::resolve` at this CLI
//! edge (flag > environment > default): `--jobs N` beats `PMCS_JOBS`
//! beats all cores, `--audit` beats `PMCS_AUDIT`; results are
//! byte-identical for every thread count. `--cross-validate N` (or
//! `PMCS_CROSS_VALIDATE`) simulates every analyzed set under `N`
//! adversarial release plans per approach, validates the traces, and
//! checks observed worst responses against the analytical WCRT bounds;
//! any refutation is printed as a machine-readable line (identical for
//! every thread count) and makes the binary exit nonzero.
//! `--emit-certs` (or `PMCS_EMIT_CERTS=1`) certifies every set in the
//! sweep that analyses it, right after its timed analysis — the proposed
//! analysis re-runs with its proof transcript recorded and the bundle is
//! validated by the independent `pmcs-cert` checker; per-inset summaries
//! print after all insets, `cert_emitted`/`cert_checked`/`cert_rejected`
//! counters land in `BENCH_fig2.json`, the CSV rows are byte-identical
//! with the flag on or off, and any rejected certificate makes the
//! binary exit nonzero.
//!
//! Results are printed as a table plus an ASCII chart and written to
//! `target/experiments/fig2<inset>.csv`; a machine-readable perf record
//! (including the analysis-failure count) goes to `BENCH_fig2.json` at
//! the repository root.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use pmcs_analysis::{AnalysisConfig, CliOverrides, Registry};
use pmcs_bench::report::text_table;
use pmcs_bench::{
    ascii_chart, fig2_inset, finish_run, sweep_with, write_csv, CertSummary, Fig2Inset, PerfPoint,
    PerfRecord,
};
use pmcs_core::DpStats;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut insets: Vec<Fig2Inset> = Vec::new();
    let mut sets_per_point = 100usize;
    let mut seed = 0xDAC2020u64;
    let mut cli = CliOverrides::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--sets" => {
                sets_per_point = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--sets needs a number");
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs a number");
            }
            "--jobs" => {
                cli.jobs = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--jobs needs a number"),
                );
            }
            "--audit" => cli.audit = Some(true),
            "--cross-validate" => {
                cli.cross_validate = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--cross-validate needs a number of plans"),
                );
            }
            "--emit-certs" => cli.emit_certs = Some(true),
            "all" => insets.extend(Fig2Inset::ALL),
            other => match Fig2Inset::parse(other) {
                Some(i) => insets.push(i),
                None => {
                    eprintln!("unknown inset '{other}'; use a..f or 'all'");
                    return ExitCode::from(2);
                }
            },
        }
    }
    if insets.is_empty() {
        insets.extend(Fig2Inset::ALL);
    }
    let cfg = AnalysisConfig::resolve(&cli);
    let registry = Registry::standard();

    let mut perf = PerfRecord::new("fig2");
    perf.jobs = cfg.jobs;
    let mut failures = 0usize;
    let mut sim = pmcs_analysis::SimCounters::default();
    let mut refutations: Vec<String> = Vec::new();
    let mut solver_by_label: Vec<(String, DpStats)> = Vec::new();
    let mut inset_certs: Vec<(Fig2Inset, CertSummary)> = Vec::new();
    let started = Instant::now();
    for &inset in &insets {
        let inset_started = Instant::now();
        let points = fig2_inset(inset);
        println!(
            "=== Figure 2({}) — {} [{} sets/point, seed {seed}, {} jobs] ===",
            inset.letter(),
            inset.description(),
            sets_per_point,
            cfg.jobs,
        );
        let outcome = sweep_with(&points, sets_per_point, seed, &registry, &cfg);
        println!(
            "{}",
            text_table(&outcome.rows, &outcome.labels, inset.x_label())
        );
        println!(
            "{}",
            ascii_chart(&outcome.rows, &outcome.labels, inset.x_label())
        );
        let path = PathBuf::from(format!("target/experiments/fig2{}.csv", inset.letter()));
        write_csv(&path, inset.x_label(), &outcome.labels, &outcome.rows).expect("write csv");
        println!(
            "wrote {} ({:.1}s wall)\n",
            path.display(),
            inset_started.elapsed().as_secs_f64(),
        );
        if outcome.total_failures() > 0 {
            eprintln!(
                "fig2{}: {} analyses FAILED (counted as unschedulable in the ratios)",
                inset.letter(),
                outcome.total_failures()
            );
        }
        if cfg.cross_validate > 0 {
            println!(
                "cross-validation: {} plans simulated, {} traces validated, {} refutations",
                outcome.sim.plans_run, outcome.sim.traces_validated, outcome.sim.refutations
            );
        }
        sim.merge(&outcome.sim);
        refutations.extend(
            outcome
                .refutations
                .iter()
                .map(|line| format!("fig2{} {line}", inset.letter())),
        );
        failures += outcome.total_failures();
        for (label, stats) in outcome.labels.iter().zip(&outcome.solver) {
            match solver_by_label.iter_mut().find(|(l, _)| l == label) {
                Some((_, agg)) => agg.merge(*stats),
                None => solver_by_label.push((label.clone(), *stats)),
            }
        }
        for (p, secs) in points.iter().zip(&outcome.point_secs) {
            perf.points.push(PerfPoint {
                label: format!("fig2{}:{}={:.2}", inset.letter(), inset.x_label(), p.x),
                secs: *secs,
            });
        }
        if let Some(mut certs) = outcome.certs {
            for line in &mut certs.rejections {
                *line = format!("fig2{} {line}", inset.letter());
            }
            inset_certs.push((inset, certs));
        }
    }
    perf.wall_secs = started.elapsed().as_secs_f64();
    perf.extra_num("sets_per_point", sets_per_point as f64);
    perf.extra_num("analysis_failures", failures as f64);
    for (label, stats) in &solver_by_label {
        perf.extra_solver(&format!("solver_{label}"), *stats);
    }
    perf.extra_sim(&sim);

    // Certificate summaries, one per inset, after every inset's table.
    let certs = cfg.emit_certs.then(|| {
        let mut total = CertSummary::default();
        for (inset, certs) in &inset_certs {
            println!("fig2{}: certificates — {certs}", inset.letter());
            total.merge(certs);
        }
        total
    });
    perf.extra_cert(certs.as_ref());
    finish_run(&perf, certs.as_ref(), &refutations)
}
