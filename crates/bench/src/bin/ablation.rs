//! Ablation study: where does the proposed approach's schedulability gain
//! come from?
//!
//! The paper (Section VIII) notes its formulation doubles as an improved
//! analysis of \[3\] when no task is latency-sensitive. This binary
//! decomposes the gap between the WP baseline and the full proposed
//! approach into:
//!
//! 1. **analysis tightening** — WP closed form → all-NLS MILP/engine
//!    (same protocol, sharper math);
//! 2. **LS support** — all-NLS → greedy LS marking (the protocol change:
//!    rules R3–R5).
//!
//! The three variants run through the `pmcs-analysis` registry: the
//! all-NLS column is the non-standard `wp-milp` analyzer, registered
//! here with one line — exactly the extension path a fifth approach
//! would take. The utilization steps are independent and run on the
//! worker pool (`--jobs N` / `PMCS_JOBS`, resolved at this CLI edge).
//! Each worker analyzes through its own engine stack with a shared
//! delay-bound cache, which pays off doubly here: the all-NLS pass and
//! the greedy pass solve many identical windows. A perf record goes to
//! `BENCH_ablation.json`.
//!
//! With `--cross-validate N` (or `PMCS_CROSS_VALIDATE`), every analyzed
//! set is simulated under `N` adversarial release plans per column whose
//! name has a simulator policy (`wp`, `proposed`; the all-NLS `wp-milp`
//! column has none and is skipped), checking observed worst responses
//! against the analytical bounds; refutations exit nonzero.
//!
//! With `--emit-certs` (or `PMCS_EMIT_CERTS=1`), every set is certified
//! right after its step analyses it (per-step timings exclude it): the
//! proposed analysis re-runs with a recorded proof transcript and the
//! bundle is validated by the independent `pmcs-cert` checker; `cert_*`
//! counters land in the perf record and any rejection exits nonzero.
//!
//! Usage: `cargo run --release -p pmcs-bench --bin ablation -- \
//!     [--sets N] [--jobs N] [--cross-validate N] [--emit-certs]`

use std::process::ExitCode;
use std::time::Instant;

use pmcs_analysis::{
    cross_validate_report, AnalysisConfig, AnalysisContext, CliOverrides, ProposedAnalyzer,
    Registry, SimCounters, WpAnalyzer, WpMilpAnalyzer,
};
use pmcs_bench::{certify_set, finish_run, parallel_map_with, CertSummary, PerfPoint, PerfRecord};
use pmcs_core::CacheStats;
use pmcs_workload::{adversarial_specs, derive_seed, TaskSetConfig, TaskSetGenerator};

fn main() -> ExitCode {
    let mut sets = 50usize;
    let mut cli = CliOverrides::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--sets" => sets = args.next().and_then(|v| v.parse().ok()).expect("--sets N"),
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
    let steps: Vec<u64> = (2..=9).collect();

    // The three ablation columns, in presentation order; `wp-milp` is the
    // registry's extension point in action (not part of the standard
    // four-approach comparison).
    let mut registry = Registry::new();
    registry.register(Box::new(WpAnalyzer::new()));
    registry.register(Box::new(WpMilpAnalyzer));
    registry.register(Box::new(ProposedAnalyzer));

    let started = Instant::now();
    let (lines, contexts) = parallel_map_with(
        &steps,
        cfg.jobs,
        || AnalysisContext::new(&cfg),
        |ctx, _, &step| {
            let t0 = Instant::now();
            let u = step as f64 * 0.05;
            // Per-step generator stream: independent of worker assignment.
            let mut generator = TaskSetGenerator::new(
                TaskSetConfig {
                    n: 6,
                    utilization: u,
                    gamma: 0.3,
                    beta: 0.4,
                    ..TaskSetConfig::default()
                },
                0xAB1A ^ step,
            );
            let sim_registry = pmcs_sim::Registry::standard();
            let mut sim = SimCounters::default();
            let mut refutations: Vec<String> = Vec::new();
            let mut certs = CertSummary::default();
            let (mut closed, mut all_nls, mut greedy) = (0usize, 0usize, 0usize);
            for si in 0..sets {
                let set = generator.generate();
                let analyze = |name: &str| {
                    registry
                        .require(name)
                        .expect("registered above")
                        .analyze_with(&set, ctx)
                        .expect("analysis")
                };
                let reports = [analyze("wp"), analyze("wp-milp"), analyze("proposed")];
                closed += usize::from(reports[0].schedulable());
                all_nls += usize::from(reports[1].schedulable());
                // Identical to the proposed pipeline when all-NLS already
                // passes; the greedy adds LS promotions on top.
                greedy += usize::from(reports[2].schedulable());
                if cfg.cross_validate > 0 {
                    for (ai, report) in reports.iter().enumerate() {
                        // Columns without a same-named simulator policy
                        // (the all-NLS `wp-milp` bound) cannot be
                        // cross-validated and are skipped.
                        let Some(policy) = sim_registry.get(&report.approach) else {
                            continue;
                        };
                        let specs = adversarial_specs(
                            cfg.cross_validate,
                            derive_seed(0xAB1A ^ step, si as u64, ai as u64),
                        );
                        let (counters, refs) = cross_validate_report(&set, policy, report, &specs)
                            .expect("cross-validation");
                        sim.merge(&counters);
                        refutations.extend(refs.iter().map(|r| format!("U={u:.2} set={si} {r}")));
                    }
                }
                if cfg.emit_certs {
                    certs.merge(&certify_set(&set, &format!("U={u:.2} set={si}")));
                }
            }
            let r = |v: usize| v as f64 / sets as f64;
            let line = format!(
                "{u:>5.2} | {:>10.2} {:>12.2} {:>12.2} | {:>+10.2} {:>+10.2}",
                r(closed),
                r(all_nls),
                r(greedy),
                r(all_nls) - r(closed),
                r(greedy) - r(all_nls),
            );
            let secs = t0.elapsed().as_secs_f64() - certs.secs;
            (u, line, sim, refutations, certs, secs)
        },
    );

    println!(
        "{:>5} | {:>10} {:>12} {:>12} | {:>10} {:>10}",
        "U", "wp-closed", "all-NLS", "greedy-LS", "Δ analysis", "Δ LS"
    );
    for (_, line, ..) in &lines {
        println!("{line}");
    }
    println!(
        "\nΔ analysis = all-NLS formulation vs WP closed form (same protocol);\n\
         Δ LS       = greedy latency-sensitive marking on top (rules R3-R5)."
    );

    let mut perf = PerfRecord::new("ablation");
    perf.jobs = cfg.jobs;
    perf.wall_secs = started.elapsed().as_secs_f64();
    let mut cache = CacheStats::default();
    for ctx in contexts {
        cache.merge(ctx.cache_stats());
    }
    perf.cache = cache;
    perf.extra_num("sets_per_step", sets as f64);
    let mut sim = SimCounters::default();
    let mut refutations: Vec<String> = Vec::new();
    let mut certs = CertSummary::default();
    for (u, _, step_sim, step_refs, step_certs, secs) in &lines {
        sim.merge(step_sim);
        refutations.extend(step_refs.iter().cloned());
        certs.merge(step_certs);
        perf.points.push(PerfPoint {
            label: format!("U={u:.2}"),
            secs: *secs,
        });
    }
    perf.extra_sim(&sim);

    let certs = cfg.emit_certs.then_some(certs);
    if let Some(certs) = &certs {
        println!("certificates: {certs}");
    }
    perf.extra_cert(certs.as_ref());
    let note = format!(" (cache: {})", perf.cache);
    finish_run(&perf, &note, certs.as_ref(), &refutations)
}
