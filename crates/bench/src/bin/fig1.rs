//! Regenerates Figure 1 of the paper: the same task set scheduled under
//! (a) the Wasly-Pellizzoni protocol — the task under analysis is blocked
//! by **two** lower-priority tasks and misses its deadline; (b) classical
//! non-preemptive scheduling — one blocking task, deadline met; and, as
//! the paper's Section IV promises, (c) the proposed protocol — the
//! latency-sensitive task cancels the in-flight copy-in, turns urgent, and
//! meets its deadline comfortably.
//!
//! The three policy simulations are independent, so they run on the
//! worker pool (`--jobs N` / `PMCS_JOBS`) and print in order afterwards;
//! a perf record goes to `BENCH_fig1.json`. With `--emit-certs` (or
//! `PMCS_EMIT_CERTS=1`) the Figure 1 task set is additionally analyzed
//! with a recorded proof transcript (outside the timed region) and the
//! emitted certificate bundle is validated by the independent
//! `pmcs-cert` checker; a rejection exits nonzero.
//!
//! Usage: `cargo run --release -p pmcs-bench --bin fig1 -- [--jobs N]
//! [--emit-certs]`

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use pmcs_analysis::{AnalysisConfig, CliOverrides};
use pmcs_bench::{certify_set, fig1_task_set, finish_run, parallel_map, PerfPoint, PerfRecord};
use pmcs_model::{TaskId, Time};
use pmcs_sim::{render_gantt, simulate, validate_trace, Policy, ReleasePlan};

fn main() -> ExitCode {
    let mut cli = CliOverrides::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--jobs" => {
                cli.jobs = Some(args.next().and_then(|v| v.parse().ok()).expect("--jobs N"));
            }
            "--emit-certs" => cli.emit_certs = Some(true),
            other => {
                eprintln!("unknown argument '{other}'");
                return ExitCode::from(2);
            }
        }
    }
    let cfg = AnalysisConfig::resolve(&cli);
    let jobs = cfg.jobs;

    let (set, releases) = fig1_task_set();
    let plan = ReleasePlan::from_pairs(releases);
    let horizon = Time::from_ticks(40);
    let tau_i = TaskId(0);
    let deadline = set.get(tau_i).unwrap().deadline();

    println!("Figure 1 reproduction — task set:");
    println!("{set}");
    println!(
        "τ0 (= τ_i of the paper) is released at t=4 with deadline D={deadline}; \
         two lower-priority tasks are pending and the lowest-priority task \
         τ3 (= τ_p) has executed just before, leaving a pending copy-out.\n"
    );

    let scenarios = [
        (Policy::WaslyPellizzoni, "(a) Wasly-Pellizzoni [3]"),
        (Policy::Nps, "(b) non-preemptive scheduling"),
        (
            Policy::Proposed,
            "(c) proposed protocol (τ_i latency-sensitive)",
        ),
    ];

    let started = Instant::now();
    let rendered = parallel_map(&scenarios, jobs, |_, &(policy, label)| {
        let t0 = Instant::now();
        let result = simulate(&set, &plan, policy, horizon);
        let record = result
            .jobs()
            .iter()
            .find(|j| j.job.task() == tau_i)
            .expect("τ_i released");
        let completion = record.completion.expect("τ_i completes within horizon");
        let verdict = if record.met_deadline() {
            "MEETS"
        } else {
            "MISSES"
        };
        let mut out = String::new();
        let _ = writeln!(out, "--- {label} ---");
        let _ = write!(
            out,
            "{}",
            render_gantt(&result, Time::from_ticks(26), Time::TICK)
        );
        let _ = writeln!(
            out,
            "τ_i: release={} completion={} (absolute deadline {}) → {verdict}\n",
            record.release, completion, record.absolute_deadline
        );
        if policy != Policy::Nps {
            let violations = validate_trace(&set, &result, policy == Policy::Proposed);
            assert!(violations.is_empty(), "protocol violation: {violations:?}");
        }
        (out, t0.elapsed().as_secs_f64())
    });
    for (out, _) in &rendered {
        print!("{out}");
    }
    println!(
        "As in the paper: the [3] protocol lets τ_i be blocked by two \
         lower-priority tasks and miss its deadline, plain NPS blocks it \
         only once, and the proposed protocol (rules R3-R5) rescues it with \
         a cancellation plus an urgent CPU copy-in."
    );

    let mut perf = PerfRecord::new("fig1");
    perf.jobs = jobs;
    perf.wall_secs = started.elapsed().as_secs_f64();
    for ((_, label), (_, secs)) in scenarios.iter().zip(&rendered) {
        perf.points.push(PerfPoint {
            label: label.to_string(),
            secs: *secs,
        });
    }
    // One simulated plan per scenario; the interval-structured policies
    // (WP, proposed) have their traces validated, NPS has no interval
    // structure to check. Nothing here is bound-checked, so refutations
    // are structurally zero.
    perf.extra_sim(&pmcs_analysis::SimCounters {
        plans_run: scenarios.len() as u64,
        traces_validated: scenarios.iter().filter(|(p, _)| *p != Policy::Nps).count() as u64,
        refutations: 0,
        sim_secs: rendered.iter().map(|(_, secs)| secs).sum(),
        ws_reused: 0,
    });

    // Certificate pass (outside the timed region): certify the proposed
    // analysis of the Figure 1 set and validate the bundle with the
    // independent checker.
    let certs = cfg.emit_certs.then(|| certify_set(&set, "fig1"));
    if let Some(certs) = &certs {
        println!("fig1: certificates — {certs}");
    }
    perf.extra_cert(certs.as_ref());
    finish_run(&perf, certs.as_ref(), &[])
}
