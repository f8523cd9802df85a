//! The `pmcs-audit` command-line driver.
//!
//! Subcommands:
//!
//! * `trace` — generate a workload, simulate it, run the R1–R6
//!   conformance analyzer on the clean trace, then corrupt the trace and
//!   show the resulting diagnostics;
//! * `milp` — build the WCRT window formulations for every task and
//!   solve them with [`pmcs_milp::Solver::solve_audited`], printing the
//!   exact-arithmetic audit verdicts;
//! * `lint` — run the formulation linter over the same problems, plus a
//!   deliberately sloppy demo problem that trips every lint code;
//! * `analyze` — run every approach of the standard `pmcs-analysis`
//!   registry on the demo set and print the uniform per-task reports;
//! * `simulate` — cross-validate every approach against the event-kernel
//!   simulator under adversarial release plans (observed worst response
//!   must stay within the analytical WCRT, traces must satisfy
//!   Properties 1–4 and R1–R6), then deliberately weaken the proposed
//!   bounds to one tick below the observed responses and confirm the
//!   driver refutes them;
//! * `cert emit` — run the certificate-emitting analysis on the demo set
//!   and print (or write) the proof bundle as JSON, optionally applying
//!   one targeted corruption for negative testing;
//! * `cert check` — validate a certificate bundle file with the
//!   independent `pmcs-cert` checker; any rejection exits nonzero;
//! * `serve-replay` — re-derive every response in a log of
//!   `{"req":…,"resp":…}` pairs recorded by any `pmcs-serve` client from
//!   scratch with the batch analyzer and refute any recorded response
//!   that differs byte-for-byte (the admission-control analogue of
//!   `cert check`: the replay shares no session, verdict-cache, or
//!   shared-cache machinery with the server it audits);
//! * `partition` — pack a generated workload onto `--cores` cores and
//!   print the per-core assignment and verdicts.
//!
//! The Monte-Carlo falsification campaign has its own driver, the
//! `campaign` binary of `pmcs-bench`.
//!
//! Engines are built through the `pmcs-analysis` facade: the typed
//! [`AnalysisConfig`] is resolved once here at the CLI edge (so
//! `PMCS_AUDIT`/`PMCS_JOBS` are honored with flag > env > default
//! precedence) instead of each subcommand assembling its own.
//!
//! The process exits non-zero when any analysis finds a real problem in
//! the *clean* artifacts (the deliberately corrupted demo inputs are
//! expected to produce diagnostics and do not fail the run).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::process::ExitCode;

use pmcs_analysis::{
    cross_validate, cross_validate_bounds, plan_horizon, AnalysisConfig, AnalysisContext,
    CliOverrides, MilpEngine, RefutationKind, Registry,
};
use pmcs_audit::{check_conformance, lint, lint_sequence, Severity, LINT_CODES};
use pmcs_core::window::case_for;
use pmcs_core::Heuristic;
use pmcs_core::WindowModel;
use pmcs_milp::{AuditedOutcome, Cmp, LinExpr, Problem, Solver};
use pmcs_model::{BusModel, Sensitivity, TaskId, TaskSet, Time};
use pmcs_sim::{simulate, simulate_with, Policy, SimResult, TraceUnit};
use pmcs_workload::{
    adversarial_plan, adversarial_specs, random_sporadic_plan, TaskSetConfig, TaskSetGenerator,
};

const USAGE: &str = "\
pmcs-audit — static analysis over the pmcs analysis pipeline

USAGE:
    pmcs-audit <COMMAND> [OPTIONS]

COMMANDS:
    trace    simulate a workload and conformance-check the trace (R1-R6)
    milp     solve the WCRT window formulations with exact-arithmetic audits
    lint     lint the window formulations (codes A001-A010)
    analyze  run every registered analysis approach on the demo set
    simulate cross-validate every approach against adversarial simulation,
             then refute deliberately weakened bounds
    cert emit [--corrupt K] [--out FILE]
             emit the demo set's certificate bundle as JSON
             (K: witness | dominance applies one corruption)
    cert check <FILE>
             validate a certificate bundle with the independent
             pmcs-cert checker; rejections exit nonzero
    serve-replay <FILE>
             replay a pmcs-serve request/response log against the
             from-scratch batch analyzer; refutations exit nonzero
    partition
             pack a generated workload onto --cores cores and print the
             per-core assignment and verdicts; with --period the bus is
             bandwidth-regulated (admission uses contention-aware
             inflation), and --period without --budget searches
             descending uniform budgets

OPTIONS:
    --seed <N>       RNG seed for workload generation      [default: 42]
    --tasks <N>      number of tasks in the generated set  [default: 5]
    --util <X>       total utilization of the set          [default: 0.5]
    --plans <N>      adversarial release plans per approach
                     (simulate)                            [default: 8]
    --cores <M>      cores to partition onto (partition)   [default: 2]
    --heuristic <H>  first-fit | best-fit | worst-fit
                     (partition)                           [default: first-fit]
    --period <P>     bus replenishment period in ticks (partition)
    --budget <Q>     uniform per-core bus budget in ticks (partition)
    --corrupt <K>    cert emit: corrupt the bundle before printing
    --out <FILE>     cert emit: write the bundle here instead of stdout
    -h, --help       print this help
";

struct Options {
    seed: u64,
    tasks: usize,
    util: f64,
    plans: usize,
    cores: usize,
    heuristic: Heuristic,
    period: Option<i64>,
    budget: Option<i64>,
    corrupt: Option<String>,
    out: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            seed: 42,
            tasks: 5,
            util: 0.5,
            plans: 8,
            cores: 2,
            heuristic: Heuristic::FirstFit,
            period: None,
            budget: None,
            corrupt: None,
            out: None,
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positionals: Vec<String> = Vec::new();
    let mut opts = Options::default();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--seed" | "--tasks" | "--util" | "--plans" | "--cores" | "--heuristic"
            | "--period" | "--budget" | "--corrupt" | "--out" => {
                let Some(value) = it.next() else {
                    eprintln!("error: {arg} requires a value");
                    return ExitCode::FAILURE;
                };
                let ok = match arg.as_str() {
                    "--seed" => value.parse().map(|v| opts.seed = v).is_ok(),
                    "--tasks" => value.parse().map(|v| opts.tasks = v).is_ok(),
                    "--plans" => value.parse().map(|v| opts.plans = v).is_ok(),
                    "--cores" => value
                        .parse()
                        .ok()
                        .filter(|&m: &usize| m >= 1)
                        .map(|v| opts.cores = v)
                        .is_some(),
                    "--heuristic" => Heuristic::parse(value)
                        .map(|h| opts.heuristic = h)
                        .is_some(),
                    "--period" => value
                        .parse()
                        .ok()
                        .filter(|&t: &i64| t > 0)
                        .map(|v| opts.period = Some(v))
                        .is_some(),
                    "--budget" => value
                        .parse()
                        .ok()
                        .filter(|&t: &i64| t > 0)
                        .map(|v| opts.budget = Some(v))
                        .is_some(),
                    "--corrupt" => {
                        opts.corrupt = Some(value.clone());
                        true
                    }
                    "--out" => {
                        opts.out = Some(value.clone());
                        true
                    }
                    _ => value.parse().map(|v| opts.util = v).is_ok(),
                };
                if !ok {
                    eprintln!("error: invalid value {value:?} for {arg}");
                    return ExitCode::FAILURE;
                }
            }
            other if positionals.len() < 3 && !other.starts_with('-') => {
                positionals.push(other.to_string());
            }
            other => {
                eprintln!("error: unexpected argument {other:?}\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let command = positionals.first().cloned();

    if opts.tasks == 0 {
        eprintln!("error: --tasks must be at least 1");
        return ExitCode::FAILURE;
    }
    if !(opts.util > 0.0 && opts.util < 1.0) {
        eprintln!("error: --util must be in (0, 1), got {}", opts.util);
        return ExitCode::FAILURE;
    }

    // Resolve the typed analysis configuration exactly once, at the CLI
    // edge: environment knobs (PMCS_AUDIT, PMCS_JOBS) are honored here
    // and nowhere deeper in the stack.
    let cfg = AnalysisConfig::resolve(&CliOverrides::default());

    if !matches!(command.as_deref(), Some("cert") | Some("serve-replay")) && positionals.len() > 1 {
        eprintln!("error: unexpected argument {:?}\n\n{USAGE}", positionals[1]);
        return ExitCode::FAILURE;
    }

    match command.as_deref() {
        Some("trace") => cmd_trace(&opts),
        Some("milp") => cmd_milp(&opts),
        Some("lint") => cmd_lint(&opts),
        Some("analyze") => cmd_analyze(&opts, &cfg),
        Some("simulate") => cmd_simulate(&opts, &cfg),
        Some("partition") => cmd_partition(&opts, &cfg),
        Some("cert") => cmd_cert(&opts, &positionals[1..]),
        Some("serve-replay") => match positionals.get(1) {
            Some(path) => cmd_serve_replay(path),
            None => {
                eprintln!("error: serve-replay requires a log file\n\n{USAGE}");
                ExitCode::FAILURE
            }
        },
        Some(other) => {
            eprintln!("error: unknown command {other:?}\n\n{USAGE}");
            ExitCode::FAILURE
        }
        None => {
            print!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Generates the demo task set: `opts.tasks` tasks at `opts.util`, with
/// the lowest-priority task promoted to latency-sensitive so the LS rules
/// (R3, R4) have something to act on.
fn demo_set(opts: &Options) -> TaskSet {
    let config = TaskSetConfig {
        n: opts.tasks,
        utilization: opts.util,
        ..TaskSetConfig::default()
    };
    let set = TaskSetGenerator::new(config, opts.seed).generate();
    let lowest = set
        .iter()
        .max_by_key(|t| t.priority().0)
        .map(|t| t.id())
        .expect("generated set is non-empty");
    set.with_sensitivity(lowest, Sensitivity::Ls)
        .expect("task id comes from the set itself")
}

// --- trace --------------------------------------------------------------

fn cmd_trace(opts: &Options) -> ExitCode {
    let set = demo_set(opts);
    let horizon = Time::from_millis(300);
    let plan = random_sporadic_plan(&set, horizon, 0.5, opts.seed.wrapping_add(1));

    let mut failed = false;
    for (policy, ls_rules) in [(Policy::Proposed, true), (Policy::WaslyPellizzoni, false)] {
        let result = simulate(&set, &plan, policy, horizon);
        let report = check_conformance(&set, &result, ls_rules);
        println!(
            "{policy:?}: {} intervals, {} events — {}",
            report.intervals_checked,
            report.events_checked,
            if report.is_conformant() {
                "conformant (R1-R6 hold)".to_string()
            } else {
                format!("{} VIOLATION(S)", report.diagnostics.len())
            }
        );
        for d in &report.diagnostics {
            println!("  {d}");
            failed = true;
        }
    }

    // Corruption demo: flip a cancellation flag on a committed copy-in and
    // show that the analyzer localizes the damage to a protocol rule.
    let result = simulate(&set, &plan, Policy::Proposed, horizon);
    match corrupt_copy_in(&result) {
        Some((corrupted, victim)) => {
            let report = check_conformance(&set, &corrupted, true);
            println!("\ncorruption demo: marked the copy-in of {victim} as canceled");
            if report.is_conformant() {
                println!("  analyzer missed the corruption — this is a bug");
                failed = true;
            }
            for d in &report.diagnostics {
                println!("  {d}");
            }
        }
        None => println!("\ncorruption demo skipped: trace has no committed DMA copy-in"),
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Returns a copy of `result` with the first committed (non-canceled) DMA
/// copy-in flagged as canceled, plus the job it belonged to.
fn corrupt_copy_in(result: &SimResult) -> Option<(SimResult, pmcs_model::JobId)> {
    let mut events = result.events().to_vec();
    let target = events.iter().position(|e| {
        e.unit == TraceUnit::Dma && e.phase == pmcs_model::Phase::CopyIn && !e.canceled
    })?;
    events[target].canceled = true;
    let victim = events[target].job;
    Some((
        SimResult::from_parts(
            events,
            result.jobs().to_vec(),
            result.interval_starts().to_vec(),
        ),
        victim,
    ))
}

// --- milp ---------------------------------------------------------------

fn cmd_milp(opts: &Options) -> ExitCode {
    let set = demo_set(opts);
    let engine = MilpEngine::new();
    // The audit always verifies against the original problem, not the
    // presolved one the solver actually searched.
    let solver = Solver::new();
    let mut failed = false;

    for task in set.iter() {
        let case = case_for(task.sensitivity());
        let window = match WindowModel::build(&set, task.id(), case, task.deadline()) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("{}: window construction failed: {e}", task.id());
                failed = true;
                continue;
            }
        };
        let problem = engine.build_problem(&window);
        match solver.solve_audited(&problem) {
            Ok(audited) => {
                let verdict = if audited.report.certified() {
                    "CERTIFIED"
                } else if audited.report.failed() {
                    failed = true;
                    "FAILED"
                } else {
                    "inconclusive"
                };
                match &audited.outcome {
                    AuditedOutcome::Solved(sol) => println!(
                        "{} ({case:?}): {} vars, {} constraints, objective {:.1}, \
                         status {:?} — audit {verdict}",
                        task.id(),
                        problem.num_vars(),
                        problem.num_constraints(),
                        sol.objective(),
                        sol.status(),
                    ),
                    AuditedOutcome::Infeasible => {
                        println!("{} ({case:?}): infeasible — audit {verdict}", task.id())
                    }
                }
                for check in audited.report.problems() {
                    println!("    {} [{:?}]: {}", check.name, check.status, check.detail);
                }
            }
            Err(e) => {
                eprintln!("{}: solve failed: {e}", task.id());
                failed = true;
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

// --- lint ---------------------------------------------------------------

fn cmd_lint(opts: &Options) -> ExitCode {
    let set = demo_set(opts);
    let engine = MilpEngine::new();
    let mut failed = false;

    println!("linting the WCRT window formulations:");
    for task in set.iter() {
        let case = case_for(task.sensitivity());
        let window = match WindowModel::build(&set, task.id(), case, task.deadline()) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("{}: window construction failed: {e}", task.id());
                failed = true;
                continue;
            }
        };
        let problem = engine.build_problem(&window);
        let report = lint(&problem);
        let non_info = report
            .diagnostics()
            .iter()
            .filter(|d| d.severity() > Severity::Info)
            .count();
        println!(
            "  {} ({case:?}): {} vars, {} constraints — {} finding(s), {} above info",
            task.id(),
            problem.num_vars(),
            problem.num_constraints(),
            report.diagnostics().len(),
            non_info,
        );
        for d in report.diagnostics() {
            if d.severity() > Severity::Info {
                println!("    {d}");
            }
        }
        if report.has_errors() {
            failed = true;
        }
    }

    // Cross-round pass: rebuild each window at two increasing lengths
    // (as the fixed point would) and check the budget rows only ever
    // grow (A010).
    println!("\nlinting budget-row monotonicity across fixed-point rounds:");
    for task in set.iter() {
        let case = case_for(task.sensitivity());
        let mut rounds = Vec::new();
        for len in [(task.deadline() / 2).max(Time::from(1)), task.deadline()] {
            match WindowModel::build(&set, task.id(), case, len) {
                Ok(w) => rounds.push(engine.build_problem(&w)),
                Err(e) => {
                    eprintln!("{}: window construction failed at t={len}: {e}", task.id());
                    failed = true;
                }
            }
        }
        let report = lint_sequence(&rounds);
        println!(
            "  {} ({case:?}): {} round(s) — {} finding(s)",
            task.id(),
            rounds.len(),
            report.diagnostics().len(),
        );
        for d in report.diagnostics() {
            println!("    {d}");
        }
        if report.has_errors() {
            failed = true;
        }
    }

    println!("\nlint demo (deliberately sloppy problem + rounds, every code fires):");
    let demo = sloppy_demo_problem();
    let mut report = lint(&demo);
    report.merge(&lint_sequence(&sloppy_demo_rounds()));
    for d in report.diagnostics() {
        println!("  {d}");
    }
    for code in LINT_CODES {
        if report.with_code(code).next().is_none() {
            println!("  demo failed to trigger {code} — this is a bug");
            failed = true;
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

// --- analyze ------------------------------------------------------------

fn cmd_analyze(opts: &Options, cfg: &AnalysisConfig) -> ExitCode {
    let set = demo_set(opts);
    let registry = Registry::standard();
    let ctx = AnalysisContext::new(cfg);
    let mut failed = false;

    println!(
        "running {} registered approaches (engine stack: {}):",
        registry.len(),
        ctx.engine().layers(),
    );
    for analyzer in registry.iter() {
        match analyzer.analyze_with(&set, &ctx) {
            Ok(report) => {
                println!("{report}");
            }
            Err(e) => {
                eprintln!("{}: analysis FAILED: {e}", analyzer.name());
                failed = true;
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

// --- simulate -----------------------------------------------------------

fn cmd_simulate(opts: &Options, cfg: &AnalysisConfig) -> ExitCode {
    let set = demo_set(opts);
    let ctx = AnalysisContext::new(cfg);
    let analyzers = Registry::standard();
    let sims = pmcs_sim::Registry::standard();
    let mut failed = false;
    let mut proposed: Option<(pmcs_analysis::ApproachReport, Vec<pmcs_workload::PlanSpec>)> = None;

    println!(
        "cross-validating {} registered approaches against {} adversarial plans each:",
        analyzers.len(),
        opts.plans,
    );
    for analyzer in analyzers.iter() {
        let name = analyzer.name();
        if sims.get(name).is_none() {
            println!("  {name}: no simulator policy of that name — skipped");
            continue;
        }
        match cross_validate(&set, name, opts.plans, opts.seed, &ctx) {
            Ok((report, counters, refutations)) => {
                println!(
                    "  {name}: {} plan(s) simulated, {} trace(s) validated, \
                     {} refutation(s) — {}",
                    counters.plans_run,
                    counters.traces_validated,
                    refutations.len(),
                    if refutations.is_empty() {
                        "bounds hold"
                    } else {
                        "REFUTED"
                    }
                );
                for r in &refutations {
                    println!("    {r}");
                    failed = true;
                }
                if name == "proposed" {
                    proposed = Some((report, adversarial_specs(opts.plans, opts.seed)));
                }
            }
            Err(e) => {
                eprintln!("  {name}: cross-validation FAILED: {e}");
                failed = true;
            }
        }
    }

    // Weakened-bound demo: lower every proposed bound to one tick below
    // the *observed* worst response and confirm the driver refutes it —
    // proof the pass above was earned, not vacuous. Like the other
    // deliberately broken demo inputs, the refutations here are expected
    // and failing to produce them is the bug.
    let Some((report, specs)) = proposed else {
        eprintln!("proposed approach missing from the registry — this is a bug");
        return ExitCode::FAILURE;
    };
    // Apply the report's LS marking so the simulator runs the set the
    // analysis actually bounded (mirrors `cross_validate_report`).
    let mut marked = set.clone();
    for t in &report.tasks {
        if let Some(s) = t.sensitivity {
            marked = marked
                .with_sensitivity(t.task, s)
                .expect("report tasks come from this set");
        }
    }
    let policy = sims
        .get("proposed")
        .expect("standard registry has proposed");
    let release_horizon = plan_horizon(&marked);
    let max_d = marked
        .iter()
        .map(|t| t.deadline())
        .max()
        .unwrap_or(Time::ZERO);
    let tail: i64 = marked.iter().map(|t| t.wcet_serialized().as_ticks()).sum();
    let horizon = release_horizon + max_d + Time::from_ticks(2 * tail);
    let mut observed: Vec<(TaskId, Time)> = Vec::new();
    for &spec in &specs {
        let result = simulate_with(
            &marked,
            &adversarial_plan(&marked, release_horizon, spec),
            policy,
            horizon,
        );
        for task in marked.iter() {
            if let Some(worst) = result.worst_response(task.id()) {
                match observed.iter_mut().find(|(t, _)| *t == task.id()) {
                    Some((_, cur)) => *cur = (*cur).max(worst),
                    None => observed.push((task.id(), worst)),
                }
            }
        }
    }
    let weakened: Vec<(TaskId, Time)> = observed
        .iter()
        .map(|&(t, worst)| (t, worst - Time::TICK))
        .collect();
    let (_, refutations) =
        cross_validate_bounds(&marked, policy, &weakened, &specs, "proposed-weakened");
    println!(
        "\nweakened-bound demo: proposed bounds lowered to observed worst \
         response minus one tick ({} task(s), {} plan(s)):",
        weakened.len(),
        specs.len(),
    );
    let refuted: Vec<TaskId> = weakened
        .iter()
        .map(|&(t, _)| t)
        .filter(|&t| {
            refutations
                .iter()
                .any(|r| matches!(r.kind, RefutationKind::BoundExceeded { task, .. } if task == t))
        })
        .collect();
    if refuted.len() < weakened.len() {
        println!(
            "  only {}/{} weakened bounds were refuted — this is a bug",
            refuted.len(),
            weakened.len()
        );
        failed = true;
    } else {
        println!(
            "  all {} weakened bounds refuted ({} refutation(s)); first:",
            weakened.len(),
            refutations.len()
        );
    }
    if let Some(first) = refutations.first() {
        println!("  {first}");
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

// --- partition ----------------------------------------------------------

fn cmd_partition(opts: &Options, cfg: &AnalysisConfig) -> ExitCode {
    // --util stays the set's *total* utilization (like every other
    // subcommand); there are at least as many tasks as cores so every
    // heuristic has real placement choices.
    let config = TaskSetConfig {
        n: opts.tasks.max(opts.cores),
        utilization: opts.util,
        ..TaskSetConfig::default()
    };
    let tasks = TaskSetGenerator::new(config, opts.seed)
        .generate()
        .tasks()
        .to_vec();
    let ctx = AnalysisContext::new(cfg);
    let engine = ctx.engine();
    println!(
        "partitioning {} task(s) onto {} core(s) with {} (engine stack: {}):",
        tasks.len(),
        opts.cores,
        opts.heuristic,
        engine.layers(),
    );

    let outcome = match (opts.period, opts.budget) {
        (None, Some(_)) => {
            eprintln!("error: --budget requires --period");
            return ExitCode::FAILURE;
        }
        (None, None) => pmcs_core::partition(tasks, opts.cores, opts.heuristic, engine),
        (Some(p), Some(q)) => {
            let bus = match BusModel::uniform(Time::from_ticks(p), opts.cores, Time::from_ticks(q))
            {
                Ok(bus) => bus,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            pmcs_core::partition_regulated(tasks, opts.cores, &bus, opts.heuristic, engine)
        }
        (Some(p), None) => {
            // Budget-assignment search: descending uniform budgets, first
            // schedulable partition wins.
            let search = match pmcs_core::assign_budgets(
                tasks,
                opts.cores,
                Time::from_ticks(p),
                opts.heuristic,
                engine,
            ) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: budget search failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!("budget search over P={}:", Time::from_ticks(p));
            for a in &search.attempts {
                println!(
                    "  Q={} — {}",
                    a.budget,
                    if a.schedulable {
                        "schedulable"
                    } else {
                        "not schedulable"
                    }
                );
            }
            match &search.solution {
                Some(p) => {
                    print_partitioning(p);
                    println!("verdict: SCHEDULABLE (budget search succeeded)");
                }
                None => println!("verdict: NOT SCHEDULABLE under any tried budget"),
            }
            return ExitCode::SUCCESS;
        }
    };
    match outcome {
        Ok(Ok(p)) => {
            print_partitioning(&p);
            println!(
                "verdict: {}",
                if p.schedulable() {
                    "SCHEDULABLE"
                } else {
                    "NOT SCHEDULABLE"
                }
            );
            ExitCode::SUCCESS
        }
        Ok(Err(unplaced)) => {
            println!(
                "verdict: NOT SCHEDULABLE — {} fits on none of the {} core(s)",
                unplaced.task, unplaced.cores
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: partitioning failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints a partitioning: the bus, then per-core assignments and
/// verdicts (WCRTs are contention-inflated when the bus is regulated).
fn print_partitioning(p: &pmcs_core::Partitioning) {
    println!("bus: {}", p.platform.bus());
    for ((core, set), report) in p.platform.iter().zip(&p.reports) {
        let ids: Vec<String> = set.tasks().iter().map(|t| t.id().to_string()).collect();
        println!(
            "  {core}: {} task(s) [{}] — {}",
            set.len(),
            ids.join(", "),
            if report.schedulable() {
                "schedulable"
            } else {
                "UNSCHEDULABLE"
            }
        );
        for v in report.verdicts() {
            println!(
                "    {} wcrt={} deadline={} {}{}",
                v.task,
                v.wcrt,
                v.deadline,
                if v.schedulable { "ok" } else { "MISS" },
                if v.sensitivity.is_ls() { " [LS]" } else { "" },
            );
        }
    }
}

// --- cert ---------------------------------------------------------------

fn cmd_cert(opts: &Options, rest: &[String]) -> ExitCode {
    match rest.first().map(String::as_str) {
        Some("emit") => cmd_cert_emit(opts),
        Some("check") => match rest.get(1) {
            Some(path) => cmd_cert_check(path),
            None => {
                eprintln!("error: cert check requires a bundle file\n\n{USAGE}");
                ExitCode::FAILURE
            }
        },
        _ => {
            eprintln!("error: cert requires a subcommand (emit | check)\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_cert_emit(opts: &Options) -> ExitCode {
    let set = demo_set(opts);
    let engine = pmcs_core::ExactEngine::default();
    let (report, mut bundle) = match pmcs_core::certify_task_set(&set, &engine) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: certificate emission failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(kind) = opts.corrupt.as_deref() {
        let result = match kind {
            "witness" => pmcs_cert::corrupt::corrupt_witness(&mut bundle),
            "dominance" => pmcs_cert::corrupt::corrupt_dominance(&mut bundle),
            other => {
                eprintln!("error: unknown corruption {other:?}; use witness|dominance");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = result {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("applied corruption '{kind}': the checker must reject this bundle");
    }

    let json = pmcs_cert::encode_certificate_set(&bundle);
    match &opts.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "wrote {path}: {} window(s), {} wcrt(s), schedulable={}",
                bundle.windows.len(),
                bundle.wcrts.len(),
                report.schedulable(),
            );
        }
        None => print!("{json}"),
    }
    ExitCode::SUCCESS
}

fn cmd_cert_check(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bundle = match pmcs_cert::decode_certificate_set(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: cannot decode {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = pmcs_cert::check_certificate_set(&bundle);
    println!(
        "{path}: {} certificate(s) checked, {} rejection(s)",
        report.checked,
        report.rejections.len(),
    );
    for r in &report.rejections {
        println!("  REJECTED code={} detail={}", r.code, r.detail);
    }
    if report.ok() {
        println!("bundle ACCEPTED");
        ExitCode::SUCCESS
    } else {
        println!("bundle REJECTED");
        ExitCode::FAILURE
    }
}

// --- serve-replay -------------------------------------------------------

fn cmd_serve_replay(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = pmcs_serve::replay_log(&text);
    println!(
        "{path}: {} line(s), {} response(s) checked, {} skipped, {} refutation(s)",
        outcome.lines,
        outcome.checked,
        outcome.skipped,
        outcome.refutations.len(),
    );
    for r in &outcome.refutations {
        println!("  {r}");
    }
    if outcome.ok() {
        println!("log ACCEPTED: every checked response matches the batch analyzer");
        ExitCode::SUCCESS
    } else {
        println!("log REFUTED");
        ExitCode::FAILURE
    }
}

/// A small problem that trips all six lint codes at once.
fn sloppy_demo_problem() -> Problem {
    let mut p = Problem::maximize();
    let x = p.continuous("x", 0.0, 10.0);
    let y = p.continuous("y", 0.0, 10.0);
    let _dead = p.continuous("dead", 0.0, 1.0); // A001
    let inverted = p.continuous("inverted", 5.0, 1.0); // A002 (bounds)
    let free = p.continuous("free", 0.0, f64::INFINITY); // A003
    let gate = p.binary("gate");
    let gate2 = p.binary("gate2");
    let ghost = p.continuous("ghost", 0.0, 1.0);
    p.constrain(x + y, Cmp::Le, 4.0);
    p.constrain(2.0 * x + 2.0 * y, Cmp::Le, 8.0); // A004 (scaled duplicate)
    p.constrain(x + -1e9 * gate, Cmp::Le, 0.0); // A005 (big-M spread)
    p.constrain(x, Cmp::Le, 1e4); // A006 (never binds)
    p.constrain(x + inverted, Cmp::Ge, 100.0); // A002 (unachievable)
                                               // A007: spread 1e5 stays under the A005 threshold, but y ∈ [0, 10]
                                               // against rhs 2 means M = 8 already suffices — 1e5 is ~1e4x looser.
    p.constrain(y + -1e5 * gate2, Cmp::Le, 2.0);
    p.constrain(ghost, Cmp::Le, 50.0); // A009 (ghost's only row; presolve deletes it)
                                       // A008: eight interchangeable slot binaries in one cardinality row.
    let mut slots = LinExpr::default();
    for i in 0..8 {
        slots += 1.0 * p.binary(format!("slot{i}"));
    }
    p.constrain(slots, Cmp::Le, 3.0);
    p.set_objective(x + y + free);
    p
}

/// Successive "fixed-point rounds" whose budget row `C7_0` shrinks — the
/// monotonicity violation `A010` exists to catch (a real iteration only
/// grows windows, so budgets never decrease).
fn sloppy_demo_rounds() -> Vec<Problem> {
    let build = |budget: f64| {
        let mut p = Problem::maximize();
        let x = p.continuous("x", 0.0, 100.0);
        p.constrain_named(Some("C7_0"), 1.0 * x, Cmp::Le, budget);
        p.set_objective(x);
        p
    };
    vec![build(8.0), build(6.0)] // A010 (RHS 8 → 6 across rounds)
}
