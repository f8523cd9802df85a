//! Fleet-scale Monte-Carlo campaigns: million-plan falsification sweeps
//! over every registered policy.
//!
//! A campaign takes one generated workload, computes the analytical WCRT
//! bounds of every registered approach once, then streams `plans`
//! adversarial release plans per approach through the workspace-reuse
//! kernel ([`pmcs_sim::kernel` `run_streaming`]) — no trace is ever
//! materialized; each job's response folds into a fixed log-scale
//! response-time histogram and is checked live against the analytical
//! bound. Any exceedance is a machine-readable refutation and the
//! campaign exits nonzero.
//!
//! Three sections:
//!
//! 1. **single-core** — the full `plans` budget per approach on the
//!    generated set;
//! 2. **regulated-bus** — the workload partitioned onto `cores` cores
//!    sharing a bandwidth-regulated bus, each core's contention-inflated
//!    set streamed under `plans / 10` plans per approach;
//! 3. **measured (EMA)** — the set's execution times replaced by EMA
//!    predictions over simulated history
//!    ([`pmcs_workload::measured_set`]), `plans / 20` plans per
//!    approach, reporting how far measured worst responses sit below the
//!    declared-WCET analytical bounds (the sensitivity column).
//!
//! Plans are sharded across `jobs` workers in fixed-size slices; every
//! worker owns one [`SimScratch`] (pooled workspace + plan buffer), plan
//! seeds are position-derived ([`adversarial_spec`]), and shard results
//! merge in shard order — the outcome, including
//! [`CampaignOutcome::report_text`], is byte-identical for every thread
//! count.
//!
//! The campaign also times a **baseline**: the pre-refactor
//! fresh-allocation loop (allocating plan generation, traced simulation,
//! per-task trace scans) over a bounded subsample, so
//! `BENCH_campaign.json` records the workspace-reuse speedup next to the
//! campaign throughput.

use std::fmt::Write as _;
use std::time::Instant;

use pmcs_analysis::{
    plan_horizon, AnalysisConfig, AnalysisContext, AnalysisError, Registry, SimScratch,
};
use pmcs_core::{partition_regulated, Heuristic, Inflation};
use pmcs_model::{BusModel, Sensitivity, TaskSet, Time};
use pmcs_sim::kernel::run_streaming;
use pmcs_workload::ema::DEFAULT_ALPHA;
use pmcs_workload::{
    adversarial_plan, adversarial_plan_into, adversarial_spec, derive_seed, measured_set,
    MeasuredTask, TaskSetConfig, TaskSetGenerator,
};

use crate::parallel::parallel_map_with;

/// Histogram resolution: one bin per power of two of the response in
/// ticks (bin 0 = zero-tick responses, bin `k` = `[2^(k-1), 2^k)`).
pub const BINS: usize = 64;

/// Seed-stream tags separating the three campaign sections (and the
/// EMA history stream) from each other.
const SINGLE_STREAM: u64 = 0xca3_0001;
const BUS_STREAM: u64 = 0xca3_0002;
const MEASURED_STREAM: u64 = 0xca3_0003;

/// The log-scale bin a response falls into.
pub fn bin_of(response: Time) -> usize {
    let ticks = response.as_ticks();
    if ticks <= 0 {
        0
    } else {
        ((64 - (ticks as u64).leading_zeros()) as usize).min(BINS - 1)
    }
}

/// Configuration of one campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Plans per approach in the single-core section (the regulated-bus
    /// section runs `plans / 10` per approach per core, the measured
    /// section `plans / 20` per approach).
    pub plans: usize,
    /// Tasks in the generated workload.
    pub tasks: usize,
    /// Total utilization of the generated workload.
    pub util: f64,
    /// Base seed; all plan seeds and the EMA history derive from it.
    pub seed: u64,
    /// Cores sharing the regulated bus in section 2.
    pub cores: usize,
    /// Plans per worker shard — fixed (never derived from `jobs`) so
    /// shard boundaries, and with them the merged refutation order, are
    /// thread-count independent.
    pub shard: usize,
    /// Simulated execution samples fed to the EMA predictor per task.
    pub history: usize,
    /// Upper bound on fresh-allocation baseline simulations.
    pub baseline_cap: usize,
    /// Engine-stack configuration (jobs, audit, …).
    pub analysis: AnalysisConfig,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        // util 0.25: the regime where the proposed analysis and both NPS
        // conventions certify the generated set (their WCRT bounds are
        // then live-checked on every plan); WP's pessimistic verdict at
        // this level is itself a paper-faithful data point.
        CampaignConfig {
            plans: 1_000_000,
            tasks: 5,
            util: 0.25,
            seed: 42,
            cores: 2,
            shard: 4096,
            history: 64,
            baseline_cap: 20_000,
            analysis: AnalysisConfig::default(),
        }
    }
}

/// Merged per-policy streaming statistics of one campaign section.
#[derive(Debug, Clone)]
pub struct PolicyHist {
    /// Approach / policy name.
    pub label: String,
    /// Plans streamed.
    pub plans: u64,
    /// Job responses folded into the histogram.
    pub responses: u64,
    /// Worst response observed across all plans.
    pub worst: Option<Time>,
    /// Worst response per task (by task index of the marked set).
    pub worst_by_task: Vec<Option<Time>>,
    /// Largest analytical WCRT bound (`None` when the approach reported
    /// the set unschedulable — bounds are then not operational and are
    /// not checked, matching `cross_validate_report`).
    pub bound: Option<Time>,
    /// Deadline misses observed (counted, never hidden; a miss alone is
    /// not a refutation unless a checked bound is exceeded).
    pub misses: u64,
    /// Log-scale response histogram ([`bin_of`]).
    pub bins: Vec<u64>,
}

impl PolicyHist {
    fn new(label: &str, n_tasks: usize, bound: Option<Time>) -> Self {
        PolicyHist {
            label: label.to_string(),
            plans: 0,
            responses: 0,
            worst: None,
            worst_by_task: vec![None; n_tasks],
            bound,
            misses: 0,
            bins: vec![0; BINS],
        }
    }

    fn merge(&mut self, other: &PolicyHist) {
        self.plans += other.plans;
        self.responses += other.responses;
        self.worst = max_opt(self.worst, other.worst);
        for (a, &b) in self.worst_by_task.iter_mut().zip(&other.worst_by_task) {
            *a = max_opt(*a, b);
        }
        self.misses += other.misses;
        for (a, &b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
    }

    /// Renders the non-empty bins as `[lo,hi):count` pairs.
    pub fn hist_line(&self) -> String {
        let mut out = String::new();
        for (k, &n) in self.bins.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if !out.is_empty() {
                out.push(' ');
            }
            if k == 0 {
                let _ = write!(out, "[0,1):{n}");
            } else {
                let _ = write!(out, "[{},{}):{n}", 1u64 << (k - 1), 1u128 << k);
            }
        }
        if out.is_empty() {
            out.push_str("(empty)");
        }
        out
    }
}

fn max_opt(a: Option<Time>, b: Option<Time>) -> Option<Time> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// Measured-vs-declared sensitivity of one approach (section 3).
#[derive(Debug, Clone)]
pub struct MeasuredRow {
    /// Approach name.
    pub label: String,
    /// Worst response observed on the measured (EMA) set.
    pub worst: Option<Time>,
    /// Largest declared-WCET analytical bound of the approach.
    pub declared_bound: Option<Time>,
    /// `max_i observed_i / bound_i` over tasks with both numbers: how
    /// much of the declared-WCET budget measured execution actually
    /// uses. `None` when the approach had no checked bounds.
    pub sensitivity: Option<f64>,
}

/// Result of [`run_campaign`].
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Approach names, in registry order (row order of every section).
    pub labels: Vec<String>,
    /// Single-core section, one row per approach.
    pub single: Vec<PolicyHist>,
    /// Regulated-bus section, one row per approach (merged over cores);
    /// empty when the workload could not be partitioned.
    pub bus: Vec<PolicyHist>,
    /// Deterministic description of the bus section (cores, bus, plans
    /// per core) for the report.
    pub bus_desc: String,
    /// Measured-mode sensitivity, one row per approach.
    pub measured: Vec<MeasuredRow>,
    /// Per-task EMA predictions and execution classes.
    pub classes: Vec<MeasuredTask>,
    /// Machine-readable refutation lines, in deterministic
    /// (section, shard, approach, plan) order. Must be empty.
    pub refutations: Vec<String>,
    /// Streaming simulations run across all sections.
    pub sims_run: u64,
    /// Wall-clock seconds spent in the sharded streaming sections.
    pub campaign_secs: f64,
    /// Simulations that reused a warm workspace.
    pub ws_reused: u64,
    /// Fresh-allocation baseline simulations run.
    pub baseline_sims: u64,
    /// Wall-clock seconds of the baseline loop.
    pub baseline_secs: f64,
    /// End-to-end wall-clock seconds (analysis + campaign + baseline).
    pub wall_secs: f64,
    /// Worker threads used.
    pub jobs: usize,
    /// Configuration echo for the report header.
    pub config_line: String,
}

impl CampaignOutcome {
    /// Streaming simulations per wall-clock second.
    pub fn plans_per_sec(&self) -> f64 {
        rate(self.sims_run, self.campaign_secs)
    }

    /// Baseline (fresh-allocation, traced) simulations per second.
    pub fn baseline_plans_per_sec(&self) -> f64 {
        rate(self.baseline_sims, self.baseline_secs)
    }

    /// Campaign throughput over baseline throughput.
    pub fn speedup(&self) -> f64 {
        let base = self.baseline_plans_per_sec();
        if base > 0.0 {
            self.plans_per_sec() / base
        } else {
            0.0
        }
    }

    /// The deterministic campaign report: configuration, per-section
    /// per-policy statistics and histograms, the sensitivity column, and
    /// every refutation line. Contains no timings, so two runs with
    /// different `--jobs` produce byte-identical files.
    pub fn report_text(&self) -> String {
        let mut o = String::new();
        let _ = writeln!(o, "campaign {}", self.config_line);
        let _ = writeln!(o, "single-core:");
        for h in &self.single {
            render_policy(&mut o, h);
        }
        let _ = writeln!(o, "regulated-bus: {}", self.bus_desc);
        for h in &self.bus {
            render_policy(&mut o, h);
        }
        let _ = writeln!(o, "measured (ema alpha={DEFAULT_ALPHA}):");
        let mut classes = String::new();
        for mt in &self.classes {
            if !classes.is_empty() {
                classes.push(' ');
            }
            let _ = write!(
                classes,
                "{}={}(declared={} predicted={})",
                mt.task,
                mt.class.name(),
                mt.declared,
                mt.predicted
            );
        }
        let _ = writeln!(o, "  classes: {classes}");
        for m in &self.measured {
            let _ = writeln!(
                o,
                "  {}: worst={} declared-bound={} sensitivity={}",
                m.label,
                fmt_opt(m.worst),
                fmt_opt(m.declared_bound),
                m.sensitivity
                    .map_or_else(|| "-".to_string(), |s| format!("{s:.3}")),
            );
        }
        let _ = writeln!(o, "refutations: {}", self.refutations.len());
        for r in &self.refutations {
            let _ = writeln!(o, "  {r}");
        }
        o
    }
}

fn render_policy(o: &mut String, h: &PolicyHist) {
    let _ = writeln!(
        o,
        "  {}: plans={} responses={} worst={} bound={} misses={}",
        h.label,
        h.plans,
        h.responses,
        fmt_opt(h.worst),
        fmt_opt(h.bound),
        h.misses,
    );
    let _ = writeln!(o, "    hist: {}", h.hist_line());
}

fn fmt_opt(t: Option<Time>) -> String {
    t.map_or_else(|| "-".to_string(), |t| t.to_string())
}

fn rate(count: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        count as f64 / secs
    } else {
        0.0
    }
}

/// One approach prepared for streaming: the LS-marked set the analysis
/// actually bounded, per-task bounds (by task index; `None` when not
/// checked), and the horizons.
struct Prep {
    name: String,
    marked: TaskSet,
    bounds: Vec<Option<Time>>,
    release_horizon: Time,
    horizon: Time,
}

/// Analyzes `set` under every registered approach and builds the
/// streaming preps. Bounds are kept only for schedulable reports
/// (matching `cross_validate_report`'s convention).
fn prep_approaches(
    set: &TaskSet,
    registry: &Registry,
    ctx: &AnalysisContext,
) -> Result<Vec<Prep>, AnalysisError> {
    let mut preps = Vec::with_capacity(registry.len());
    for analyzer in registry.iter() {
        let report = analyzer.analyze_with(set, ctx)?;
        let mut marked = set.clone();
        for t in &report.tasks {
            if let Some(s) = t.sensitivity {
                marked = marked
                    .with_sensitivity(t.task, s)
                    .map_err(|e| AnalysisError::Core(pmcs_core::CoreError::Model(e)))?;
            }
        }
        let bounds: Vec<Option<Time>> = marked
            .tasks()
            .iter()
            .map(|task| {
                if report.schedulable() {
                    report
                        .tasks
                        .iter()
                        .find(|t| t.task == task.id())
                        .map(|t| t.wcrt)
                } else {
                    None
                }
            })
            .collect();
        let release_horizon = plan_horizon(&marked);
        let max_d = marked
            .iter()
            .map(|t| t.deadline())
            .max()
            .unwrap_or(Time::ZERO);
        let tail: i64 = marked.iter().map(|t| t.wcet_serialized().as_ticks()).sum();
        preps.push(Prep {
            name: analyzer.name().to_string(),
            marked,
            bounds,
            release_horizon,
            horizon: release_horizon + max_d + Time::from_ticks(2 * tail),
        });
    }
    Ok(preps)
}

/// Per-shard accumulator (one per approach).
struct ShardStats {
    plans: u64,
    responses: u64,
    worst: Option<Time>,
    worst_by_task: Vec<Option<Time>>,
    misses: u64,
    bins: Vec<u64>,
    refutations: Vec<String>,
}

/// Streams `plans` plans per prep across the worker pool in fixed-size
/// shards, folding histograms and checking bounds live. Returns the
/// merged per-prep statistics, the refutation lines (shard order), and
/// the simulation / workspace-reuse counters.
fn run_sharded(
    preps: &[Prep],
    plans: usize,
    base_seed: u64,
    shard: usize,
    jobs: usize,
) -> (Vec<PolicyHist>, Vec<String>, u64, u64) {
    let shard = shard.max(1);
    let shards: Vec<(usize, usize)> = (0..plans)
        .step_by(shard)
        .map(|s| (s, (s + shard).min(plans)))
        .collect();
    let (shard_outs, scratches) = parallel_map_with(
        &shards,
        jobs,
        SimScratch::new,
        |scratch, _, &(start, end)| {
            let sims = pmcs_sim::Registry::standard();
            let mut out: Vec<ShardStats> = preps
                .iter()
                .map(|p| ShardStats {
                    plans: 0,
                    responses: 0,
                    worst: None,
                    worst_by_task: vec![None; p.marked.len()],
                    misses: 0,
                    bins: vec![0; BINS],
                    refutations: Vec::new(),
                })
                .collect();
            for (pi, prep) in preps.iter().enumerate() {
                let policy = sims
                    .get(&prep.name)
                    .expect("analyzer and simulator registries are aligned");
                for i in start..end {
                    let spec = adversarial_spec(i, base_seed);
                    adversarial_plan_into(
                        &prep.marked,
                        prep.release_horizon,
                        spec,
                        &mut scratch.plan,
                    );
                    let s = &mut out[pi];
                    let stats = run_streaming(
                        &prep.marked,
                        &scratch.plan,
                        policy,
                        prep.horizon,
                        &mut scratch.ws,
                        |_, r| {
                            s.bins[bin_of(r)] += 1;
                            s.responses += 1;
                            s.worst = max_opt(s.worst, Some(r));
                        },
                    );
                    let s = &mut out[pi];
                    s.plans += 1;
                    s.misses += stats.total_misses();
                    for ti in 0..prep.marked.len() {
                        s.worst_by_task[ti] =
                            max_opt(s.worst_by_task[ti], stats.worst_response(ti));
                    }
                    for (ti, bound) in prep.bounds.iter().enumerate() {
                        if let (Some(b), Some(w)) = (*bound, stats.worst_response(ti)) {
                            if w > b {
                                s.refutations.push(format!(
                                    "REFUTATION approach={} plan={} kind=bound-exceeded \
                                     task={} observed={} bound={}",
                                    prep.name,
                                    spec,
                                    prep.marked.tasks()[ti].id(),
                                    w,
                                    b,
                                ));
                            }
                        }
                    }
                }
            }
            out
        },
    );

    let mut hists: Vec<PolicyHist> = preps
        .iter()
        .map(|p| {
            let bound = p.bounds.iter().filter_map(|&b| b).max();
            PolicyHist::new(&p.name, p.marked.len(), bound)
        })
        .collect();
    let mut refutations = Vec::new();
    let mut sims_run = 0u64;
    for shard_out in &shard_outs {
        for (h, s) in hists.iter_mut().zip(shard_out) {
            h.plans += s.plans;
            h.responses += s.responses;
            h.worst = max_opt(h.worst, s.worst);
            for (a, &b) in h.worst_by_task.iter_mut().zip(&s.worst_by_task) {
                *a = max_opt(*a, b);
            }
            h.misses += s.misses;
            for (a, &b) in h.bins.iter_mut().zip(&s.bins) {
                *a += b;
            }
            sims_run += s.plans;
            refutations.extend(s.refutations.iter().cloned());
        }
    }
    let ws_reused: u64 = scratches.iter().map(|s| s.ws.reuses()).sum();
    (hists, refutations, sims_run, ws_reused)
}

/// Runs the full campaign described in the module docs.
///
/// # Errors
///
/// Propagates analysis failures (a campaign with no analytical bounds to
/// falsify is meaningless).
pub fn run_campaign(cfg: &CampaignConfig) -> Result<CampaignOutcome, AnalysisError> {
    let started = Instant::now();
    let registry = Registry::standard();
    let ctx = AnalysisContext::new(&cfg.analysis);
    let jobs = cfg.analysis.jobs;

    // The single-core workload: `tasks` tasks at `util`, lowest priority
    // marked latency-sensitive so the LS rules (R3, R4) are exercised.
    let set = {
        let config = TaskSetConfig {
            n: cfg.tasks,
            utilization: cfg.util,
            ..TaskSetConfig::default()
        };
        let set = TaskSetGenerator::new(config, cfg.seed).generate();
        let lowest = set
            .iter()
            .max_by_key(|t| t.priority().0)
            .map(|t| t.id())
            .expect("generated set is non-empty");
        set.with_sensitivity(lowest, Sensitivity::Ls)
            .map_err(|e| AnalysisError::Core(pmcs_core::CoreError::Model(e)))?
    };
    let preps = prep_approaches(&set, &registry, &ctx)?;

    let mut refutations = Vec::new();
    let mut sims_run = 0u64;
    let mut ws_reused = 0u64;
    let campaign_started = Instant::now();

    // Section 1: single-core, the full plan budget.
    let single_seed = derive_seed(cfg.seed, SINGLE_STREAM, 0);
    let (single, refs, sims, reused) = run_sharded(&preps, cfg.plans, single_seed, cfg.shard, jobs);
    refutations.extend(refs.into_iter().map(|r| format!("section=single {r}")));
    sims_run += sims;
    ws_reused += reused;

    // Section 2: the regulated-bus platform. A separate workload sized
    // like the multicore sweeps (memory intensity scaled to the fair
    // share) is partitioned first-fit; each core's contention-inflated
    // set streams plans/10 per approach.
    let bus_plans = (cfg.plans / 10).max(1);
    let cores = cfg.cores.max(1);
    let period = Time::from_ticks(200);
    let budget = Time::from_ticks((period.as_ticks() / cores as i64).max(1));
    let bus_workload = TaskSetConfig {
        n: 2 * cores,
        utilization: 0.25 * cores as f64,
        gamma: 0.3 / cores as f64,
        ..TaskSetConfig::default()
    };
    let bus_tasks = TaskSetGenerator::new(bus_workload, derive_seed(cfg.seed, BUS_STREAM, 0))
        .generate()
        .tasks()
        .to_vec();
    let bus = BusModel::uniform(period, cores, budget)
        .map_err(|e| AnalysisError::Core(pmcs_core::CoreError::Model(e)))?;
    let mut bus_hists: Vec<PolicyHist> = Vec::new();
    let bus_desc;
    match partition_regulated(bus_tasks, cores, &bus, Heuristic::FirstFit, ctx.engine()) {
        Ok(Ok(partitioning)) => {
            bus_desc = format!("cores={cores} P={period} Q={budget} plans-per-core={bus_plans}");
            for (core, core_set) in partitioning.platform.iter() {
                let inflated = Inflation::for_core(&bus, core)
                    .inflate_set(core_set)
                    .map_err(AnalysisError::Core)?;
                let core_preps = prep_approaches(&inflated, &registry, &ctx)?;
                let core_seed = derive_seed(cfg.seed, BUS_STREAM, 1 + u64::from(core.0));
                let (hists, refs, sims, reused) =
                    run_sharded(&core_preps, bus_plans, core_seed, cfg.shard, jobs);
                refutations.extend(
                    refs.into_iter()
                        .map(|r| format!("section=bus core={core} {r}")),
                );
                sims_run += sims;
                ws_reused += reused;
                if bus_hists.is_empty() {
                    bus_hists = hists;
                } else {
                    for (a, b) in bus_hists.iter_mut().zip(&hists) {
                        a.merge(b);
                    }
                }
            }
        }
        Ok(Err(unplaced)) => {
            bus_desc = format!(
                "skipped: {} fits on none of the {} core(s)",
                unplaced.task, unplaced.cores
            );
        }
        Err(e) => return Err(AnalysisError::Core(e)),
    }

    // Section 3: measured mode. Each approach's marked set gets its
    // execution times replaced by EMA predictions over simulated
    // history; plans/20 per approach, no bound checks (the bounds were
    // derived for the declared WCETs — the point is the headroom).
    let ema_plans = (cfg.plans / 20).max(1);
    let history_seed = derive_seed(cfg.seed, MEASURED_STREAM, 0);
    let mut classes = Vec::new();
    let mut measured_preps = Vec::with_capacity(preps.len());
    for prep in &preps {
        let (mset, info) = measured_set(&prep.marked, cfg.history, DEFAULT_ALPHA, history_seed);
        if classes.is_empty() {
            classes = info;
        }
        let release_horizon = plan_horizon(&mset);
        let max_d = mset
            .iter()
            .map(|t| t.deadline())
            .max()
            .unwrap_or(Time::ZERO);
        let tail: i64 = mset.iter().map(|t| t.wcet_serialized().as_ticks()).sum();
        measured_preps.push(Prep {
            name: prep.name.clone(),
            marked: mset,
            bounds: vec![None; prep.marked.len()],
            release_horizon,
            horizon: release_horizon + max_d + Time::from_ticks(2 * tail),
        });
    }
    let measured_seed = derive_seed(cfg.seed, MEASURED_STREAM, 1);
    let (measured_hists, refs, sims, reused) =
        run_sharded(&measured_preps, ema_plans, measured_seed, cfg.shard, jobs);
    refutations.extend(refs.into_iter().map(|r| format!("section=measured {r}")));
    sims_run += sims;
    ws_reused += reused;
    let measured: Vec<MeasuredRow> = preps
        .iter()
        .zip(&measured_hists)
        .map(|(prep, h)| {
            let declared_bound = prep.bounds.iter().filter_map(|&b| b).max();
            let sensitivity = prep
                .bounds
                .iter()
                .zip(&h.worst_by_task)
                .filter_map(|(&b, &w)| match (b, w) {
                    (Some(b), Some(w)) if b > Time::ZERO => {
                        Some(w.as_ticks() as f64 / b.as_ticks() as f64)
                    }
                    _ => None,
                })
                .fold(None, |acc: Option<f64>, r| {
                    Some(acc.map_or(r, |a| a.max(r)))
                });
            MeasuredRow {
                label: prep.name.clone(),
                worst: h.worst,
                declared_bound,
                sensitivity,
            }
        })
        .collect();
    let campaign_secs = campaign_started.elapsed().as_secs_f64();

    // Baseline: the pre-refactor per-plan work — an allocating plan, a
    // traced simulation, and per-task trace scans — on a bounded
    // subsample under the first approach's policy.
    let baseline_sims = cfg.plans.min(cfg.baseline_cap) as u64;
    let baseline_started = Instant::now();
    {
        let prep = &preps[0];
        let sims_reg = pmcs_sim::Registry::standard();
        let policy = sims_reg.get(&prep.name).expect("registries aligned");
        let mut sink = Time::ZERO;
        for i in 0..baseline_sims {
            let spec = adversarial_spec(i as usize, single_seed);
            let plan = adversarial_plan(&prep.marked, prep.release_horizon, spec);
            let result = pmcs_sim::simulate_with(&prep.marked, &plan, policy, prep.horizon);
            for task in prep.marked.iter() {
                if let Some(w) = result.worst_response(task.id()) {
                    sink = sink.max(w);
                }
            }
        }
        // Keep the loop's result observable so it cannot be optimized out.
        assert!(baseline_sims == 0 || sink > Time::ZERO);
    }
    let baseline_secs = baseline_started.elapsed().as_secs_f64();

    let config_line = format!(
        "plans={} tasks={} util={} seed={} cores={} shard={} history={} policies=[{}]",
        cfg.plans,
        cfg.tasks,
        cfg.util,
        cfg.seed,
        cfg.cores,
        cfg.shard,
        cfg.history,
        registry.labels().join(","),
    );
    Ok(CampaignOutcome {
        labels: registry.labels(),
        single,
        bus: bus_hists,
        bus_desc,
        measured,
        classes,
        refutations,
        sims_run,
        campaign_secs,
        ws_reused,
        baseline_sims,
        baseline_secs,
        wall_secs: started.elapsed().as_secs_f64(),
        jobs,
        config_line,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(jobs: usize) -> CampaignConfig {
        CampaignConfig {
            plans: 60,
            shard: 16,
            baseline_cap: 10,
            analysis: AnalysisConfig::default().with_jobs(jobs),
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn bins_are_log_scale() {
        assert_eq!(bin_of(Time::ZERO), 0);
        assert_eq!(bin_of(Time::from_ticks(1)), 1);
        assert_eq!(bin_of(Time::from_ticks(2)), 2);
        assert_eq!(bin_of(Time::from_ticks(3)), 2);
        assert_eq!(bin_of(Time::from_ticks(4)), 3);
        assert_eq!(bin_of(Time::from_ticks(i64::MAX)), BINS - 1);
    }

    #[test]
    fn campaign_finds_no_refutations_and_fills_histograms() {
        let out = run_campaign(&tiny(1)).expect("campaign runs");
        assert_eq!(out.labels, ["proposed", "wp", "nps", "nps-classic"]);
        assert_eq!(out.refutations, Vec::<String>::new());
        for h in &out.single {
            assert_eq!(h.plans, 60, "{}", h.label);
            assert!(h.responses > 0, "{}", h.label);
            assert!(h.worst.is_some(), "{}", h.label);
            assert_eq!(h.bins.iter().sum::<u64>(), h.responses);
        }
        // Streaming reuses warm workspaces for all but the first run of
        // each worker.
        assert!(out.ws_reused > 0);
        assert!(out.sims_run >= 4 * 60);
        // Measured mode: predictions shrink execution, so measured worst
        // responses stay at or below the declared bounds.
        for m in &out.measured {
            if let (Some(s), Some(w), Some(b)) = (m.sensitivity, m.worst, m.declared_bound) {
                assert!(s <= 1.0 + 1e-9, "{}: sensitivity {s}", m.label);
                assert!(w <= b, "{}: {w} > {b}", m.label);
            }
        }
        assert_eq!(out.classes.len(), 5);
    }

    #[test]
    fn report_is_byte_identical_for_any_thread_count() {
        let serial = run_campaign(&tiny(1)).expect("campaign runs");
        let parallel = run_campaign(&tiny(4)).expect("campaign runs");
        assert_eq!(serial.report_text(), parallel.report_text());
    }

    #[test]
    fn weakened_bounds_are_refuted() {
        // Stream a handful of plans against a one-tick bound: every plan
        // must produce a refutation naming the task and the observation.
        let set = TaskSet::new(vec![pmcs_core::window::test_task(
            0, 10, 2, 2, 1_000, 0, false,
        )])
        .unwrap();
        let preps = vec![Prep {
            name: "proposed".to_string(),
            marked: set.clone(),
            bounds: vec![Some(Time::TICK)],
            release_horizon: plan_horizon(&set),
            horizon: plan_horizon(&set) + Time::from_ticks(100),
        }];
        let (hists, refutations, sims, _) = run_sharded(&preps, 6, 7, 2, 2);
        assert_eq!(sims, 6);
        assert_eq!(hists[0].plans, 6);
        assert_eq!(refutations.len(), 6, "{refutations:?}");
        assert!(refutations[0].contains("kind=bound-exceeded task=τ0"));
        assert!(refutations[0].contains("seed="));
    }
}
