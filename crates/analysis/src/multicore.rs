//! Multi-core analysis and cross-validation on a regulated shared bus.
//!
//! Single-core analysis carries over to a contended platform through
//! one transform: inflate every copy-phase bound by the worst-case bus
//! service time ([`pmcs_core::contention::Inflation`]), then run the
//! unchanged per-core machinery. This module packages that transform
//! two ways:
//!
//! * [`ContentionAware`] — an [`Analyzer`] decorator that inflates the
//!   set, delegates to the wrapped analyzer, and tags the report. Under
//!   the identity transform (contention-free bus, `M = 1`) it is fully
//!   transparent: same name, byte-identical report.
//! * [`cross_validate_platform`] — the multi-core falsification
//!   harness, two layers deep:
//!
//!   1. **Per-core layer.** Every core's *inflated* set is analyzed and
//!      cross-validated exactly like a single-core set (same adversarial
//!      plans, trace validation, and `observed response ≤ WCRT` checks
//!      via [`cross_validate_report`](crate::cross_validate_report)). This is sound for the platform
//!      *if* every DMA interval of the inflated set really over-covers
//!      the shared-bus service time of the original transfer.
//!   2. **Bus layer.** That "if" is itself falsified: the DMA request
//!      streams of all cores are extracted from the per-core traces,
//!      replayed *coupled* through the hard-regulation arbiter
//!      ([`pmcs_sim::bus::arbitrate`]), and every transfer's observed
//!      service time is checked against the analytical inflation
//!      `inflate(d)`. Any overrun is a [`RefutationKind::BusOverrun`].
//!
//! The bus-layer check is deliberately a *service-time* check
//! (completion minus head-of-queue instant), not a response-time check:
//! for a dense stream of queued transfers, queueing delay behind
//! predecessors is already accounted for by the per-core layer, while
//! the inflation bound covers exactly the service of one transfer.

use std::time::Instant;

use pmcs_core::contention::Inflation;
use pmcs_model::{BusModel, CoreId, Phase, Platform, TaskSet, Time};
use pmcs_sim::bus::{arbitrate, TransferReq};
use pmcs_sim::{kernel::run_into, SimResult, TraceRef, TraceUnit};
use pmcs_workload::{adversarial_plan_into, adversarial_specs, PlanSpec};

use crate::analyzer::{AnalysisContext, Analyzer};
use crate::cross_validate::{
    cross_validate_report_in, plan_horizon, sim_horizon, Refutation, RefutationKind, SimCounters,
    SimScratch,
};
use crate::error::AnalysisError;
use crate::registry::Registry;
use crate::report::ApproachReport;

/// Analyzer decorator that runs the wrapped analyzer on the
/// contention-inflated task set.
///
/// Under a non-identity inflation the report is tagged
/// `"<inner>+bus"`; under the identity transform the decorator is
/// transparent (same name, byte-identical report), which keeps
/// contention-free and single-core platforms on the legacy path.
///
/// # Example
///
/// ```
/// use pmcs_analysis::{AnalysisConfig, Analyzer, ContentionAware, ProposedAnalyzer};
/// use pmcs_core::window::test_task;
/// use pmcs_model::{BusModel, CoreId, TaskSet, Time};
///
/// let bus = BusModel::uniform(Time::from_ticks(100), 2, Time::from_ticks(40))?;
/// let analyzer = ContentionAware::for_core(ProposedAnalyzer, &bus, CoreId(0));
/// assert_eq!(analyzer.name(), "proposed+bus");
/// let set = TaskSet::new(vec![test_task(0, 10, 2, 2, 1_000, 0, false)])?;
/// let report = analyzer.analyze(&set, &AnalysisConfig::default())?;
/// assert!(report.schedulable());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ContentionAware<A> {
    inner: A,
    inflation: Inflation,
    name: String,
}

impl<A: Analyzer> ContentionAware<A> {
    /// Wraps `inner` with an explicit inflation transform.
    pub fn new(inner: A, inflation: Inflation) -> Self {
        let name = if inflation.is_identity() {
            inner.name().to_string()
        } else {
            format!("{}+bus", inner.name())
        };
        ContentionAware {
            inner,
            inflation,
            name,
        }
    }

    /// Wraps `inner` with the inflation core `core` experiences on
    /// `bus` when every other core contends.
    pub fn for_core(inner: A, bus: &BusModel, core: CoreId) -> Self {
        ContentionAware::new(inner, Inflation::for_core(bus, core))
    }

    /// The inflation transform this decorator applies.
    pub fn inflation(&self) -> &Inflation {
        &self.inflation
    }
}

impl<A: Analyzer> Analyzer for ContentionAware<A> {
    fn name(&self) -> &str {
        &self.name
    }

    fn analyze_with(
        &self,
        set: &TaskSet,
        ctx: &AnalysisContext,
    ) -> Result<ApproachReport, AnalysisError> {
        let inflated = self
            .inflation
            .inflate_set(set)
            .map_err(AnalysisError::Core)?;
        let mut report = self.inner.analyze_with(&inflated, ctx)?;
        report.approach = self.name.clone();
        Ok(report)
    }
}

/// Per-core outcome of [`cross_validate_platform`].
#[derive(Debug, Clone)]
pub struct CoreValidation {
    /// The core this entry describes.
    pub core: CoreId,
    /// The inflation applied to its set.
    pub inflation: Inflation,
    /// Analysis report of the inflated set.
    pub report: ApproachReport,
    /// Per-core simulation counters.
    pub counters: SimCounters,
    /// Per-core refutations (bound violations, invalid traces, …).
    pub refutations: Vec<Refutation>,
}

/// Outcome of [`cross_validate_platform`]: per-core validations plus
/// the coupled bus-layer replay.
#[derive(Debug, Clone)]
pub struct PlatformValidation {
    /// One entry per platform core, in core order.
    pub cores: Vec<CoreValidation>,
    /// Counters of the bus-layer replay (one "plan" per simulated
    /// per-core trace fed into the arbiter).
    pub bus_counters: SimCounters,
    /// Bus-layer refutations ([`RefutationKind::BusOverrun`]).
    pub bus_refutations: Vec<Refutation>,
    /// Transfers replayed and checked on the shared bus.
    pub transfers_checked: u64,
}

impl PlatformValidation {
    /// `true` iff every core's inflated set is schedulable.
    pub fn schedulable(&self) -> bool {
        self.cores.iter().all(|c| c.report.schedulable())
    }

    /// All refutations of both layers, core order first, bus last.
    pub fn refutations(&self) -> Vec<&Refutation> {
        self.cores
            .iter()
            .flat_map(|c| c.refutations.iter())
            .chain(self.bus_refutations.iter())
            .collect()
    }

    /// `true` iff no layer found a refutation.
    pub fn clean(&self) -> bool {
        self.refutations().is_empty()
    }

    /// Merged counters of both layers.
    pub fn counters(&self) -> SimCounters {
        let mut merged = self.bus_counters;
        for c in &self.cores {
            merged.merge(&c.counters);
        }
        merged
    }
}

/// Extracts the DMA request stream core `core` issues in `result` (a
/// trace of the core's *inflated* set): one request per completed DMA
/// event, released when the event started, demanding the **original**
/// (uninflated) copy bound of its task from `original`. Canceled
/// events and zero-demand copies issue no bus transfer.
pub fn extract_transfers(core: CoreId, original: &TaskSet, result: &SimResult) -> Vec<TransferReq> {
    let mut out = Vec::new();
    extract_transfers_into(core, original, result.as_trace(), &mut out);
    out
}

/// [`extract_transfers`] over a borrowed trace view, appending into a
/// caller-owned (pooled) request buffer.
pub fn extract_transfers_into(
    core: CoreId,
    original: &TaskSet,
    result: TraceRef<'_>,
    out: &mut Vec<TransferReq>,
) {
    for e in result.events() {
        if e.unit != TraceUnit::Dma || e.canceled {
            continue;
        }
        let Some(task) = original.get(e.job.task()) else {
            continue;
        };
        let demand = match e.phase {
            Phase::CopyIn => task.copy_in(),
            Phase::CopyOut => task.copy_out(),
            Phase::Execute => continue,
        };
        if demand <= Time::ZERO {
            continue;
        }
        out.push(TransferReq {
            core,
            task: task.id(),
            phase: e.phase,
            release: e.start,
            demand,
        });
    }
}

/// Replays `requests` through the regulated-bus arbiter and refutes
/// `bound` wherever an observed service time exceeds it.
///
/// The bound is a closure so negative tests can feed a deliberately
/// weakened bound (e.g. the raw demand, ignoring contention) and assert
/// that the arbiter refutes it; [`cross_validate_platform`] passes the
/// analytical inflation.
pub fn refute_bus_bounds(
    bus: &BusModel,
    requests: &[TransferReq],
    bound: &dyn Fn(CoreId, Time) -> Time,
    approach: &str,
    plan: PlanSpec,
) -> Vec<Refutation> {
    let mut refutations = Vec::new();
    for rec in arbitrate(bus, requests) {
        let limit = bound(rec.req.core, rec.req.demand);
        let observed = rec.service_time();
        if observed > limit {
            refutations.push(Refutation {
                approach: approach.to_string(),
                plan,
                kind: RefutationKind::BusOverrun {
                    core: rec.req.core,
                    task: rec.req.task,
                    demand: rec.req.demand,
                    observed,
                    bound: limit,
                },
                excerpt: format!(
                    "{} {} on {}: release={} start={} completion={}",
                    rec.req.phase,
                    rec.req.task,
                    rec.req.core,
                    rec.req.release,
                    rec.service_start,
                    rec.completion
                ),
            });
        }
    }
    refutations
}

/// Multi-core cross-validation of `platform` under the named approach:
/// per-core analysis and cross-validation of the inflated sets, plus a
/// coupled replay of all cores' DMA streams through the regulated-bus
/// arbiter checking every transfer's service time against the
/// analytical inflation (see the module docs for the two layers).
///
/// On a bus that cannot contend the bus layer is skipped (there is
/// nothing to arbitrate) and the result reduces to independent per-core
/// cross-validation — byte-identical to the legacy path.
///
/// # Errors
///
/// Returns [`AnalysisError::UnknownApproach`] for an unregistered
/// approach, and propagates analysis and model errors.
pub fn cross_validate_platform(
    platform: &Platform,
    approach: &str,
    plans: usize,
    base_seed: u64,
    ctx: &AnalysisContext,
) -> Result<PlatformValidation, AnalysisError> {
    let analyzers = Registry::standard();
    let analyzer = analyzers.require(approach)?;
    let sims = pmcs_sim::Registry::standard();
    let policy = sims
        .get(approach)
        .ok_or_else(|| AnalysisError::UnknownApproach(approach.to_string()))?;
    let specs = adversarial_specs(plans, base_seed);
    let bus = platform.bus();
    // One reusable workspace + plan buffer for every simulation this
    // validation performs (both layers).
    let mut scratch = SimScratch::new();

    // Layer 1: per-core analysis + cross-validation on the inflated sets.
    let mut cores = Vec::with_capacity(platform.num_cores());
    for (core, set) in platform.iter() {
        let inflation = Inflation::for_core(bus, core);
        let inflated = inflation.inflate_set(set).map_err(AnalysisError::Core)?;
        let report = analyzer.analyze_with(&inflated, ctx)?;
        let (counters, refutations) =
            cross_validate_report_in(&inflated, policy, &report, &specs, &mut scratch)?;
        cores.push(CoreValidation {
            core,
            inflation,
            report,
            counters,
            refutations,
        });
    }

    // Layer 2: coupled bus replay of all cores' DMA streams.
    let mut bus_counters = SimCounters::default();
    let mut bus_refutations = Vec::new();
    let mut transfers_checked = 0u64;
    if bus.is_contended() {
        let started = Instant::now();
        // The simulator must run the marked sets the analysis bounded.
        let mut marked = Vec::with_capacity(cores.len());
        for cv in &cores {
            let set = platform.core(cv.core).expect("iterated core exists");
            let mut inflated = cv.inflation.inflate_set(set).map_err(AnalysisError::Core)?;
            for t in &cv.report.tasks {
                if let Some(s) = t.sensitivity {
                    inflated = inflated
                        .with_sensitivity(t.task, s)
                        .map_err(|e| AnalysisError::Core(pmcs_core::CoreError::Model(e)))?;
                }
            }
            marked.push(inflated);
        }
        let reuses_before = scratch.ws.reuses();
        let mut requests = Vec::new();
        for &spec in &specs {
            requests.clear();
            for (cv, inflated) in cores.iter().zip(&marked) {
                adversarial_plan_into(inflated, plan_horizon(inflated), spec, &mut scratch.plan);
                let result = run_into(
                    inflated,
                    &scratch.plan,
                    policy,
                    sim_horizon(inflated),
                    &mut scratch.ws,
                );
                bus_counters.plans_run += 1;
                let original = platform.core(cv.core).expect("iterated core exists");
                extract_transfers_into(cv.core, original, result, &mut requests);
            }
            transfers_checked += requests.len() as u64;
            let inflations: Vec<Inflation> = cores.iter().map(|c| c.inflation).collect();
            bus_refutations.extend(refute_bus_bounds(
                bus,
                &requests,
                // An inflated time past the tick range bounds nothing.
                &|core, demand| {
                    inflations[core.0 as usize]
                        .inflate(demand)
                        .unwrap_or(Time::MAX)
                },
                approach,
                spec,
            ));
        }
        bus_counters.refutations = bus_refutations.len() as u64;
        bus_counters.sim_secs = started.elapsed().as_secs_f64();
        bus_counters.ws_reused = scratch.ws.reuses() - reuses_before;
    }

    Ok(PlatformValidation {
        cores,
        bus_counters,
        bus_refutations,
        transfers_checked,
    })
}
