//! Schedulability-ratio sweeps: the one `(point, set)` driver behind
//! every experiment.
//!
//! `sweep_items` fans the `(point, task set)` grid across a worker pool
//! ([`crate::parallel`]); every item derives its RNG stream from
//! `(base_seed, point_index, set_index)` via [`derive_seed`], so the
//! measured ratios — and the CSVs derived from them — are byte-identical
//! for every thread count. Each worker owns an [`AnalysisContext`] plus
//! a [`SimScratch`]; a per-item closure analyses the set and reports one
//! verdict per column. Three closures cover the experiments:
//! [`sweep_with`] analyses through the worker's context with every
//! approach of a [`Registry`] (Figure 2, the ablation), [`sweep_cold`]
//! times one cold analysis per set (the runtime table), and
//! [`crate::sweep_multicore`] partitions each set onto a regulated
//! platform.
//!
//! The approaches under comparison come from a [`Registry`] — sweep
//! columns are whatever is registered, in registration order; nothing in
//! this module knows how many approaches exist.
//!
//! Analyses that *fail* (solver failure, audit refutation) count as
//! unschedulable in the ratios — matching the paper's pessimistic
//! convention — but are additionally tallied per approach in
//! [`SweepRow::failures`] and surfaced through
//! [`SweepOutcome::total_failures`], never silently folded away.
//!
//! With [`AnalysisConfig::cross_validate`] `> 0`, every analyzed set is
//! additionally simulated under that many adversarial release plans per
//! approach (policies resolved by name from the simulator registry), the
//! traces validated, and observed worst responses checked against the
//! analytical bounds. Counters land in [`SweepOutcome::sim`]; any
//! refutations appear as machine-readable lines in
//! [`SweepOutcome::refutations`], ordered by `(point, set, approach,
//! plan)` — byte-identical for every thread count.
//!
//! With [`AnalysisConfig::emit_certs`], each worker also certifies every
//! set right after analysing it ([`certify_set`]), outside the item's
//! timed region; the merged counters land in [`SweepOutcome::certs`].

use std::time::{Duration, Instant};

use pmcs_analysis::{
    cross_validate_report_in, AnalysisConfig, AnalysisContext, AnalysisError, ApproachReport,
    Registry, SimCounters, SimScratch,
};
use pmcs_core::DpStats;
use pmcs_model::TaskSet;
use pmcs_workload::{adversarial_specs, derive_seed, TaskSetConfig, TaskSetGenerator};

use crate::certs::{certify_set, CertSummary};
use crate::parallel::parallel_map_with;

/// Stream tag separating cross-validation plan seeds from the task-set
/// generation seeds derived from the same `(base_seed, point, set)` item
/// seed.
const CV_SEED_STREAM: u64 = 0xadd7_e55a;

/// Outcome of one approach on one task set: a verdict, or a *failed*
/// analysis (distinct from "analyzed fine, deadlines missed").
#[derive(Debug, Clone, PartialEq)]
pub enum SetOutcome {
    /// The analysis completed; every task meets its deadline.
    Schedulable,
    /// The analysis completed; some task misses its deadline.
    Unschedulable,
    /// The analysis itself failed.
    Failed(AnalysisError),
}

impl SetOutcome {
    /// `true` iff the set was proven schedulable.
    pub fn schedulable(&self) -> bool {
        matches!(self, SetOutcome::Schedulable)
    }

    /// `true` iff the analysis failed (as opposed to concluding).
    pub fn failed(&self) -> bool {
        matches!(self, SetOutcome::Failed(_))
    }
}

/// One x-axis point of a sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// X value (utilization, γ, or β depending on the figure).
    pub x: f64,
    /// Generator configuration for this point.
    pub config: TaskSetConfig,
}

/// Measured schedulability ratios at one sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// X value of the point.
    pub x: f64,
    /// Schedulable fraction per column (approach, in registry order).
    pub ratios: Vec<f64>,
    /// Failed analyses per column (failures count as unschedulable in
    /// `ratios` but are never hidden).
    pub failures: Vec<usize>,
    /// Task sets evaluated.
    pub sets: usize,
}

/// A sweep's rows plus the execution telemetry feeding `BENCH_*.json`.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Column names (approaches, in registry order), the column order of
    /// `rows`.
    pub labels: Vec<String>,
    /// Measured ratios, aligned with the input points.
    pub rows: Vec<SweepRow>,
    /// Aggregate compute seconds per point (summed across workers, so
    /// with `jobs > 1` this exceeds the wall-clock share).
    pub point_secs: Vec<f64>,
    /// Worker threads used.
    pub jobs: usize,
    /// End-to-end wall-clock seconds.
    pub wall_secs: f64,
    /// Solver effort per column (summed over every point and task set;
    /// all-zero for closed-form approaches).
    pub solver: Vec<DpStats>,
    /// Simulation cross-validation counters, merged over every point, set
    /// and column (all-zero when cross-validation is off).
    pub sim: SimCounters,
    /// Machine-readable refutation lines, in deterministic
    /// `(point, set, approach, plan)` order — byte-identical for every
    /// thread count. Empty when the analyses are sound (or
    /// cross-validation is off).
    pub refutations: Vec<String>,
    /// Certificate counters and rejection lines (labelled `point=… set=…`,
    /// in `(point, set)` order), merged over every set; `None` when
    /// `emit_certs` is off.
    pub certs: Option<CertSummary>,
}

impl SweepOutcome {
    /// Failed analyses summed over every point and approach.
    pub fn total_failures(&self) -> usize {
        self.rows
            .iter()
            .map(|r| r.failures.iter().sum::<usize>())
            .sum()
    }
}

/// Analyses one task set under every registered approach, in registry
/// order, keeping each successful analysis's [`ApproachReport`] (needed
/// for simulation cross-validation; `None` for a failed analysis, whose
/// solver effort is not meaningfully attributable and counts as zero).
pub fn evaluate_set_with_reports(
    set: &TaskSet,
    registry: &Registry,
    ctx: &AnalysisContext,
) -> Vec<(SetOutcome, DpStats, Option<ApproachReport>)> {
    registry
        .iter()
        .map(|analyzer| match analyzer.analyze_with(set, ctx) {
            Ok(report) => {
                let outcome = if report.schedulable() {
                    SetOutcome::Schedulable
                } else {
                    SetOutcome::Unschedulable
                };
                let solver = report.solver;
                (outcome, solver, Some(report))
            }
            Err(e) => (SetOutcome::Failed(e), DpStats::default(), None),
        })
        .collect()
}

/// Per-worker state of [`sweep_items`], built once on each worker thread.
#[derive(Debug)]
pub(crate) struct Worker {
    /// Analysis context reused for every set the worker analyses.
    pub ctx: AnalysisContext,
    /// Simulation buffers that every cross-validated plan of the worker
    /// reuses instead of allocating per run.
    pub scratch: SimScratch,
}

/// What a [`sweep_items`] closure reports for one task set.
#[derive(Debug, Clone, Default)]
pub(crate) struct Item<X = ()> {
    /// Verdict and solver effort per column, in column order.
    pub outcomes: Vec<(SetOutcome, DpStats)>,
    /// Cross-validation counters of the set.
    pub sim: SimCounters,
    /// Refutation lines; the driver prefixes each with `point=… set=…`.
    pub refutations: Vec<String>,
    /// Caller-specific payload, handed back per point in set order.
    pub extra: X,
}

/// Builds the [`Item`] of one set's registry reports. With `plans > 0`
/// every report is simulated under `plans` adversarial release plans and
/// the observed worst responses are checked against its bounds; failed
/// analyses (no report) and approaches without a same-named simulator
/// policy are skipped. Plan seeds derive from `(item_seed,
/// CV_SEED_STREAM, approach index)`, so results are independent of
/// scheduling order.
fn registry_item<X>(
    set: &TaskSet,
    registry: &Registry,
    reports: Vec<(SetOutcome, DpStats, Option<ApproachReport>)>,
    plans: usize,
    item_seed: u64,
    scratch: &mut SimScratch,
    extra: X,
) -> Item<X> {
    let mut sim = SimCounters::default();
    let mut refutations = Vec::new();
    if plans > 0 {
        let sim_registry = pmcs_sim::Registry::standard();
        for (ai, (analyzer, (_, _, report))) in registry.iter().zip(&reports).enumerate() {
            let (Some(report), Some(policy)) = (report, sim_registry.get(analyzer.name())) else {
                continue;
            };
            let specs = adversarial_specs(plans, derive_seed(item_seed, CV_SEED_STREAM, ai as u64));
            match cross_validate_report_in(set, policy, report, &specs, scratch) {
                Ok((counters, refs)) => {
                    sim.merge(&counters);
                    refutations.extend(refs.iter().map(ToString::to_string));
                }
                Err(e) => refutations.push(format!(
                    "ERROR approach={} cross-validation failed: {e}",
                    analyzer.name()
                )),
            }
        }
    }
    Item {
        outcomes: reports.into_iter().map(|(o, s, _)| (o, s)).collect(),
        sim,
        refutations,
        extra,
    }
}

/// The one `(point, set)` driver behind every experiment.
///
/// Point `pi` gets `sets[pi]` task sets; set `si` is generated from the
/// point's config with seed `derive_seed(base_seed, pi, si)` and handed
/// to `item(worker, pi, set, seed)`. The items fan out over `cfg.jobs`
/// workers, each with one [`Worker`]. The driver times each item
/// (certification, with `cfg.emit_certs`, runs right after and outside
/// the timed region), labels refutation and rejection lines `point=…
/// set=…` in item order, folds the verdicts into one [`SweepRow`] per
/// point under the column `labels`, merges solver, simulation and
/// certificate counters, and measures the wall time. The rows depend
/// only on the inputs, never on `cfg.jobs`.
///
/// Returns the outcome plus every item's [`Item::extra`], per point in
/// set order. Panics unless there is one set count per point.
pub(crate) fn sweep_items<X, F>(
    points: &[SweepPoint],
    sets: &[usize],
    base_seed: u64,
    labels: Vec<String>,
    cfg: &AnalysisConfig,
    item: F,
) -> (SweepOutcome, Vec<Vec<X>>)
where
    X: Send,
    F: Fn(&mut Worker, usize, &TaskSet, u64) -> Item<X> + Sync,
{
    assert_eq!(points.len(), sets.len(), "one set count per point");
    let items: Vec<(usize, usize)> = sets
        .iter()
        .enumerate()
        .flat_map(|(pi, &n)| (0..n).map(move |si| (pi, si)))
        .collect();
    let started = Instant::now();
    let (evaluated, _) = parallel_map_with(
        &items,
        cfg.jobs,
        || Worker {
            ctx: AnalysisContext::new(cfg),
            scratch: SimScratch::new(),
        },
        |worker, _, &(pi, si)| {
            let t0 = Instant::now();
            let seed = derive_seed(base_seed, pi as u64, si as u64);
            let set = TaskSetGenerator::new(points[pi].config.clone(), seed).generate();
            let out = item(worker, pi, &set, seed);
            let secs = t0.elapsed().as_secs_f64();
            let certs = cfg
                .emit_certs
                .then(|| certify_set(&set, &format!("point={pi} set={si}")));
            (out, secs, certs)
        },
    );
    let wall_secs = started.elapsed().as_secs_f64();

    let columns = labels.len();
    let mut rows: Vec<SweepRow> = points
        .iter()
        .zip(sets)
        .map(|(point, &n)| SweepRow {
            x: point.x,
            ratios: vec![0.0; columns],
            failures: vec![0; columns],
            sets: n,
        })
        .collect();
    let mut extras: Vec<Vec<X>> = points.iter().map(|_| Vec::new()).collect();
    let mut point_secs = vec![0.0f64; points.len()];
    let mut solver = vec![DpStats::default(); columns];
    let mut sim = SimCounters::default();
    let mut refutations = Vec::new();
    let mut certs = CertSummary::default();
    for (&(pi, si), (out, secs, item_certs)) in items.iter().zip(evaluated) {
        let row = &mut rows[pi];
        for (ai, (o, stats)) in out.outcomes.iter().enumerate() {
            if o.schedulable() {
                row.ratios[ai] += 1.0;
            }
            row.failures[ai] += usize::from(o.failed());
            solver[ai].merge(*stats);
        }
        sim.merge(&out.sim);
        refutations.extend(
            out.refutations
                .iter()
                .map(|line| format!("point={pi} set={si} {line}")),
        );
        point_secs[pi] += secs;
        if let Some(item) = item_certs {
            certs.merge(&item);
        }
        extras[pi].push(out.extra);
    }
    for row in &mut rows {
        let sets = row.sets.max(1) as f64;
        row.ratios.iter_mut().for_each(|r| *r /= sets);
    }
    let outcome = SweepOutcome {
        labels,
        rows,
        point_secs,
        jobs: cfg.jobs,
        wall_secs,
        solver,
        sim,
        refutations,
        certs: cfg.emit_certs.then_some(certs),
    };
    (outcome, extras)
}

/// Runs a sweep: for each point, generates `sets_per_point` task sets
/// (each seeded deterministically from `(base_seed, point, set)`) and
/// measures the schedulability ratio of every registered approach, all
/// analyses of a worker sharing its context.
///
/// The rows depend only on `(points, sets_per_point, base_seed,
/// registry)` — never on `cfg`'s execution knobs (the thread count
/// changes wall-clock and telemetry, not results).
pub fn sweep_with(
    points: &[SweepPoint],
    sets_per_point: usize,
    base_seed: u64,
    registry: &Registry,
    cfg: &AnalysisConfig,
) -> SweepOutcome {
    let sets = vec![sets_per_point; points.len()];
    let (outcome, _) = sweep_items(
        points,
        &sets,
        base_seed,
        registry.labels(),
        cfg,
        |worker, _, set, seed| {
            let reports = evaluate_set_with_reports(set, registry, &worker.ctx);
            registry_item(
                set,
                registry,
                reports,
                cfg.cross_validate,
                seed,
                &mut worker.scratch,
                (),
            )
        },
    );
    outcome
}

/// The `(point, set)` driver measuring one cold analysis per set: every set is
/// analysed on a fresh [`AnalysisContext`] built from `cfg` with the
/// point's memo budget `max_states[point]`, so the DP memo spans only
/// that analysis (fixed-point iterations and greedy rounds), never sets.
/// Each set's extra is the time from building the context to the last
/// report; cross-validation runs after it, outside the measurement.
///
/// # Panics
///
/// Panics unless `sets` and `max_states` hold one entry per point.
pub fn sweep_cold(
    points: &[SweepPoint],
    sets: &[usize],
    max_states: &[usize],
    base_seed: u64,
    registry: &Registry,
    cfg: &AnalysisConfig,
) -> (SweepOutcome, Vec<Vec<Duration>>) {
    assert_eq!(points.len(), max_states.len(), "one memo budget per point");
    sweep_items(
        points,
        sets,
        base_seed,
        registry.labels(),
        cfg,
        |worker, pi, set, seed| {
            let point_cfg = AnalysisConfig {
                max_states: max_states[pi],
                ..cfg.clone()
            };
            let t0 = Instant::now();
            let ctx = AnalysisContext::new(&point_cfg);
            let reports = evaluate_set_with_reports(set, registry, &ctx);
            let elapsed = t0.elapsed();
            registry_item(
                set,
                registry,
                reports,
                cfg.cross_validate,
                seed,
                &mut worker.scratch,
                elapsed,
            )
        },
    )
}

/// Single-threaded [`sweep_with`] over the standard registry,
/// returning only the rows.
pub fn sweep(points: &[SweepPoint], sets_per_point: usize, base_seed: u64) -> Vec<SweepRow> {
    sweep_with(
        points,
        sets_per_point,
        base_seed,
        &Registry::standard(),
        &AnalysisConfig::default(),
    )
    .rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcs_analysis::{Analyzer, ApproachReport};
    use pmcs_baselines::WpAnalysis;
    use pmcs_core::CoreError;
    use pmcs_model::TaskSet;

    #[test]
    fn evaluate_set_is_consistent_with_direct_calls() {
        let mut g = TaskSetGenerator::new(
            TaskSetConfig {
                n: 3,
                utilization: 0.2,
                ..TaskSetConfig::default()
            },
            7,
        );
        let set = g.generate();
        let registry = Registry::standard();
        let ctx = AnalysisContext::new(&AnalysisConfig::default());
        let outcomes = evaluate_set_with_reports(&set, &registry, &ctx);
        assert_eq!(outcomes.len(), registry.len());
        assert_eq!(
            outcomes[1].0.schedulable(),
            WpAnalysis::default().is_schedulable(&set)
        );
        assert!(outcomes
            .iter()
            .all(|(o, _, report)| !o.failed() && report.is_some()));
    }

    fn small_points() -> Vec<SweepPoint> {
        [0.1, 0.2]
            .iter()
            .map(|&u| SweepPoint {
                x: u,
                config: TaskSetConfig {
                    n: 3,
                    utilization: u,
                    ..TaskSetConfig::default()
                },
            })
            .collect()
    }

    #[test]
    fn sweep_rows_align_with_points() {
        let rows = sweep(&small_points(), 3, 42);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].x, 0.1);
        assert_eq!(rows[0].ratios.len(), 4);
        assert!(rows
            .iter()
            .all(|r| r.ratios.iter().all(|&v| (0.0..=1.0).contains(&v))));
        assert!(rows.iter().all(|r| r.failures.iter().all(|&f| f == 0)));
    }

    #[test]
    fn outcome_telemetry_is_populated() {
        let points = small_points();
        let out = sweep_with(
            &points,
            4,
            42,
            &Registry::standard(),
            &AnalysisConfig::default().with_jobs(2),
        );
        assert_eq!(out.labels, ["proposed", "wp", "nps", "nps-classic"]);
        assert_eq!(out.rows.len(), points.len());
        assert_eq!(out.point_secs.len(), points.len());
        assert_eq!(out.jobs, 2);
        assert!(out.wall_secs >= 0.0);
        assert_eq!(out.total_failures(), 0);
        // Solver effort: one entry per approach; the engine-backed
        // "proposed" column spends search nodes, closed-form columns none.
        assert_eq!(out.solver.len(), out.labels.len());
        assert!(out.solver[0].nodes > 0);
        assert!(out.solver[1].is_empty());
    }

    /// An analyzer whose analysis always fails, to observe the failure
    /// accounting end to end.
    struct FailingAnalyzer;

    impl Analyzer for FailingAnalyzer {
        fn name(&self) -> &str {
            "failing"
        }

        fn analyze_with(
            &self,
            _set: &TaskSet,
            _ctx: &AnalysisContext,
        ) -> Result<ApproachReport, AnalysisError> {
            Err(AnalysisError::from(CoreError::AuditFailed {
                check: "test",
                detail: "injected failure".into(),
            }))
        }
    }

    #[test]
    fn cross_validation_counts_plans_and_finds_no_refutations() {
        let points = small_points();
        let out = sweep_with(
            &points,
            2,
            42,
            &Registry::standard(),
            &AnalysisConfig::default().with_cross_validate(3),
        );
        assert_eq!(
            out.refutations,
            Vec::<String>::new(),
            "sound analyses must survive adversarial plans"
        );
        // 2 points × 2 sets × 4 approaches × 3 plans (every approach has
        // a same-named simulator policy).
        assert_eq!(out.sim.plans_run, 2 * 2 * 4 * 3);
        assert_eq!(out.sim.refutations, 0);
        assert!(out.sim.sim_secs > 0.0);
        // NPS policies have no interval structure to validate; the two
        // interval-structured approaches validate every trace.
        assert_eq!(out.sim.traces_validated, 2 * 2 * 2 * 3);
    }

    #[test]
    fn cross_validation_off_leaves_counters_zero() {
        let out = sweep_with(
            &small_points(),
            2,
            42,
            &Registry::standard(),
            &AnalysisConfig::default(),
        );
        assert_eq!(out.sim, SimCounters::default());
        assert!(out.refutations.is_empty());
    }

    fn certified_sweep(jobs: usize) -> SweepOutcome {
        sweep_with(
            &small_points(),
            2,
            42,
            &Registry::standard(),
            &AnalysisConfig::default()
                .with_jobs(jobs)
                .with_emit_certs(true),
        )
    }

    #[test]
    fn sweep_certifies_every_analyzed_set() {
        let certs = certified_sweep(2).certs.expect("emit_certs is on");
        // 2 points × 2 sets, one bundle each.
        assert_eq!(certs.emitted, 4);
        assert!(certs.checked > 0);
        assert!(certs.ok(), "rejections: {:?}", certs.rejections);
    }

    #[test]
    fn certificates_are_identical_for_any_thread_count() {
        let serial = certified_sweep(1).certs.expect("emit_certs is on");
        let parallel = certified_sweep(4).certs.expect("emit_certs is on");
        assert_eq!(serial.emitted, parallel.emitted);
        assert_eq!(serial.checked, parallel.checked);
        assert_eq!(serial.rejected, parallel.rejected);
        assert_eq!(serial.rejections, parallel.rejections);
    }

    #[test]
    fn certification_leaves_rows_unchanged() {
        let plain = sweep_with(
            &small_points(),
            2,
            42,
            &Registry::standard(),
            &AnalysisConfig::default().with_jobs(2),
        );
        assert!(plain.certs.is_none());
        assert_eq!(plain.rows, certified_sweep(2).rows);
    }

    /// An analyzer that claims schedulability with absurdly small bounds,
    /// forcing refutations on every plan — used to observe the refutation
    /// report path and its thread-count determinism.
    struct WeakenedProposed;

    impl Analyzer for WeakenedProposed {
        fn name(&self) -> &str {
            "proposed"
        }

        fn analyze_with(
            &self,
            set: &TaskSet,
            ctx: &AnalysisContext,
        ) -> Result<ApproachReport, AnalysisError> {
            let mut report = pmcs_analysis::ProposedAnalyzer.analyze_with(set, ctx)?;
            for task in &mut report.tasks {
                task.wcrt = pmcs_model::Time::TICK;
                task.schedulable = true;
            }
            Ok(report)
        }
    }

    #[test]
    fn refutation_reports_are_identical_for_any_thread_count() {
        let mut registry = Registry::new();
        registry.register(Box::new(WeakenedProposed));
        let points = small_points();
        let run = |jobs: usize| {
            sweep_with(
                &points,
                3,
                42,
                &registry,
                &AnalysisConfig::default()
                    .with_jobs(jobs)
                    .with_cross_validate(2),
            )
        };
        let serial = run(1);
        let parallel = run(4);
        assert!(
            !serial.refutations.is_empty(),
            "a one-tick bound must be refuted"
        );
        assert_eq!(serial.refutations, parallel.refutations);
        assert_eq!(serial.sim.refutations, parallel.sim.refutations);
        let first = &serial.refutations[0];
        assert!(first.starts_with("point=0 set=0 REFUTATION"), "{first}");
        assert!(first.contains("seed="), "{first}");
        assert!(first.contains("observed="), "{first}");
    }

    #[test]
    fn failed_analyses_are_counted_not_hidden() {
        let mut registry = Registry::standard();
        registry.register(Box::new(FailingAnalyzer));
        let points = small_points();
        let out = sweep_with(&points, 3, 42, &registry, &AnalysisConfig::default());
        assert_eq!(out.labels.len(), 5);
        for row in &out.rows {
            // The failing column: ratio 0 (failure counts as
            // unschedulable) and every set tallied as failed.
            assert_eq!(row.ratios[4], 0.0);
            assert_eq!(row.failures[4], 3);
            // The real approaches never fail on these sets.
            assert!(row.failures[..4].iter().all(|&f| f == 0));
        }
        assert_eq!(out.total_failures(), 3 * points.len());
    }
}
