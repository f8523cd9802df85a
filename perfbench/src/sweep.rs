//! `sweep`: the offline Figure 2 analysis as a closed batch.
//!
//! Two workers share one `SharedDelayCache` under the default
//! `AnalysisConfig` and run every approach of `Registry::standard` on
//! fresh generated task sets until the run's time is up. Serve and
//! simulation code never run in the timed phase.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pmcs_analysis::{
    cross_validate_report, AnalysisConfig, AnalysisContext, ApproachReport, Registry,
};
use pmcs_bench::{fig2_inset, Fig2Inset};
use pmcs_core::{analyze_task_set, SharedDelayCache};
use pmcs_model::TaskSet;
use pmcs_workload::{adversarial_specs, derive_seed, TaskSetConfig, TaskSetGenerator};

use crate::layers::Layers;
use crate::report::Report;
use crate::stats::{median, peak_rss_mb, tail};
use crate::trace::{self, traced_stack, Layer, Profile};
use crate::{Digest, RunOpts};

/// Analysis workers (the load is sized for two cores).
const WORKERS: usize = 2;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Sets analyzed (on a throwaway cache) to warm up each set-up.
const WARMUP_SETS: usize = 1024;
/// Every `XV_EVERY`-th set keeps its reports for cross-validation.
const XV_EVERY: usize = 16;
/// Sets cross-validated against the simulator after the timed phase.
const XV_SETS: usize = 8;
/// Adversarial plans per cross-validated (set, approach) pair.
const XV_PLANS: usize = 4;
/// Sets covered by the per-seed prefix digest.
const DIGEST_PREFIX: usize = 64;

const WARMUP_STREAM: u64 = 0x5eed_0001;
const XV_STREAM: u64 = 0x5eed_0002;

/// Highest utilization of the set mix.
const MAX_UTILIZATION: f64 = 0.25;

/// The set mix: the Figure 2 a–b grid (γ ∈ {0.1, 0.3}, β = 0.4) at
/// n = 5 and U = 0.05 … 0.25, one grid point per set in turn. Beyond it
/// — n = 6, γ = 0.5, or higher U — single sets grow DP memos of hundreds
/// of megabytes and take up to seconds, and a run's figures depend on
/// how many of them it happens to draw.
pub fn grid() -> Vec<TaskSetConfig> {
    [Fig2Inset::A, Fig2Inset::B]
        .into_iter()
        .flat_map(fig2_inset)
        .map(|p| TaskSetConfig { n: 5, ..p.config })
        .filter(|c| c.utilization <= MAX_UTILIZATION + 1e-9)
        .collect()
}

/// Task set `k` of the run seeded `seed`: grid point `k mod P`, drawn
/// with `derive_seed(seed, point, k div P)`.
pub fn generate_set(grid: &[TaskSetConfig], seed: u64, k: usize) -> TaskSet {
    let point = k % grid.len();
    let index = k / grid.len();
    TaskSetGenerator::new(
        grid[point].clone(),
        derive_seed(seed, point as u64, index as u64),
    )
    .generate()
}

/// One analyzed set.
struct SetResult {
    k: usize,
    ms: f64,
    digest: u64,
    failures: u64,
    reports: Option<Vec<ApproachReport>>,
}

/// One pass over the first sets of a run.
struct Pass {
    results: Vec<SetResult>,
    elapsed_s: f64,
    thread_s: f64,
    recorders: Vec<trace::Recorder>,
    evictions: u64,
}

fn report_digest(d: &mut Digest, r: &ApproachReport) {
    d.str(&r.approach);
    d.u64(u64::from(r.schedulable()));
    for t in &r.tasks {
        d.u64(u64::from(t.task.0));
        d.u64(t.wcrt.as_ticks() as u64);
        d.u64(u64::from(t.schedulable));
        d.u64(t.sensitivity.map_or(2, |s| u64::from(s.is_ls())));
    }
}

/// Analyzes one set with every approach; the traced variant assembles
/// the default stack by hand so timers sit on both sides of the cache.
fn analyze_set(
    registry: &Registry,
    ctx: &AnalysisContext,
    stack: Option<&trace::TracedStack>,
    set: &TaskSet,
    k: usize,
) -> (Vec<ApproachReport>, u64) {
    let mut reports = Vec::with_capacity(registry.len());
    let mut failures = 0;
    for analyzer in registry.iter() {
        let result = match (stack, Layer::of_approach(analyzer.name())) {
            (None, _) => analyzer.analyze_with(set, ctx),
            (Some(stack), Some(Layer::Proposed)) => trace::span(Layer::Proposed, k as u64, || {
                trace::span(Layer::Schedulability, k as u64, || {
                    analyze_task_set(set, stack)
                })
                .map(|r| {
                    trace::count(|rec| rec.rounds += r.rounds() as u64);
                    ApproachReport::from_schedulability(analyzer.name(), &r)
                })
                .map_err(Into::into)
            }),
            (Some(_), Some(layer)) => {
                trace::span(layer, k as u64, || analyzer.analyze_with(set, ctx))
            }
            (Some(_), None) => analyzer.analyze_with(set, ctx),
        };
        match result {
            Ok(r) => reports.push(r),
            Err(_) => failures += 1,
        }
    }
    (reports, failures)
}

/// Runs `WORKERS` workers over sets `0..limit` of `grid` and `seed`
/// until `deadline` (if any), on a fresh shared cache. Each worker
/// generates the set it takes next, inside a `workload.generate` span.
fn run_pass(
    grid: &[TaskSetConfig],
    seed: u64,
    limit: usize,
    deadline: Option<Instant>,
    traced: bool,
) -> Pass {
    let registry = Registry::standard();
    let cache = Arc::new(SharedDelayCache::default());
    let cursor = AtomicUsize::new(0);
    let started = Instant::now();
    let outs: Vec<(Vec<SetResult>, f64, trace::Recorder)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| {
                let (registry, cache, cursor) = (&registry, &cache, &cursor);
                scope.spawn(move || {
                    let t0 = Instant::now();
                    let cfg = AnalysisConfig::default();
                    let ctx = AnalysisContext::with_shared_cache(&cfg, Arc::clone(cache));
                    let stack = traced.then(|| traced_stack(Arc::clone(cache)));
                    if traced {
                        trace::install();
                    }
                    let mut results = Vec::new();
                    loop {
                        if deadline.is_some_and(|d| Instant::now() >= d) {
                            break;
                        }
                        let k = cursor.fetch_add(1, Ordering::Relaxed);
                        if k >= limit {
                            break;
                        }
                        let begin = Instant::now();
                        let set =
                            trace::span(Layer::Generate, k as u64, || generate_set(grid, seed, k));
                        let (reports, failures) =
                            analyze_set(registry, &ctx, stack.as_ref(), &set, k);
                        let ms = begin.elapsed().as_secs_f64() * 1e3;
                        let mut d = Digest::new();
                        for r in &reports {
                            report_digest(&mut d, r);
                        }
                        results.push(SetResult {
                            k,
                            ms,
                            digest: d.finish(),
                            failures,
                            reports: (k % XV_EVERY == 0 && k / XV_EVERY < XV_SETS)
                                .then_some(reports),
                        });
                    }
                    (results, t0.elapsed().as_secs_f64(), trace::take())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    let mut results = Vec::new();
    let mut thread_s = 0.0;
    let mut recorders = Vec::new();
    for (r, secs, rec) in outs {
        results.extend(r);
        thread_s += secs;
        recorders.push(rec);
    }
    results.sort_by_key(|r| r.k);
    Pass {
        results,
        elapsed_s,
        thread_s,
        recorders,
        evictions: cache.stats().evictions,
    }
}

fn digest_of(results: &[SetResult]) -> u64 {
    let mut d = Digest::new();
    for r in results {
        d.u64(r.digest);
    }
    d.finish()
}

/// One set-up: analyze `WARMUP_SETS` sets of the cheapest grid points
/// (so a warm-up never draws one of the rare slow sets) on a throwaway
/// cache.
fn set_up(grid: &[TaskSetConfig], seed: u64) {
    let lightest = grid
        .iter()
        .map(|c| c.utilization)
        .fold(f64::INFINITY, f64::min);
    let light: Vec<TaskSetConfig> = grid
        .iter()
        .filter(|c| c.utilization <= lightest)
        .cloned()
        .collect();
    let warm_seed = derive_seed(seed, WARMUP_STREAM, 0);
    run_pass(&light, warm_seed, WARMUP_SETS, None, false);
}

/// Runs the workload.
pub fn run(opts: &RunOpts) -> Report {
    let mut r = Report::default();
    let grid = grid();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        set_up(&grid, opts.seed);
        setups.push(t0.elapsed().as_secs_f64());
    }

    let deadline = Instant::now() + opts.duration();
    let pass = run_pass(&grid, opts.seed, usize::MAX, Some(deadline), false);
    let n = pass.results.len();
    let analysis_failures: u64 = pass.results.iter().map(|s| s.failures).sum();
    let ms: Vec<f64> = pass.results.iter().map(|s| s.ms).collect();
    let sets_per_s = n as f64 / pass.elapsed_s;
    r.attempted += (n * Registry::standard().len()) as u64;
    r.failed += analysis_failures;

    // Cross-validate the kept reports against the simulator, outside
    // the timed phase.
    let sims = pmcs_sim::Registry::standard();
    let mut refutations = 0u64;
    let mut xv_pairs = 0u64;
    for s in pass.results.iter().filter(|s| s.reports.is_some()) {
        for report in s.reports.iter().flatten() {
            let Some(policy) = sims.get(&report.approach) else {
                continue;
            };
            let specs = adversarial_specs(XV_PLANS, derive_seed(opts.seed, XV_STREAM, s.k as u64));
            xv_pairs += 1;
            let set = generate_set(&grid, opts.seed, s.k);
            match cross_validate_report(&set, policy, report, &specs) {
                Ok((_, found)) => refutations += found.len() as u64,
                Err(_) => refutations += 1,
            }
        }
    }
    r.attempted += xv_pairs;
    r.failed += refutations;
    r.check("cross_validated_sample", xv_pairs > 0);

    let set_tail = tail(&ms);
    r.detail("sets", n as f64, "count");
    r.detail("sets_per_s", sets_per_s, "sets/s");
    r.detail("set_ms_p50", median(&ms), "ms");
    r.tail_detail("set_ms_tail", set_tail, "ms");
    r.detail("peak_rss_mb", peak_rss_mb("self").unwrap_or(0.0), "MB");
    r.detail("analysis_failures", analysis_failures as f64, "count");
    r.detail("xv_pairs", xv_pairs as f64, "count");
    r.detail("xv_refutations", refutations as f64, "count");
    r.note(format!(
        "verdict_digest prefix{}={:016x} all{}={:016x}",
        DIGEST_PREFIX.min(n),
        digest_of(&pass.results[..DIGEST_PREFIX.min(n)]),
        n,
        digest_of(&pass.results)
    ));

    if !opts.trace {
        r.metric("setup_s", median(&setups), "s");
        r.metric("throughput_per_s", sets_per_s, "1/s");
        return r;
    }

    // Traced pass: the same sets on a fresh cache, with the default
    // stack assembled around timers.
    let traced = run_pass(&grid, opts.seed, n, None, true);
    let same = digest_of(&traced.results) == digest_of(&pass.results);
    r.check("traced_digest_matches", same && traced.results.len() == n);
    let layers = Layers {
        profile: Profile::of(&traced.recorders),
        cache_evictions: traced.evictions,
        overhead_frac: traced.elapsed_s / pass.elapsed_s - 1.0,
        wall_s: traced.thread_s,
        ..Layers::default()
    };
    layers.emit(&mut r);
    opts.write_spans("sweep", &traced.recorders);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_identical_sets_and_two_seeds_differ() {
        let grid = grid();
        assert_eq!(grid.len(), 10, "insets a-b at U = 0.05 ... 0.25");
        for k in [0, 7, 123] {
            assert_eq!(generate_set(&grid, 5, k), generate_set(&grid, 5, k));
            assert_ne!(generate_set(&grid, 5, k), generate_set(&grid, 6, k));
        }
        assert_ne!(generate_set(&grid, 5, 1), generate_set(&grid, 5, 11));
    }
}
