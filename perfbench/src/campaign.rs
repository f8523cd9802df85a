//! `campaign`: streaming falsification campaigns through `run_campaign`
//! with its defaults at `jobs = 2`, one campaign per chunk of the run.
//!
//! Each chunk is a whole campaign on its own seed (`derive_seed(seed,
//! CHUNK_STREAM, chunk)`), so a run averages over several generated
//! workloads; its streaming phase is timed by the campaign itself. A
//! set-up generates and analyzes one chunk's set, the work each campaign
//! does before it streams.
//!
//! The traced run cannot reach inside `run_campaign`, so it replays the
//! campaign's single-core section from public calls — generation,
//! `Analyzer::analyze_with`, `adversarial_plan_into`, `run_streaming` —
//! and requires the replayed histograms to equal the campaign's.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pmcs_analysis::{
    plan_horizon, AnalysisConfig, AnalysisContext, AnalysisError, ApproachReport, Registry,
    SimScratch,
};
use pmcs_bench::{bin_of, run_campaign, CampaignConfig, CampaignOutcome, BINS};
use pmcs_core::{analyze_task_set, SharedDelayCache};
use pmcs_model::{Sensitivity, TaskSet, Time};
use pmcs_sim::kernel::run_streaming;
use pmcs_workload::{
    adversarial_plan_into, adversarial_spec, derive_seed, TaskSetConfig, TaskSetGenerator,
};

use crate::layers::Layers;
use crate::report::Report;
use crate::stats::{median, peak_rss_mb, tail};
use crate::trace::{self, traced_stack, Layer, Profile};
use crate::{Digest, RunOpts};

/// Worker threads of the campaign (the load is sized for two cores).
const JOBS: usize = 2;
/// Plans per approach in a chunk's single-core section.
const PLANS: usize = 24_000;
/// Candidate chunks per run, each set up once; `setup_s` is the mean
/// set-up time. The analysis time of a set is heavy-tailed, so only a
/// mean over many sets stays put from one seed to the next. About twice
/// the chunks a run on two cores gets through.
const SETUP_CHUNKS: usize = 128;
/// Chunks the traced run replays.
const TRACED_CHUNKS: usize = 2;
/// Seed stream of the per-chunk campaign seeds.
const CHUNK_STREAM: u64 = 0xca3_b000;
/// The campaign's seed stream of its single-core section.
const SINGLE_STREAM: u64 = 0xca3_0001;

/// The campaign configuration of chunk `chunk`.
fn chunk_config(seed: u64, chunk: usize) -> CampaignConfig {
    CampaignConfig {
        plans: PLANS,
        seed: derive_seed(seed, CHUNK_STREAM, chunk as u64),
        // The fresh-allocation baseline loop is a comparison the
        // campaign record carries, not part of the campaign.
        baseline_cap: 0,
        analysis: AnalysisConfig::default().with_jobs(JOBS),
        ..CampaignConfig::default()
    }
}

/// Histogram digest of a section: label, plans, responses, worst,
/// misses and bins of every policy, in registry order.
fn hist_digest<'a>(
    rows: impl Iterator<Item = (&'a str, u64, u64, Option<Time>, u64, &'a [u64])>,
) -> u64 {
    let mut d = Digest::new();
    for (label, plans, responses, worst, misses, bins) in rows {
        d.str(label);
        d.u64(plans);
        d.u64(responses);
        d.u64(worst.map_or(u64::MAX, |t| t.as_ticks() as u64));
        d.u64(misses);
        for &b in bins {
            d.u64(b);
        }
    }
    d.finish()
}

fn outcome_digest(o: &CampaignOutcome) -> u64 {
    hist_digest(o.single.iter().map(|h| {
        (
            h.label.as_str(),
            h.plans,
            h.responses,
            h.worst,
            h.misses,
            &h.bins[..],
        )
    }))
}

/// One approach prepared for streaming, as the campaign prepares it.
struct Prep {
    name: String,
    marked: TaskSet,
    bounds: Vec<Option<Time>>,
    release_horizon: Time,
    horizon: Time,
}

fn prep(name: &str, set: &TaskSet, report: &ApproachReport) -> Prep {
    let mut marked = set.clone();
    for t in &report.tasks {
        if let Some(s) = t.sensitivity {
            marked = marked
                .with_sensitivity(t.task, s)
                .expect("reported tasks belong to the set");
        }
    }
    let bounds = marked
        .tasks()
        .iter()
        .map(|task| {
            report
                .schedulable()
                .then(|| {
                    report
                        .tasks
                        .iter()
                        .find(|t| t.task == task.id())
                        .map(|t| t.wcrt)
                })
                .flatten()
        })
        .collect();
    let release_horizon = plan_horizon(&marked);
    let max_d = marked
        .iter()
        .map(|t| t.deadline())
        .max()
        .unwrap_or(Time::ZERO);
    let tail: i64 = marked.iter().map(|t| t.wcet_serialized().as_ticks()).sum();
    Prep {
        name: name.to_string(),
        bounds,
        horizon: release_horizon + max_d + Time::from_ticks(2 * tail),
        release_horizon,
        marked,
    }
}

/// The campaign's single-core set, generated as `run_campaign`
/// generates it: `tasks` tasks at `util`, the lowest-priority task
/// marked latency-sensitive.
fn campaign_set(cfg: &CampaignConfig) -> TaskSet {
    let set = trace::span(Layer::Generate, cfg.seed, || {
        let config = TaskSetConfig {
            n: cfg.tasks,
            utilization: cfg.util,
            ..TaskSetConfig::default()
        };
        TaskSetGenerator::new(config, cfg.seed).generate()
    });
    let lowest = set
        .iter()
        .max_by_key(|t| t.priority().0)
        .map(|t| t.id())
        .expect("generated set is non-empty");
    set.with_sensitivity(lowest, Sensitivity::Ls)
        .expect("lowest-priority task is in the set")
}

/// One set-up, the work a campaign does before it streams: generate
/// chunk `chunk`'s set and analyze it with every approach. Returns the
/// first analysis error, if any.
fn set_up(seed: u64, chunk: usize) -> Result<(), AnalysisError> {
    let cfg = chunk_config(seed, chunk);
    let set = campaign_set(&cfg);
    let ctx = AnalysisContext::new(&cfg.analysis);
    for analyzer in Registry::standard().iter() {
        analyzer.analyze_with(&set, &ctx)?;
    }
    Ok(())
}

/// Per-policy streaming statistics of one replayed section.
#[derive(Clone)]
struct Hist {
    plans: u64,
    responses: u64,
    worst: Option<Time>,
    misses: u64,
    bins: Vec<u64>,
    exceedances: u64,
}

impl Hist {
    fn new() -> Self {
        Hist {
            plans: 0,
            responses: 0,
            worst: None,
            misses: 0,
            bins: vec![0; BINS],
            exceedances: 0,
        }
    }

    fn merge(&mut self, o: &Hist) {
        self.plans += o.plans;
        self.responses += o.responses;
        self.worst = self.worst.max(o.worst);
        self.misses += o.misses;
        self.exceedances += o.exceedances;
        for (a, b) in self.bins.iter_mut().zip(&o.bins) {
            *a += b;
        }
    }
}

/// What one replay of a chunk's single-core section produced.
struct Replay {
    digest: u64,
    sims: u64,
    jobs: u64,
    exceedances: u64,
    ws_reused: u64,
    thread_s: f64,
    recorders: Vec<trace::Recorder>,
}

/// Replays chunk `cfg`'s single-core section: the campaign's set, every
/// approach's analysis, then `plans` adversarial plans per approach
/// streamed over `JOBS` workers in the campaign's shard size.
fn replay_single(cfg: &CampaignConfig, traced: bool) -> Replay {
    let started = Instant::now();
    if traced {
        trace::install();
    }
    let registry = Registry::standard();
    let set = campaign_set(cfg);
    let cache = Arc::new(SharedDelayCache::default());
    let ctx = AnalysisContext::with_shared_cache(&cfg.analysis, Arc::clone(&cache));
    let stack = traced_stack(cache);
    let preps: Vec<Prep> = registry
        .iter()
        .map(|analyzer| {
            let layer = Layer::of_approach(analyzer.name()).expect("standard approach");
            let report = trace::span(layer, cfg.seed, || {
                if layer == Layer::Proposed && traced {
                    trace::span(Layer::Schedulability, cfg.seed, || {
                        analyze_task_set(&set, &stack)
                    })
                    .map(|r| {
                        trace::count(|rec| rec.rounds += r.rounds() as u64);
                        ApproachReport::from_schedulability(analyzer.name(), &r)
                    })
                    .map_err(Into::into)
                } else {
                    analyzer.analyze_with(&set, &ctx)
                }
            });
            prep(
                analyzer.name(),
                &set,
                &report.expect("campaign sets analyze"),
            )
        })
        .collect();
    let mut thread_s = started.elapsed().as_secs_f64();
    let mut recorders = vec![trace::take()];

    let base_seed = derive_seed(cfg.seed, SINGLE_STREAM, 0);
    let shard = cfg.shard.max(1);
    let shards: Vec<(usize, usize)> = (0..cfg.plans)
        .step_by(shard)
        .map(|s| (s, (s + shard).min(cfg.plans)))
        .collect();
    let cursor = AtomicUsize::new(0);
    let outs: Vec<(Vec<Hist>, u64, f64, trace::Recorder)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..JOBS)
            .map(|_| {
                let (preps, shards, cursor) = (&preps, &shards, &cursor);
                scope.spawn(move || {
                    let t0 = Instant::now();
                    if traced {
                        trace::install();
                    }
                    let sims = pmcs_sim::Registry::standard();
                    let mut scratch = SimScratch::new();
                    let mut hists = vec![Hist::new(); preps.len()];
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&(start, end)) = shards.get(i) else {
                            break;
                        };
                        for (prep, h) in preps.iter().zip(hists.iter_mut()) {
                            let policy = sims.get(&prep.name).expect("registries are aligned");
                            trace::span(Layer::Stream, i as u64, || {
                                for p in start..end {
                                    let spec = adversarial_spec(p, base_seed);
                                    trace::span(Layer::Plan, p as u64, || {
                                        adversarial_plan_into(
                                            &prep.marked,
                                            prep.release_horizon,
                                            spec,
                                            &mut scratch.plan,
                                        )
                                    });
                                    let stats = trace::span(Layer::Kernel, p as u64, || {
                                        run_streaming(
                                            &prep.marked,
                                            &scratch.plan,
                                            policy,
                                            prep.horizon,
                                            &mut scratch.ws,
                                            |_, r| {
                                                h.bins[bin_of(r)] += 1;
                                                h.responses += 1;
                                                h.worst = h.worst.max(Some(r));
                                            },
                                        )
                                    });
                                    h.plans += 1;
                                    h.misses += stats.total_misses();
                                    for (ti, bound) in prep.bounds.iter().enumerate() {
                                        if let (Some(b), Some(w)) =
                                            (*bound, stats.worst_response(ti))
                                        {
                                            h.exceedances += u64::from(w > b);
                                        }
                                    }
                                }
                            });
                        }
                    }
                    let reused = scratch.ws.reuses();
                    (hists, reused, t0.elapsed().as_secs_f64(), trace::take())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("campaign worker panicked"))
            .collect()
    });
    let mut merged = vec![Hist::new(); preps.len()];
    let mut ws_reused = 0;
    for (hists, reused, secs, rec) in outs {
        for (m, h) in merged.iter_mut().zip(&hists) {
            m.merge(h);
        }
        ws_reused += reused;
        thread_s += secs;
        recorders.push(rec);
    }
    Replay {
        digest: hist_digest(preps.iter().zip(&merged).map(|(p, h)| {
            (
                p.name.as_str(),
                h.plans,
                h.responses,
                h.worst,
                h.misses,
                &h.bins[..],
            )
        })),
        sims: merged.iter().map(|h| h.plans).sum(),
        jobs: merged.iter().map(|h| h.responses).sum(),
        exceedances: merged.iter().map(|h| h.exceedances).sum(),
        ws_reused,
        thread_s,
        recorders,
    }
}

/// Runs the workload.
pub fn run(opts: &RunOpts) -> Report {
    let mut r = Report::default();
    // Set up every candidate chunk. A chunk whose set some approach
    // cannot analyze (about one set in several thousand) is left out of
    // the run and reported: the workload is the chunks the program can
    // run.
    let mut setups = Vec::with_capacity(SETUP_CHUNKS);
    let mut usable = Vec::with_capacity(SETUP_CHUNKS);
    for chunk in 0..SETUP_CHUNKS {
        let t0 = Instant::now();
        let result = set_up(opts.seed, chunk);
        setups.push(t0.elapsed().as_secs_f64());
        match result {
            Ok(()) => usable.push(chunk),
            Err(e) => r.note(format!(
                "chunk {chunk} left out: its set fails analysis: {e}"
            )),
        }
    }
    r.detail(
        "chunks_left_out",
        (SETUP_CHUNKS - usable.len()) as f64,
        "count",
    );
    let deadline = Instant::now() + opts.duration();
    let mut outcomes = Vec::new();
    let mut chunk_setups = Vec::new();
    let mut us_per_sim = Vec::new();
    let (mut sims, mut stream_s) = (0u64, 0.0f64);
    let chunks = if opts.trace {
        TRACED_CHUNKS
    } else {
        usable.len()
    };
    for &chunk in &usable[..chunks.min(usable.len())] {
        if !outcomes.is_empty() && Instant::now() >= deadline {
            break;
        }
        match run_campaign(&chunk_config(opts.seed, chunk)) {
            Ok(o) => {
                chunk_setups.push(o.wall_secs - o.campaign_secs - o.baseline_secs);
                us_per_sim.push(o.campaign_secs * 1e6 / o.sims_run.max(1) as f64);
                sims += o.sims_run;
                stream_s += o.campaign_secs;
                r.attempted += o.sims_run;
                r.failed += o.refutations.len() as u64;
                for refutation in &o.refutations {
                    r.note(format!("chunk {chunk}: {refutation}"));
                }
                outcomes.push((chunk, o));
            }
            Err(e) => {
                r.attempted += 1;
                r.failed += 1;
                r.note(format!("campaign chunk {chunk} failed: {e}"));
                break;
            }
        }
    }
    r.check(
        "usable_chunks_not_exhausted",
        opts.trace || outcomes.len() < usable.len(),
    );
    let sims_per_s = sims as f64 / stream_s;
    r.detail("chunks", outcomes.len() as f64, "count");
    r.detail("sims", sims as f64, "count");
    r.detail("sims_per_s", sims_per_s, "sims/s");
    r.tail_detail("sim_us_tail", tail(&us_per_sim), "us");
    r.detail("chunk_setup_s_p50", median(&chunk_setups), "s");
    r.detail("peak_rss_mb", peak_rss_mb("self").unwrap_or(0.0), "MB");
    let mut d = Digest::new();
    for (_, o) in &outcomes {
        d.u64(outcome_digest(o));
    }
    r.note(format!(
        "verdict_digest chunks{}={:016x}",
        outcomes.len(),
        d.finish()
    ));

    if !opts.trace {
        r.metric(
            "setup_s",
            setups.iter().sum::<f64>() / setups.len() as f64,
            "s",
        );
        r.metric("throughput_per_s", sims_per_s, "1/s");
        return r;
    }

    // Traced run: replay each chunk's single-core section once untraced
    // and once traced; both must reproduce the campaign's histograms.
    let mut recorders = Vec::new();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let mut layers = Layers::default();
    for (chunk, o) in &outcomes {
        let (chunk, cfg) = (*chunk, chunk_config(opts.seed, *chunk));
        let plain = replay_single(&cfg, false);
        let traced = replay_single(&cfg, true);
        let want = outcome_digest(o);
        r.check(
            &format!("chunk{chunk}_replay_digest_matches"),
            plain.digest == want,
        );
        r.check(
            &format!("chunk{chunk}_traced_digest_matches"),
            traced.digest == want,
        );
        r.failed += traced.exceedances;
        plain_s += plain.thread_s;
        traced_s += traced.thread_s;
        layers.sim_jobs += traced.jobs;
        layers.ws_reused += traced.ws_reused;
        r.detail("replay_sims", traced.sims as f64, "count");
        recorders.extend(traced.recorders);
    }
    layers.profile = Profile::of(&recorders);
    layers.overhead_frac = traced_s / plain_s - 1.0;
    layers.wall_s = traced_s;
    layers.emit(&mut r);
    opts.write_spans("campaign", &recorders);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_identical_sets_and_plan_specs_and_two_seeds_differ() {
        let spec =
            |cfg: &CampaignConfig, i| adversarial_spec(i, derive_seed(cfg.seed, SINGLE_STREAM, 0));
        let (a, b, other) = (chunk_config(5, 3), chunk_config(5, 3), chunk_config(6, 3));
        assert_eq!(campaign_set(&a), campaign_set(&b));
        assert_ne!(campaign_set(&a), campaign_set(&other));
        assert_ne!(campaign_set(&a), campaign_set(&chunk_config(5, 4)));
        for i in [0, 9, 4095] {
            assert_eq!(spec(&a, i), spec(&b, i));
            assert_ne!(spec(&a, i), spec(&other, i));
        }
    }
}
