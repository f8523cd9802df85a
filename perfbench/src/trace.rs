//! Benchmark-side tracing: spans recorded around calls into the
//! program's public functions, kept in per-thread memory and merged and
//! written out when a run ends.
//!
//! A span carries its layer, start and end (nanoseconds since a
//! process-wide epoch), its parent span on the same thread, and the id
//! of the task set, plan or request it serves. A layer's self time is
//! its spans' durations minus the part their child spans cover, so self
//! times across all layers sum to the root spans' durations; whatever a
//! worker thread spends outside any root span is `unattributed_s`.
//!
//! Tracing is per thread and off unless [`install`] ran on that thread,
//! so the same instrumented code path serves traced and untraced passes.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use pmcs_core::wcrt::DelayBound;
use pmcs_core::WindowModel;
use pmcs_core::{CoreError, DelayEngine, ExactEngine, SharedCachedEngine, SharedDelayCache};

/// The layers a span can be attributed to, named after the program's
/// modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `TaskSetGenerator::generate`.
    Generate,
    /// `adversarial_plan_into`.
    Plan,
    /// `Analyzer::analyze_with` for `proposed`.
    Proposed,
    /// `Analyzer::analyze_with` for `wp`.
    Wp,
    /// `Analyzer::analyze_with` for `nps`.
    Nps,
    /// `Analyzer::analyze_with` for `nps-classic`.
    NpsClassic,
    /// `analyze_task_set`.
    Schedulability,
    /// `max_total_delay` around the shared window cache (every lookup).
    Cache,
    /// `max_total_delay` of the exact engine under the cache (misses).
    Engine,
    /// `AnalysisSession::{admit, remove, update}`.
    Session,
    /// `parse_value` + `decode_request`.
    Decode,
    /// `encode_report` + `write_value`.
    Encode,
    /// `run_streaming`.
    Kernel,
    /// One shard of a campaign section's streaming phase.
    Stream,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 14] = [
        Layer::Generate,
        Layer::Plan,
        Layer::Proposed,
        Layer::Wp,
        Layer::Nps,
        Layer::NpsClassic,
        Layer::Schedulability,
        Layer::Cache,
        Layer::Engine,
        Layer::Session,
        Layer::Decode,
        Layer::Encode,
        Layer::Kernel,
        Layer::Stream,
    ];

    /// Stable span name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Generate => "workload.generate",
            Layer::Plan => "workload.plan",
            Layer::Proposed => "analysis.proposed",
            Layer::Wp => "analysis.wp",
            Layer::Nps => "analysis.nps",
            Layer::NpsClassic => "analysis.nps-classic",
            Layer::Schedulability => "core.schedulability",
            Layer::Cache => "core.cache",
            Layer::Engine => "core.engine",
            Layer::Session => "core.session",
            Layer::Decode => "serve.proto.decode",
            Layer::Encode => "serve.proto.encode",
            Layer::Kernel => "sim.kernel",
            Layer::Stream => "campaign.stream",
        }
    }

    /// The analysis layer of a registered approach name.
    pub fn of_approach(name: &str) -> Option<Layer> {
        match name {
            "proposed" => Some(Layer::Proposed),
            "wp" => Some(Layer::Wp),
            "nps" => Some(Layer::Nps),
            "nps-classic" => Some(Layer::NpsClassic),
            _ => None,
        }
    }

    fn index(self) -> usize {
        Layer::ALL
            .iter()
            .position(|&l| l == self)
            .expect("ALL lists every layer")
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer the span is attributed to.
    pub layer: Layer,
    /// Index of the enclosing span on the same thread, if any.
    pub parent: Option<u32>,
    /// Task set, plan or request id.
    pub item: u64,
    /// Start, nanoseconds since the process epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the process epoch.
    pub end_ns: u64,
}

/// One thread's spans and boundary counters.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Spans in opening order.
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    /// DP search nodes reported by exact-engine solves.
    pub dp_nodes: u64,
    /// Exact-engine solves that fell back to the safe cap.
    pub dp_fallbacks: u64,
    /// Greedy rounds reported by `analyze_task_set`.
    pub rounds: u64,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process epoch.
pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).expect("run shorter than 584 years")
}

/// Turns tracing on for the calling thread with an empty recorder.
pub fn install() {
    epoch();
    RECORDER.with(|r| *r.borrow_mut() = Some(Recorder::default()));
}

/// Turns tracing off for the calling thread and returns what it recorded
/// (empty when tracing was off).
pub fn take() -> Recorder {
    RECORDER.with(|r| r.borrow_mut().take()).unwrap_or_default()
}

/// Runs `f` inside a span of `layer` for `item` when tracing is on for
/// this thread; otherwise just runs `f`.
pub fn span<T>(layer: Layer, item: u64, f: impl FnOnce() -> T) -> T {
    let opened = RECORDER.with(|r| {
        r.borrow_mut().as_mut().map(|rec| {
            let id = u32::try_from(rec.spans.len()).expect("fewer than 4G spans per thread");
            rec.spans.push(Span {
                layer,
                parent: rec.stack.last().copied(),
                item,
                start_ns: now_ns(),
                end_ns: 0,
            });
            rec.stack.push(id);
            id
        })
    });
    let out = f();
    if let Some(id) = opened {
        let end = now_ns();
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[id as usize].end_ns = end;
                rec.stack.pop();
            }
        });
    }
    out
}

/// Updates this thread's boundary counters when tracing is on.
pub fn count(f: impl FnOnce(&mut Recorder)) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            f(rec);
        }
    });
}

/// A [`DelayEngine`] decorator that records a span per
/// `max_total_delay` call. Placed around the shared cache it sees every
/// lookup; placed under it, only misses, which are exact-engine solves.
#[derive(Debug)]
pub struct Timed<E> {
    inner: E,
    layer: Layer,
}

impl<E> Timed<E> {
    /// Wraps `inner`, attributing its calls to `layer`.
    pub fn new(inner: E, layer: Layer) -> Self {
        Timed { inner, layer }
    }
}

impl<E: DelayEngine> DelayEngine for Timed<E> {
    fn max_total_delay(&self, window: &WindowModel) -> Result<DelayBound, CoreError> {
        let out = span(self.layer, 0, || self.inner.max_total_delay(window));
        if self.layer == Layer::Engine {
            if let Ok(bound) = &out {
                count(|rec| {
                    rec.dp_nodes += bound.nodes;
                    rec.dp_fallbacks += u64::from(!bound.exact);
                });
            }
        }
        out
    }
}

/// The engine stack the default [`pmcs_analysis::AnalysisConfig`] builds
/// over a shared cache (`cached(exact)`), with a timer on each side of
/// the cache.
pub type TracedStack = Timed<SharedCachedEngine<Timed<ExactEngine>>>;

/// Builds a [`TracedStack`] over `cache`.
pub fn traced_stack(cache: Arc<SharedDelayCache>) -> TracedStack {
    Timed::new(
        SharedCachedEngine::new(Timed::new(ExactEngine::default(), Layer::Engine), cache),
        Layer::Cache,
    )
}

/// Per-layer totals of a set of recorders.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Spans per layer.
    pub calls: [u64; Layer::ALL.len()],
    /// Inclusive seconds per layer.
    pub incl_s: [f64; Layer::ALL.len()],
    /// Self seconds per layer.
    pub self_s: [f64; Layer::ALL.len()],
    /// Seconds covered by root spans.
    pub root_s: f64,
    /// Every exact-engine solve's duration, milliseconds.
    pub solve_ms: Vec<f64>,
    /// Summed DP search nodes.
    pub dp_nodes: u64,
    /// Summed DP fallbacks.
    pub dp_fallbacks: u64,
    /// Summed greedy rounds.
    pub rounds: u64,
    /// Spans recorded.
    pub spans: usize,
}

impl Profile {
    /// Aggregates `recorders`.
    pub fn of(recorders: &[Recorder]) -> Self {
        let mut p = Profile::default();
        for rec in recorders {
            let mut child_ns = vec![0u64; rec.spans.len()];
            for s in &rec.spans {
                if let Some(parent) = s.parent {
                    child_ns[parent as usize] += s.end_ns - s.start_ns;
                }
            }
            for (s, &children) in rec.spans.iter().zip(&child_ns) {
                let dur = s.end_ns - s.start_ns;
                let i = s.layer.index();
                p.calls[i] += 1;
                p.incl_s[i] += dur as f64 * 1e-9;
                p.self_s[i] += dur.saturating_sub(children) as f64 * 1e-9;
                if s.parent.is_none() {
                    p.root_s += dur as f64 * 1e-9;
                }
                if s.layer == Layer::Engine {
                    p.solve_ms.push(dur as f64 * 1e-6);
                }
            }
            p.dp_nodes += rec.dp_nodes;
            p.dp_fallbacks += rec.dp_fallbacks;
            p.rounds += rec.rounds;
            p.spans += rec.spans.len();
        }
        p
    }

    /// Spans of `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer.index()]
    }

    /// Inclusive seconds of `layer`.
    pub fn incl(&self, layer: Layer) -> f64 {
        self.incl_s[layer.index()]
    }

    /// Self seconds of `layer`.
    pub fn self_time(&self, layer: Layer) -> f64 {
        self.self_s[layer.index()]
    }

    /// Sum of every layer's self time.
    pub fn total_self(&self) -> f64 {
        self.self_s.iter().sum()
    }
}

/// Renders spans as tab-separated lines
/// `thread span parent layer start_ns end_ns item`.
pub fn spans_tsv(recorders: &[Recorder]) -> String {
    let mut out = String::from("thread\tspan\tparent\tlayer\tstart_ns\tend_ns\titem\n");
    for (t, rec) in recorders.iter().enumerate() {
        for (i, s) in rec.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{t}\t{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.item
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ms: u64) {
        let until = Instant::now() + std::time::Duration::from_millis(ms);
        while Instant::now() < until {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn untraced_threads_record_nothing() {
        let v = span(Layer::Session, 1, || 7);
        assert_eq!(v, 7);
        assert!(take().spans.is_empty());
    }

    #[test]
    fn self_times_telescope_to_root_time() {
        install();
        span(Layer::Proposed, 3, || {
            busy(2);
            span(Layer::Schedulability, 3, || {
                span(Layer::Cache, 0, || span(Layer::Engine, 0, || busy(3)));
                busy(1);
            });
        });
        span(Layer::Wp, 3, || busy(1));
        let rec = take();
        assert_eq!(rec.spans.len(), 5);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[4].parent, None);
        let p = Profile::of(&[rec]);
        assert!((p.total_self() - p.root_s).abs() < 1e-6);
        assert!(p.self_time(Layer::Engine) >= 0.003);
        assert!(p.self_time(Layer::Proposed) >= 0.002);
        assert!(p.self_time(Layer::Proposed) < p.incl(Layer::Proposed));
        assert_eq!(p.solve_ms.len(), 1);
        assert!(spans_tsv(&[]).starts_with("thread\t"));
    }
}
