//! The per-layer metrics of a traced run, emitted under the same names
//! on every workload (zero where a workload never enters a layer).

use crate::report::Report;
use crate::stats::{median, tail};
use crate::trace::{Layer, Profile};

/// What a traced run measured besides its span profile.
#[derive(Debug, Default)]
pub struct Layers {
    /// Aggregated spans.
    pub profile: Profile,
    /// Evictions counted by the shared window cache.
    pub cache_evictions: u64,
    /// Session operations committed.
    pub session_ops: u64,
    /// Verdicts a session reused.
    pub verdicts_reused: u64,
    /// Verdicts a session computed fresh.
    pub verdicts_fresh: u64,
    /// Per-request socket latency minus in-process service time, µs.
    pub wait_us: Vec<f64>,
    /// Jobs whose responses the streaming kernel folded.
    pub sim_jobs: u64,
    /// Streaming runs that reused a warm workspace.
    pub ws_reused: u64,
    /// Worst lateness of the paced generator, ms.
    pub lag_ms_max: f64,
    /// Traced wall time over untraced wall time of the same work, minus one.
    pub overhead_frac: f64,
    /// Worker-thread seconds of the traced pass.
    pub wall_s: f64,
}

fn rate(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

impl Layers {
    /// Traced worker seconds outside every root span.
    pub fn unattributed_s(&self) -> f64 {
        self.wall_s - self.profile.root_s
    }

    /// Adds every per-layer metric to `r`, plus a check that the layer
    /// self times and the unattributed time add up to the traced wall
    /// time.
    pub fn emit(&self, r: &mut Report) {
        let p = &self.profile;
        let lookups = p.calls(Layer::Cache);
        let solves = p.calls(Layer::Engine);
        let solve_tail = tail(&p.solve_ms);
        r.metric("workload.generate_s", p.incl(Layer::Generate), "s");
        r.metric("workload.plan_calls", p.calls(Layer::Plan) as f64, "count");
        r.metric("workload.plan_s", p.incl(Layer::Plan), "s");
        let analysis_calls: u64 = [Layer::Proposed, Layer::Wp, Layer::Nps, Layer::NpsClassic]
            .iter()
            .map(|&l| p.calls(l))
            .sum();
        r.metric("analysis.calls", analysis_calls as f64, "count");
        r.metric("analysis.proposed_s", p.incl(Layer::Proposed), "s");
        r.metric("analysis.wp_s", p.incl(Layer::Wp), "s");
        r.metric("analysis.nps_s", p.incl(Layer::Nps), "s");
        r.metric("analysis.nps-classic_s", p.incl(Layer::NpsClassic), "s");
        r.metric(
            "core.schedulability.self_s",
            p.self_time(Layer::Schedulability),
            "s",
        );
        r.metric("core.schedulability.rounds", p.rounds as f64, "count");
        r.metric("core.engine.solves", solves as f64, "count");
        r.metric("core.engine.s", p.incl(Layer::Engine), "s");
        r.metric("core.engine.solve_ms_p50", median(&p.solve_ms), "ms");
        r.metric("core.engine.solve_ms_tail", solve_tail.value, "ms");
        r.tail_detail("core.engine.solve_ms_tail", solve_tail, "ms");
        r.metric("core.engine.dp_nodes", p.dp_nodes as f64, "count");
        r.metric("core.engine.dp_fallbacks", p.dp_fallbacks as f64, "count");
        r.metric("core.cache.lookups", lookups as f64, "count");
        r.metric(
            "core.cache.hit_rate",
            rate(lookups.saturating_sub(solves), lookups),
            "ratio",
        );
        r.metric("core.cache.evictions", self.cache_evictions as f64, "count");
        r.metric("core.cache.self_s", p.self_time(Layer::Cache), "s");
        r.metric("core.session.ops", self.session_ops as f64, "count");
        r.metric("core.session.s", p.incl(Layer::Session), "s");
        r.metric(
            "core.session.reuse_rate",
            rate(
                self.verdicts_reused,
                self.verdicts_reused + self.verdicts_fresh,
            ),
            "ratio",
        );
        r.metric("serve.proto.decode_s", p.incl(Layer::Decode), "s");
        r.metric("serve.proto.encode_s", p.incl(Layer::Encode), "s");
        let wait_tail = tail(&self.wait_us);
        r.metric("serve.server.wait_us_p50", median(&self.wait_us), "us");
        r.metric("serve.server.wait_us_tail", wait_tail.value, "us");
        r.tail_detail("serve.server.wait_us_tail", wait_tail, "us");
        r.metric("sim.kernel.runs", p.calls(Layer::Kernel) as f64, "count");
        r.metric("sim.kernel.s", p.incl(Layer::Kernel), "s");
        r.metric("sim.kernel.jobs", self.sim_jobs as f64, "count");
        r.metric("sim.kernel.ws_reused", self.ws_reused as f64, "count");
        r.metric("campaign.fold_s", p.self_time(Layer::Stream), "s");
        r.metric("loadgen.lag_ms_max", self.lag_ms_max, "ms");
        r.metric("trace.overhead_frac", self.overhead_frac, "ratio");
        r.metric("unattributed_s", self.unattributed_s(), "s");

        r.detail("trace.wall_s", self.wall_s, "s");
        r.detail("trace.spans", p.spans as f64, "count");
        for layer in Layer::ALL {
            r.note(format!(
                "layer {} calls={} self_s={:.6} incl_s={:.6}",
                layer.name(),
                p.calls(layer),
                p.self_time(layer),
                p.incl(layer)
            ));
        }
        let attributed = p.total_self() + self.unattributed_s();
        r.check(
            "layer_times_sum_to_wall",
            self.wall_s > 0.0 && (attributed - self.wall_s).abs() <= 0.03 * self.wall_s,
        );
        r.check(
            "unattributed_nonnegative",
            self.unattributed_s() >= -0.01 * self.wall_s,
        );
    }
}
