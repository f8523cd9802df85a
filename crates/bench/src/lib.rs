//! # pmcs-bench
//!
//! Experiment harness regenerating the evaluation of Section VII:
//!
//! * [`experiment`] — the one `(point, set)` driver behind every
//!   experiment, and the schedulability-ratio sweeps over
//!   utilization `U`, memory-intensity `γ` and deadline-tightness `β`,
//!   comparing whatever approaches a [`pmcs_analysis::Registry`] holds (by
//!   default the proposed protocol, the Wasly-Pellizzoni baseline, and
//!   the two non-preemptive variants);
//! * [`figures`] — the concrete configurations of Figure 2 insets
//!   (a)–(f), the ablation study and the Figure 1 scenario;
//! * [`multicore`] — the cores × budgets × heuristics sweep;
//! * [`campaign`] — streaming Monte-Carlo falsification campaigns;
//! * [`report`] — CSV output and ASCII line charts for terminal viewing.
//!
//! Binaries:
//!
//! * `fig1` — regenerates the Figure 1 example schedules (WP miss,
//!   NPS meet, plus the proposed protocol rescuing the task);
//! * `fig2 <a..f>` — regenerates one inset of Figure 2;
//! * `runtime_table` — the analysis-runtime measurements reported in
//!   prose in Section VII;
//! * `ablation` — splits the proposed approach's gain over WP into
//!   analysis tightening and latency-sensitive support;
//! * `multicore` — schedulability under shared-bus bandwidth regulation
//!   per partitioning heuristic;
//! * `campaign` — Monte-Carlo falsification campaigns that check every
//!   simulated job response against the analytical WCRT bounds.
//!
//! All binaries resolve their execution knobs through
//! [`pmcs_analysis::AnalysisConfig::resolve`] at the CLI edge — `--jobs N`
//! beats the `PMCS_JOBS` environment variable beats the machine default,
//! and likewise for `PMCS_AUDIT` — then write a machine-readable
//! `BENCH_<bin>.json` perf record ([`perf`]); results are byte-identical
//! for every thread count. With `--emit-certs` every analyzed set is
//! certified in the pass that analyses it ([`certs`]), and every binary
//! ends through [`finish_run`], which exits nonzero on a rejected
//! certificate or a refuted bound.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod certs;
pub mod experiment;
pub mod figures;
pub mod multicore;
pub mod parallel;
pub mod perf;
pub mod report;

pub use campaign::{
    bin_of, run_campaign, CampaignConfig, CampaignOutcome, MeasuredRow, PolicyHist, BINS,
};
pub use certs::{certify_set, CertSummary};
pub use experiment::{
    evaluate_set_with_reports, sweep, sweep_cold, sweep_with, SetOutcome, SweepOutcome, SweepPoint,
    SweepRow,
};
pub use figures::{ablation_points, ablation_registry, fig1_task_set, fig2_inset, Fig2Inset};
pub use multicore::{sweep_multicore, MulticoreConfig, MulticoreOutcome};
pub use parallel::{parallel_map, parallel_map_with};
pub use perf::{finish_run, PerfPoint, PerfRecord};
pub use report::{ascii_chart, csv_string, write_csv};
