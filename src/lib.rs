//! # pmcs — Predictable Memory-CPU Co-Scheduling
//!
//! A complete, from-scratch reproduction of
//! *"Predictable Memory-CPU Co-Scheduling with Support for
//! Latency-Sensitive Tasks"* (Casini, Pazzaglia, Biondi, Di Natale,
//! Buttazzo — **DAC 2020**), packaged as a workspace of focused crates
//! and re-exported here as one facade:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`model`] | `pmcs-model` | time, tasks, arrival curves, task sets |
//! | [`milp`] | `pmcs-milp` | from-scratch LP/MILP solver (CPLEX substitute) |
//! | [`core`] | `pmcs-core` | the protocol (R1–R6), exact DP delay engine, WCRT fixed point, greedy LS marking |
//! | [`baselines`] | `pmcs-baselines` | non-preemptive scheduling (NPS) and Wasly-Pellizzoni (WP) analyses |
//! | [`analysis`] | `pmcs-analysis` | unified facade: `Analyzer` trait, approach registry, engine stack, typed config, audit-only MILP formulation |
//! | [`sim`] | `pmcs-sim` | discrete-event simulator + trace validators + Gantt |
//! | [`workload`] | `pmcs-workload` | Section VII task-set generators |
//! | [`cert`] | `pmcs-cert` | proof-carrying analysis: certificate formats + independent `i128` checker |
//! | [`audit`] | `pmcs-audit` | exact MILP audits, formulation lints, R1–R6 conformance |
//! | [`serve`] | `pmcs-serve` | schedulability-as-a-service: NDJSON/TCP daemon, replay auditing |
//!
//! ## Quickstart
//!
//! ```
//! use pmcs::prelude::*;
//!
//! // Generate a Section-VII-style task set and analyze it under all
//! // three approaches.
//! let mut gen = TaskSetGenerator::new(TaskSetConfig {
//!     n: 4,
//!     utilization: 0.45,
//!     gamma: 0.3,
//!     beta: 0.4,
//!     ..TaskSetConfig::default()
//! }, 42);
//! let set = gen.generate();
//!
//! let proposed = analyze_task_set(&set, &ExactEngine::default())?;
//! let wp = WpAnalysis::default().is_schedulable(&set);
//! let nps = NpsAnalysis::default().is_schedulable(&set);
//! println!("proposed: {} | wp: {wp} | nps: {nps}", proposed.schedulable());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub use pmcs_analysis as analysis;
pub use pmcs_audit as audit;
pub use pmcs_baselines as baselines;
pub use pmcs_cert as cert;
pub use pmcs_core as core;
pub use pmcs_milp as milp;
pub use pmcs_model as model;
pub use pmcs_serve as serve;
pub use pmcs_sim as sim;
pub use pmcs_workload as workload;

/// One-stop imports for applications.
pub mod prelude {
    pub use pmcs_analysis::{
        AnalysisConfig, AnalysisContext, AnalysisError, Analyzer, ApproachReport, MilpEngine,
        Registry,
    };
    pub use pmcs_audit::{lint, LintCode, LintReport};
    pub use pmcs_baselines::{NpsAnalysis, WpAnalysis};
    pub use pmcs_core::{
        analyze_task_set, chain_latency, exhaustive_ls_assignment, partition, ChainActivation,
        CoreError, DelayEngine, ExactEngine, Heuristic, SchedulabilityReport, TaskChain,
        WcrtAnalyzer,
    };
    pub use pmcs_model::prelude::*;
    pub use pmcs_sim::{
        check_conformance, render_gantt, simulate, trace_stats, validate_trace, Policy,
        ReleasePlan, RuleTag,
    };
    pub use pmcs_workload::{random_sporadic_plan, TaskSetConfig, TaskSetGenerator};
}
