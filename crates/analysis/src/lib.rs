//! Unified analysis facade for the PMCS co-scheduling analyses.
//!
//! Every schedulability approach the paper evaluates — the proposed
//! MILP-plus-greedy-marking protocol, the Wasly–Pellizzoni baseline and
//! the two NPS variants — hides behind one [`Analyzer`] trait returning
//! one [`ApproachReport`] shape. A dynamic [`Registry`] replaces the old
//! fixed-arity `[bool; 4]` dispatch, and the delay-engine configuration
//! (cache, audit, solver limits, worker count) lives in one typed
//! [`AnalysisConfig`] resolved exactly once at the CLI edge.
//!
//! ```text
//!          CLI flags + env (PMCS_JOBS, PMCS_AUDIT)
//!                        │  AnalysisConfig::resolve  (CLI edge, once)
//!                        ▼
//!                 AnalysisConfig ──────────┐
//!                        │                 │
//!        EngineStack::build (per worker)   │
//!                        ▼                 ▼
//! SharedCachedEngine ▸ AuditedEngine ▸ ExactEngine  Registry::standard()
//!                        │                 │
//!                        └── AnalysisContext ── Analyzer::analyze_with
//!                                          │
//!                                          ▼
//!                                   ApproachReport
//! ```
//!
//! # Example
//!
//! ```
//! use pmcs_analysis::{AnalysisConfig, Analyzer, Registry};
//! use pmcs_core::window::test_task;
//! use pmcs_model::TaskSet;
//!
//! let set = TaskSet::new(vec![
//!     test_task(0, 10, 2, 2, 1_000, 0, false),
//!     test_task(1, 20, 4, 4, 2_000, 1, false),
//! ]).unwrap();
//!
//! let cfg = AnalysisConfig::default();
//! for analyzer in Registry::standard().iter() {
//!     let report = analyzer.analyze(&set, &cfg).unwrap();
//!     println!("{}: {}", analyzer.name(), report.schedulable());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analyzer;
pub mod approaches;
pub mod config;
pub mod cross_validate;
pub mod engine_stack;
pub mod error;
pub mod multicore;
pub mod registry;
pub mod report;

pub use analyzer::{AnalysisContext, Analyzer};
pub use approaches::{NpsAnalyzer, ProposedAnalyzer, WpAnalyzer, WpMilpAnalyzer};
pub use config::{
    AnalysisConfig, CliOverrides, AUDIT_ENV_VAR, CROSS_VALIDATE_ENV_VAR, EMIT_CERTS_ENV_VAR,
    JOBS_ENV_VAR,
};
pub use cross_validate::{
    cross_validate, cross_validate_bounds, cross_validate_bounds_in, cross_validate_report,
    cross_validate_report_in, plan_horizon, Refutation, RefutationKind, SimCounters, SimScratch,
};
pub use engine_stack::{AuditedEngine, EngineStack, StackEngine};
pub use error::AnalysisError;
pub use multicore::{
    cross_validate_platform, extract_transfers, extract_transfers_into, refute_bus_bounds,
    ContentionAware, CoreValidation, PlatformValidation,
};
pub use registry::Registry;
pub use report::{ApproachReport, TaskReport};
