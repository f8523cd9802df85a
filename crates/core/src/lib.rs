//! # pmcs-core
//!
//! The primary contribution of *"Predictable Memory-CPU Co-Scheduling with
//! Support for Latency-Sensitive Tasks"* (Casini, Pazzaglia, Biondi,
//! Di Natale, Buttazzo — DAC 2020):
//!
//! * the **co-scheduling protocol** with reduced priority-inversion
//!   blocking for latency-sensitive (LS) tasks — rules R1–R6 ([`protocol`]);
//! * its **worst-case response-time analysis**, which maximizes the delay
//!   an adversarial-but-protocol-legal schedule can inflict on a task.
//!   The optimization is solved exactly by a **memoized DP** over
//!   interval assignments ([`engine`], [`ExactEngine`]); the paper's
//!   Section V MILP lives in `pmcs-analysis` as an audit-only oracle, so
//!   this crate links no MILP solver;
//! * the **fixed-point WCRT iteration** (Section VI) ([`wcrt`]);
//! * the **greedy LS-marking algorithm** that promotes deadline-missing
//!   tasks to latency-sensitive ([`schedulability`]).
//!
//! ## Quickstart
//!
//! ```
//! use pmcs_model::prelude::*;
//! use pmcs_core::{analyze_task_set, ExactEngine};
//!
//! let mk = |id: u32, c: i64, t: i64, p: u32| {
//!     Task::builder(TaskId(id))
//!         .exec(Time::from_ticks(c))
//!         .copy_in(Time::from_ticks(c / 5))
//!         .copy_out(Time::from_ticks(c / 5))
//!         .sporadic(Time::from_ticks(t))
//!         .deadline(Time::from_ticks(t))
//!         .priority(Priority(p))
//!         .build()
//!         .unwrap()
//! };
//! let set = TaskSet::new(vec![mk(0, 10, 100, 0), mk(1, 20, 200, 1)])?;
//! let report = analyze_task_set(&set, &ExactEngine::default())?;
//! assert!(report.schedulable());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod certify;
pub mod chains;
pub mod contention;
pub mod engine;
pub mod error;
pub mod ls_search;
pub mod partitioning;
pub mod protocol;
pub mod schedulability;
pub mod session;
pub mod wcrt;
pub mod window;

pub use cache::{CacheStats, SharedCachedEngine, SharedDelayCache, WindowKey};
pub use certify::{certify_task_set, certify_window_dp};
pub use chains::{chain_latency, ChainActivation, TaskChain};
pub use contention::Inflation;
pub use engine::{DpStats, ExactEngine};
pub use error::CoreError;
pub use ls_search::{exhaustive_ls_assignment, ExhaustiveResult};
pub use partitioning::{
    analyze_platform, assign_budgets, partition, partition_regulated, BudgetAttempt, BudgetSearch,
    Heuristic, PartitionError, Partitioning,
};
pub use protocol::{ProtocolRule, RULES};
pub use schedulability::{
    analyze_task_set, analyze_task_set_traced, GreedyTrace, LsAssignment, RoundEntry,
    SchedulabilityReport, TaskVerdict,
};
pub use session::{AnalysisSession, SessionStats};
pub use wcrt::{DelayEngine, TaskAnalysis, TaskTrace, TraceStep, WcrtAnalyzer};
pub use window::{WindowCase, WindowModel, WindowTask};
