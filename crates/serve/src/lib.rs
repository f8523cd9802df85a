//! # pmcs-serve
//!
//! Schedulability-as-a-service: a dependency-free NDJSON-over-TCP daemon
//! wrapping [`pmcs_core::AnalysisSession`]. Clients `admit`, `remove`,
//! `update` and `query` tasks over a plain socket; each connection holds
//! its own incremental sessions while every session in the process shares
//! one sharded [`pmcs_core::SharedDelayCache`], so a window bound solved
//! for one client is a cache hit for all of them. A stateless `partition`
//! op packs a posted task set onto `M` cores — optionally under
//! shared-bus bandwidth regulation with contention-aware admission, or
//! with a server-side search over uniform per-core budgets.
//!
//! Three layers, each usable on its own:
//!
//! * [`proto`] — the wire codec: request/response JSON in the certificate
//!   dialect, stable machine-readable error codes ([`ERROR_CODES`]),
//!   request batching via JSON arrays;
//! * [`server`] — the listener/worker-pool daemon ([`spawn`]); protocol
//!   errors never drop a connection, a `shutdown` op drains it cleanly;
//! * [`replay`] — verification: [`replay_log`] re-derives every response
//!   of a recorded `{"req":…,"resp":…}` log from scratch with the batch
//!   analyzer and refutes any that differs (exposed as
//!   `pmcs-audit serve-replay`).
//!
//! The `pmcs-serve listen` binary runs the daemon; load is measured from
//! outside the process, by perfbench's `admission` workload.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod proto;
pub mod replay;
pub mod server;

pub use proto::{decode_request, encode_request, Request, WireError, ERROR_CODES};
pub use replay::{replay_log, ReplayOutcome};
pub use server::{spawn, Server, ServerConfig};
