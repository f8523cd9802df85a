//! `pmcs-cert` — independent checker for proof-carrying WCRT analysis.
//!
//! The analysis crates emit, alongside every verdict, a machine-checkable
//! certificate: window-level delay bounds ship a concrete placement
//! witness plus an upper-bound proof (an exact DP value table, or a
//! closed-form safe cap for inexact bounds), task-level WCRT values ship
//! the monotone fixed-point trace, and set-level verdicts ship the greedy
//! LS-marking transcript. This crate re-checks all of it **without
//! depending on any other workspace crate**: windows are rebuilt from the
//! task set via this crate's own η and Theorem 1 implementation, DP
//! tables are re-validated state by state against the Bellman recurrence
//! in `i128`, and safe caps are recomputed from the window.
//!
//! The trusted boundary is the semantics of the interval model itself;
//! everything downstream of it is re-derived.
//!
//! Entry points:
//! - [`check_certificate_set`] — check a full bundle, returning a
//!   [`CheckReport`] whose [`Rejection`]s carry stable machine-readable
//!   codes (`dp.bellman-mismatch`, `wcrt.unproven-window`, …).
//! - [`encode_certificate_set`] / [`decode_certificate_set`] — the JSON
//!   wire format (integers only; no lossy floating-point literals).
//! - [`corrupt`] — deterministic tampering helpers for negative tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod hash;

pub mod check;
pub mod corrupt;
pub mod dp;
pub mod json;
pub mod types;
pub mod window;

pub use check::{check_certificate_set, CheckReport, Rejection, MAX_WCRT_STEPS};
pub use json::{decode_certificate_set, encode_certificate_set};
pub use types::{
    CertArrival, CertCase, CertChoice, CertRound, CertRoundEntry, CertTask, CertTaskSet,
    CertWcrtStep, CertWindow, CertWindowTask, CertificateSet, DelayCertificate, DpEntry,
    SchedCertificate, UpperProof, WcrtCertificate, CERT_FORMAT_VERSION,
};
pub use window::{build_window, eta, ls_case_b};
