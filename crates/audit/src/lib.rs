//! # pmcs-audit
//!
//! Static analysis and certification tooling for the `pmcs` workspace —
//! three independent passes that cross-check the analysis pipeline
//! without trusting any single component:
//!
//! 1. **Exact MILP certificate checking** (re-exported from
//!    [`pmcs_milp::audit`]): every floating-point solver answer is
//!    re-verified with `i128` rational arithmetic — primal feasibility,
//!    integrality, the bound sandwich for limit-reached solves, and
//!    Farkas-style infeasibility certificates.
//! 2. **Formulation linting** ([`lint()`], [`lint_sequence`]): structural
//!    diagnostics (`A001`–`A010`) over [`pmcs_milp::Problem`] instances —
//!    unused variables, contradictory bounds, unbounded objectives,
//!    duplicate constraints, big-M conditioning and looseness hazards,
//!    symmetric variable groups, presolve-ghost variables, and
//!    budget-row monotonicity across fixed-point rounds.
//! 3. **Protocol conformance analysis** (re-exported from
//!    [`pmcs_sim::conformance`]): rule-addressable R1–R6 checks over
//!    simulator traces, cross-referenced with
//!    [`pmcs_core::protocol::RULES`].
//!
//! The `pmcs-audit` binary drives all three:
//!
//! ```text
//! cargo run -p pmcs-audit -- trace   # simulate + conformance-check + corruption demo
//! cargo run -p pmcs-audit -- milp    # solve_audited over generated WCRT windows
//! cargo run -p pmcs-audit -- lint    # lint generated formulations + a demo problem
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod lint;

pub use lint::{
    lint, lint_sequence, LintCode, LintDiagnostic, LintReport, Severity, BIG_M_SPREAD,
    BUDGET_ROW_PREFIX, LINT_CODES, LOOSE_BIG_M_FACTOR, SYMMETRY_GROUP_MIN,
};

// One-stop re-exports: the other two analysis passes live next to the
// data they check, but `pmcs_audit::…` exposes the whole toolbox.
pub use pmcs_milp::{
    AuditCheck, AuditReport, AuditedOutcome, AuditedSolve, CheckStatus, InfeasibilityCertificate,
};
pub use pmcs_sim::{check_conformance, ConformanceReport, RuleDiagnostic, RuleTag};
