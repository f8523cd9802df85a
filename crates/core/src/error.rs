//! Error types for the analysis crate.

use std::error::Error;
use std::fmt;

use pmcs_model::{ModelError, TaskId};

/// Errors produced by the schedulability analyses.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// Underlying model error (unknown task, invalid set, …).
    Model(ModelError),
    /// The fixed-point iteration failed to converge within the iteration
    /// cap without proving a deadline miss (should not happen for sane
    /// task parameters).
    NoConvergence {
        /// Task under analysis.
        task: TaskId,
        /// Iterations performed.
        iterations: usize,
    },
    /// The specialized engine exhausted its node budget and the caller
    /// requested strict (non-approximate) results.
    BudgetExhausted {
        /// Nodes explored before giving up.
        nodes: u64,
    },
    /// The audit layer refuted a bound: the audited MILP reference
    /// disagreed with the engine, its exact-arithmetic re-verification
    /// failed, or the MILP solver itself failed. The bound is provably
    /// wrong (or unchecked) and must not be used as a WCRT bound.
    AuditFailed {
        /// Name of the first audit check that failed.
        check: &'static str,
        /// Explanation produced by the audit layer.
        detail: String,
    },
    /// Certificate emission failed: the recording solve disagreed with the
    /// production engine or exhausted its budget, or the model uses a
    /// construct the certificate format cannot express. Emission failures
    /// never affect the analysis verdict — only whether a proof ships
    /// alongside it.
    Certification {
        /// Explanation.
        detail: String,
    },
    /// An [`AnalysisSession`](crate::AnalysisSession) with a configured
    /// task capacity rejected an admit that would exceed it. The session
    /// state is unchanged.
    SessionCapacity {
        /// The configured capacity.
        capacity: usize,
    },
    /// A time computed from the inputs (e.g. a bus-inflated transfer
    /// time) does not fit in the tick range of
    /// [`Time`](pmcs_model::Time).
    TimeOverflow,
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Model(e) => write!(f, "model error: {e}"),
            CoreError::NoConvergence { task, iterations } => write!(
                f,
                "response-time iteration for {task} did not converge after {iterations} rounds"
            ),
            CoreError::BudgetExhausted { nodes } => {
                write!(f, "search budget exhausted after {nodes} nodes")
            }
            CoreError::AuditFailed { check, detail } => {
                write!(
                    f,
                    "milp audit refuted the solver answer ({check}): {detail}"
                )
            }
            CoreError::Certification { detail } => {
                write!(f, "certificate emission failed: {detail}")
            }
            CoreError::SessionCapacity { capacity } => {
                write!(f, "session is at its task capacity ({capacity})")
            }
            CoreError::TimeOverflow => write!(f, "time arithmetic overflowed the tick range"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for CoreError {
    fn from(e: ModelError) -> Self {
        CoreError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CoreError::from(ModelError::EmptyTaskSet);
        assert!(e.to_string().contains("model error"));
        assert!(Error::source(&e).is_some());

        let e = CoreError::NoConvergence {
            task: TaskId(3),
            iterations: 100,
        };
        assert!(e.to_string().contains("τ3"));
        assert!(Error::source(&e).is_none());

        let e = CoreError::AuditFailed {
            check: "primal-feasibility",
            detail: "constraint #2 violated".to_string(),
        };
        let text = e.to_string();
        assert!(text.contains("refuted") && text.contains("primal-feasibility"));
    }
}
