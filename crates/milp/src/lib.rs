//! # pmcs-milp
//!
//! A self-contained linear-programming and mixed-integer-linear-programming
//! solver, built from scratch for the `pmcs` workspace. It replaces the
//! commercial solver (IBM CPLEX) used by the original paper.
//!
//! The solver is a staged pipeline:
//!
//! 1. **Problem IR** ([`problem`], [`expr`]) — variables, bounds,
//!    constraints, objective.
//! 2. **Presolve** ([`presolve`]) — fixed-variable substitution, bound
//!    tightening, redundant-row elimination and power-of-two
//!    equilibration, each emitting a reversible [`Transform`] so reduced
//!    solutions map back to the original variable space.
//! 3. **LP relaxations** ([`revised`]) — a sparse revised simplex with
//!    explicit basis factorization and warm starts.
//! 4. **Branch & bound** ([`branch`]) — best-first, most-fractional
//!    branching; each child node warm-starts from its parent's basis.
//!
//! Solver effort (LP pivots, presolve reductions, B&B nodes, warm-start
//! hits) is threaded through every stage as [`SolverStats`].
//!
//! ## Correctness keystone
//!
//! [`Solver::solve_audited`] re-verifies answers with exact rational
//! arithmetic against the **original, pre-presolve** problem:
//! [`Solver::solve`] restores reduced solutions through the inverse
//! transform chain *before* any caller (including the audit) sees them.
//! A bug anywhere in presolve, the revised simplex, or the transform
//! inversion therefore surfaces as an audit failure instead of silently
//! shifting the analysis. The audit checks feasibility and the claimed
//! objective, not optimality; optimality is proven independently by
//! [`certify_upper_bound`] + [`verify_bb_tree`] (exact-rational
//! dual/Farkas leaves) or, for pure LPs, [`solve_dual_exact`].
//!
//! On node or iteration limits the solver reports the best *remaining
//! upper bound* which, for the delay-maximization problems of the
//! analysis, is still a **safe** (pessimistic) bound.
//!
//! ## Example
//!
//! ```
//! use pmcs_milp::{Problem, Cmp, Solver};
//!
//! // maximize 3x + 2y  s.t.  x + y <= 4, x + 3y <= 6, 0 <= x,y, y integer
//! let mut p = Problem::maximize();
//! let x = p.continuous("x", 0.0, f64::INFINITY);
//! let y = p.integer("y", 0.0, 10.0);
//! p.constrain(x + y, Cmp::Le, 4.0);
//! p.constrain(x + 3.0 * y, Cmp::Le, 6.0);
//! p.set_objective(3.0 * x + 2.0 * y);
//! let sol = Solver::new().solve(&p)?;
//! assert!((sol.objective() - 12.0).abs() < 1e-6); // x=4, y=0
//! # Ok::<(), pmcs_milp::MilpError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod branch;
pub mod certify;
pub mod error;
pub mod exact;
pub mod expr;
pub mod presolve;
pub mod problem;
pub mod rational;
pub mod revised;
pub mod solution;
pub mod stats;

pub use audit::{
    verify_bb_tree, verify_bound_multipliers, AuditCheck, AuditReport, AuditedOutcome,
    AuditedSolve, BbNode, BbTree, CheckStatus, InfeasibilityCertificate, NormRow, NormalForm,
};
pub use branch::{BranchAndBound, Limits};
pub use certify::{certify_upper_bound, CertifyLimits};
pub use error::MilpError;
pub use exact::{solve_dual_exact, DualOutcome};
pub use expr::{LinExpr, Var};
pub use presolve::{presolve, PresolveOutcome, PresolvedProblem, Transform};
pub use problem::{Cmp, ConstraintRef, Objective, Problem, VarKind};
pub use rational::Rational;
pub use revised::{Basis, BasisStatus, LpOutcome, LpRun, LpSolution, RevisedSimplex, WarmStart};
pub use solution::{MilpSolution, SolveStatus};
pub use stats::SolverStats;

/// Front-door MILP solver with default limits.
///
/// Thin convenience wrapper over [`presolve()`] and [`BranchAndBound`];
/// see the crate-level example.
#[derive(Debug, Clone, Default)]
pub struct Solver {
    limits: Limits,
}

impl Solver {
    /// Creates a solver with default limits.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a solver with explicit limits.
    pub fn with_limits(limits: Limits) -> Self {
        Solver { limits }
    }

    /// Solves the problem to optimality (or to the configured limits).
    ///
    /// The problem is presolved first and the solution restored to
    /// original variable space.
    ///
    /// # Errors
    ///
    /// Returns [`MilpError`] if the problem is infeasible, unbounded, or
    /// numerically intractable. Hitting a node/iteration limit is *not* an
    /// error: the returned solution carries [`SolveStatus::LimitReached`]
    /// together with the best proven bound.
    pub fn solve(&self, problem: &Problem) -> Result<MilpSolution, MilpError> {
        match presolve(problem)? {
            PresolveOutcome::Infeasible(_) => Err(MilpError::Infeasible),
            PresolveOutcome::Reduced(program) => self.solve_program(&program),
        }
    }

    /// Solves an already presolved program (the second half of
    /// [`Solver::solve`]).
    ///
    /// The returned solution is restored to *original* variable space and
    /// its [`SolverStats`] include the program's presolve reductions.
    /// Public so tests can tamper with the transform chain in between and
    /// check that the audit catches the corrupted restoration.
    ///
    /// # Errors
    ///
    /// See [`Solver::solve`].
    pub fn solve_program(&self, program: &PresolvedProblem) -> Result<MilpSolution, MilpError> {
        let mut solution = BranchAndBound::new(self.limits.clone()).solve(program.reduced())?;
        // Empty values with variables left = limit hit before any
        // incumbent; nothing to restore in that case. A reduced problem
        // with no variables (presolve fixed them all) restores to the
        // full original point.
        if !solution.values.is_empty() || program.reduced().num_vars() == 0 {
            solution.values = program.restore(&solution.values);
        }
        solution.stats.merge(program.stats());
        Ok(solution)
    }

    /// Solves the problem and re-verifies the solver's answer with exact
    /// rational arithmetic (see [`audit`]).
    ///
    /// The audit always checks against the problem passed *here* — the
    /// original, pre-presolve formulation. [`Solver::solve`] has already
    /// composed the inverse presolve transforms, so a transform bug fails
    /// the audit rather than passing unnoticed (the correctness keystone
    /// of the staged pipeline). The audit proves feasibility and the
    /// claimed objective, not optimality.
    ///
    /// An `Infeasible` verdict is *not* an error here: the auditor turns
    /// it into an [`AuditedOutcome::Infeasible`] with a checked
    /// infeasibility certificate (or an inconclusive report when no LP
    /// certificate exists).
    ///
    /// # Errors
    ///
    /// Returns [`MilpError`] only for failures the audit layer cannot
    /// re-verify independently (unboundedness, numerical breakdown,
    /// malformed problems).
    pub fn solve_audited(&self, problem: &Problem) -> Result<AuditedSolve, MilpError> {
        match self.solve(problem) {
            Ok(solution) => {
                let report = audit::audit_solution(problem, &solution);
                Ok(AuditedSolve {
                    outcome: AuditedOutcome::Solved(solution),
                    report,
                })
            }
            Err(MilpError::Infeasible) => Ok(AuditedSolve {
                outcome: AuditedOutcome::Infeasible,
                report: audit::audit_infeasibility(problem),
            }),
            Err(e) => Err(e),
        }
    }
}
