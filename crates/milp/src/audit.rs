//! Exact re-verification of MILP solver results.
//!
//! The branch & bound solver ([`crate::branch`]) computes in `f64`; this
//! module independently re-checks what it reports using exact rational
//! arithmetic ([`crate::rational::Rational`]):
//!
//! * **primal feasibility** of the incumbent — every constraint and bound,
//!   evaluated exactly, must hold within the audit tolerance;
//! * **integrality** of integer/binary variables in the incumbent;
//! * **objective consistency** — the reported objective must equal the
//!   exact objective value at the incumbent;
//! * **bound sandwich** for [`SolveStatus::LimitReached`] — the reported
//!   proven bound must dominate the incumbent objective on the correct
//!   side;
//! * **infeasibility certificates** — when the solver reports
//!   [`crate::MilpError::Infeasible`], a Farkas-style certificate is
//!   searched for (Fourier–Motzkin elimination with multiplier
//!   tracking, after exact integral bound tightening) and then *verified
//!   from scratch* against the original problem.
//!
//! Every check has three possible outcomes ([`CheckStatus`]): `Passed`,
//! `Failed` (the solver's claim is provably wrong), and `Inconclusive`
//! (exact verification was not possible — e.g. `i128` overflow in the
//! rational arithmetic, or an infeasibility that stems from integrality
//! rather than the LP relaxation). Inconclusive is deliberately distinct
//! from failure: the auditor never converts "could not verify" into
//! "wrong".

use std::collections::BTreeMap;

use crate::expr::LinExpr;
use crate::problem::{Cmp, Objective, Problem};
use crate::rational::Rational;
use crate::solution::{MilpSolution, SolveStatus};

/// Audit tolerance, `1 / 10^6` as an exact rational.
///
/// Matches the solver's `f64` tolerances ([`crate::branch::Limits`]):
/// solver incumbents satisfy constraints only to within `~1e-6`, so an
/// exact zero-tolerance check would reject correct solves over harmless
/// last-bit rounding.
pub fn audit_tolerance() -> Rational {
    Rational::new(1, 1_000_000).expect("1/1e6 is representable")
}

/// Outcome of one audit check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckStatus {
    /// The solver's claim was re-verified exactly.
    Passed,
    /// The solver's claim is provably wrong.
    Failed,
    /// Exact verification was not possible (overflow, or a certificate
    /// outside the auditor's reach); the claim is neither confirmed nor
    /// refuted.
    Inconclusive,
}

/// One named audit check with its outcome and a human-readable detail.
#[derive(Debug, Clone)]
pub struct AuditCheck {
    /// Stable check name (e.g. `primal-feasibility`).
    pub name: &'static str,
    /// Outcome.
    pub status: CheckStatus,
    /// Explanation: what was verified, or why it failed / was skipped.
    pub detail: String,
}

/// The full result of auditing one solve.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// All checks performed, in execution order.
    pub checks: Vec<AuditCheck>,
}

impl AuditReport {
    fn new() -> Self {
        AuditReport { checks: Vec::new() }
    }

    fn push(&mut self, name: &'static str, status: CheckStatus, detail: impl Into<String>) {
        self.checks.push(AuditCheck {
            name,
            status,
            detail: detail.into(),
        });
    }

    /// `true` iff every check passed (no failures, no inconclusive ones).
    pub fn certified(&self) -> bool {
        self.checks.iter().all(|c| c.status == CheckStatus::Passed)
    }

    /// `true` iff at least one check failed (the solver result is provably
    /// wrong).
    pub fn failed(&self) -> bool {
        self.checks.iter().any(|c| c.status == CheckStatus::Failed)
    }

    /// Iterator over the checks that did not pass.
    pub fn problems(&self) -> impl Iterator<Item = &AuditCheck> {
        self.checks
            .iter()
            .filter(|c| c.status != CheckStatus::Passed)
    }
}

/// What the audited solve concluded.
#[derive(Debug, Clone)]
pub enum AuditedOutcome {
    /// The solver produced a solution (optimal or limit-reached).
    Solved(MilpSolution),
    /// The solver reported the problem infeasible.
    Infeasible,
}

/// A solver result together with its exact-arithmetic audit.
#[derive(Debug, Clone)]
pub struct AuditedSolve {
    /// The solver's answer.
    pub outcome: AuditedOutcome,
    /// The exact re-verification of that answer.
    pub report: AuditReport,
}

impl AuditedSolve {
    /// The solution, if the solver found one.
    pub fn solution(&self) -> Option<&MilpSolution> {
        match &self.outcome {
            AuditedOutcome::Solved(s) => Some(s),
            AuditedOutcome::Infeasible => None,
        }
    }
}

/// An exactly-checkable certificate that a problem is infeasible.
#[derive(Debug, Clone)]
pub enum InfeasibilityCertificate {
    /// Exact ceiling/floor tightening of an integral variable's bounds
    /// leaves an empty domain.
    EmptyBounds {
        /// Index of the variable with an empty tightened domain.
        var: usize,
    },
    /// Farkas multipliers: a non-negative combination of the rows of the
    /// `≤`-normal form (see [`le_normal_form`]) that sums to the
    /// contradiction `0 ≤ negative`.
    Farkas {
        /// One multiplier per normal-form row, all `≥ 0`.
        multipliers: Vec<Rational>,
    },
}

// ---------------------------------------------------------------------------
// Solution audit
// ---------------------------------------------------------------------------

/// Exactly evaluates `expr` at the rational point `qvals`.
fn eval_expr(expr: &LinExpr, qvals: &[Rational]) -> Option<Rational> {
    let mut acc = Rational::from_f64(expr.constant())?;
    for (v, coeff) in expr.iter() {
        let c = Rational::from_f64(coeff)?;
        acc = acc.checked_add(c.checked_mul(*qvals.get(v.index())?)?)?;
    }
    Some(acc)
}

/// Re-verifies a solver solution in exact arithmetic.
///
/// Prefer [`crate::Solver::solve_audited`], which runs this automatically;
/// call this directly to audit a solution obtained elsewhere.
pub fn audit_solution(problem: &Problem, solution: &MilpSolution) -> AuditReport {
    let mut report = AuditReport::new();
    let tol = audit_tolerance();
    let values = solution.values();

    if values.is_empty() && problem.num_vars() > 0 {
        // Limit hit before any incumbent: only the bound claim exists, and
        // there is no primal point to check it against.
        report.push(
            "incumbent",
            CheckStatus::Inconclusive,
            "no incumbent to verify (limit reached before the first feasible point)",
        );
        return report;
    }
    if values.len() != problem.num_vars() {
        report.push(
            "incumbent",
            CheckStatus::Failed,
            format!(
                "solution has {} values but the problem has {} variables",
                values.len(),
                problem.num_vars()
            ),
        );
        return report;
    }

    let qvals: Option<Vec<Rational>> = values.iter().map(|&v| Rational::from_f64(v)).collect();
    let Some(qvals) = qvals else {
        report.push(
            "primal-feasibility",
            CheckStatus::Inconclusive,
            "a solution value is not exactly representable (non-finite or out of i128 range)",
        );
        return report;
    };

    check_feasibility(problem, &qvals, tol, &mut report);
    check_integrality(problem, &qvals, tol, &mut report);
    check_objective(problem, solution, &qvals, tol, &mut report);
    if let SolveStatus::LimitReached { bound } = solution.status() {
        check_bound_sandwich(problem, solution, bound, tol, &mut report);
    }
    report
}

fn check_feasibility(
    problem: &Problem,
    qvals: &[Rational],
    tol: Rational,
    report: &mut AuditReport,
) {
    let mut violations = Vec::new();
    let mut inconclusive = false;

    for (i, &x) in qvals.iter().enumerate().take(problem.num_vars()) {
        let (lo, hi) = problem.var_bounds(crate::expr::Var(i));
        if lo.is_finite() {
            match Rational::from_f64(lo).and_then(|l| l.checked_sub(tol)) {
                Some(l) if x < l => violations.push(format!(
                    "x{i} ({}) = {} violates lower bound {lo}",
                    problem.var_name(crate::expr::Var(i)),
                    x.to_f64()
                )),
                Some(_) => {}
                None => inconclusive = true,
            }
        }
        if hi.is_finite() {
            match Rational::from_f64(hi).and_then(|h| h.checked_add(tol)) {
                Some(h) if x > h => violations.push(format!(
                    "x{i} ({}) = {} violates upper bound {hi}",
                    problem.var_name(crate::expr::Var(i)),
                    x.to_f64()
                )),
                Some(_) => {}
                None => inconclusive = true,
            }
        }
    }

    for cref in problem.constraints() {
        let Some(lhs) = eval_expr(cref.expr(), qvals) else {
            inconclusive = true;
            continue;
        };
        let Some(rhs) = Rational::from_f64(cref.rhs()) else {
            inconclusive = true;
            continue;
        };
        let Some(diff) = lhs.checked_sub(rhs) else {
            inconclusive = true;
            continue;
        };
        let ok = match cref.cmp() {
            Cmp::Le => diff <= tol,
            Cmp::Ge => -diff <= tol,
            Cmp::Eq => diff.abs() <= tol,
        };
        if !ok {
            violations.push(format!(
                "constraint #{}{} violated: lhs - rhs = {} (~{:e})",
                cref.index(),
                cref.name().map(|n| format!(" [{n}]")).unwrap_or_default(),
                diff,
                diff.to_f64()
            ));
        }
    }

    if !violations.is_empty() {
        report.push(
            "primal-feasibility",
            CheckStatus::Failed,
            violations.join("; "),
        );
    } else if inconclusive {
        report.push(
            "primal-feasibility",
            CheckStatus::Inconclusive,
            "some constraints could not be evaluated exactly (rational overflow)",
        );
    } else {
        report.push(
            "primal-feasibility",
            CheckStatus::Passed,
            format!(
                "{} constraints and {} variable bounds hold exactly within 1e-6",
                problem.num_constraints(),
                problem.num_vars()
            ),
        );
    }
}

fn check_integrality(
    problem: &Problem,
    qvals: &[Rational],
    tol: Rational,
    report: &mut AuditReport,
) {
    let mut violations = Vec::new();
    let mut n = 0usize;
    for v in problem.integral_vars() {
        n += 1;
        let dist = qvals[v.index()].dist_to_nearest_int();
        if dist > tol {
            violations.push(format!(
                "x{} ({}) = {} is {} (~{:e}) away from the nearest integer",
                v.index(),
                problem.var_name(v),
                qvals[v.index()].to_f64(),
                dist,
                dist.to_f64()
            ));
        }
    }
    if !violations.is_empty() {
        report.push("integrality", CheckStatus::Failed, violations.join("; "));
    } else {
        report.push(
            "integrality",
            CheckStatus::Passed,
            format!("{n} integral variables are integer-valued within 1e-6"),
        );
    }
}

fn check_objective(
    problem: &Problem,
    solution: &MilpSolution,
    qvals: &[Rational],
    tol: Rational,
    report: &mut AuditReport,
) {
    let exact = eval_expr(problem.objective(), qvals);
    let reported = Rational::from_f64(solution.objective());
    match (exact, reported) {
        (Some(exact), Some(reported)) => match exact.checked_sub(reported) {
            Some(diff) if diff.abs() <= tol => report.push(
                "objective-consistency",
                CheckStatus::Passed,
                format!(
                    "reported objective matches exact evaluation ({})",
                    exact.to_f64()
                ),
            ),
            Some(diff) => report.push(
                "objective-consistency",
                CheckStatus::Failed,
                format!(
                    "reported objective {} differs from exact evaluation {} by {} (~{:e})",
                    solution.objective(),
                    exact.to_f64(),
                    diff,
                    diff.to_f64()
                ),
            ),
            None => report.push(
                "objective-consistency",
                CheckStatus::Inconclusive,
                "objective comparison overflowed rational arithmetic",
            ),
        },
        _ => report.push(
            "objective-consistency",
            CheckStatus::Inconclusive,
            "objective could not be evaluated exactly (overflow or non-finite value)",
        ),
    }
}

fn check_bound_sandwich(
    problem: &Problem,
    solution: &MilpSolution,
    bound: f64,
    tol: Rational,
    report: &mut AuditReport,
) {
    let (Some(obj), Some(qbound)) = (
        Rational::from_f64(solution.objective()),
        Rational::from_f64(bound),
    ) else {
        report.push(
            "bound-sandwich",
            CheckStatus::Inconclusive,
            "objective or bound is not exactly representable",
        );
        return;
    };
    // The proven bound must dominate the incumbent on the optimizing side:
    // incumbent ≤ bound when maximizing, incumbent ≥ bound when minimizing.
    let ok = match problem.direction() {
        Objective::Maximize => obj.checked_sub(qbound).map(|d| d <= tol),
        Objective::Minimize => qbound.checked_sub(obj).map(|d| d <= tol),
    };
    match ok {
        Some(true) => report.push(
            "bound-sandwich",
            CheckStatus::Passed,
            format!(
                "incumbent {} and proven bound {bound} sandwich the optimum ({:?})",
                solution.objective(),
                problem.direction()
            ),
        ),
        Some(false) => report.push(
            "bound-sandwich",
            CheckStatus::Failed,
            format!(
                "proven bound {bound} does not dominate the incumbent {} when {:?}",
                solution.objective(),
                problem.direction()
            ),
        ),
        None => report.push(
            "bound-sandwich",
            CheckStatus::Inconclusive,
            "bound comparison overflowed rational arithmetic",
        ),
    }
}

// ---------------------------------------------------------------------------
// Infeasibility certificates
// ---------------------------------------------------------------------------

/// One row of the `≤`-normal form: `coeffs · x ≤ rhs` (dense coefficients).
#[derive(Debug, Clone)]
pub struct NormRow {
    /// Dense coefficient vector, one entry per problem variable.
    pub coeffs: Vec<Rational>,
    /// Right-hand side of the `≤` inequality.
    pub rhs: Rational,
}

/// Result of normalization: either the row system, or a variable whose
/// integral bound tightening already contradicts itself.
#[derive(Debug)]
pub enum NormalForm {
    /// The `≤`-row system, in the canonical order documented on
    /// [`le_normal_form`].
    Rows(Vec<NormRow>),
    /// Tightening left a variable with an empty domain; the problem is
    /// infeasible outright and no row system is needed.
    EmptyBounds {
        /// Index of the contradictory variable.
        var: usize,
        /// Human-readable description of the empty domain.
        detail: String,
    },
}

/// Exactly tightened bounds: integral variables get `ceil(lo)` / `floor(hi)`
/// (mirroring the solver's root tightening in [`crate::branch`]).
fn tightened_bounds(
    problem: &Problem,
    var: usize,
) -> Result<(Option<Rational>, Option<Rational>), String> {
    let v = crate::expr::Var(var);
    let (lo, hi) = problem.var_bounds(v);
    let integral = problem.var_kind(v).is_integral();
    let conv = |b: f64, up: bool| -> Result<Option<Rational>, String> {
        if !b.is_finite() {
            return Ok(None);
        }
        let q = Rational::from_f64(b)
            .ok_or_else(|| format!("bound {b} of x{var} is not exactly representable"))?;
        if integral {
            let t = if up { q.floor() } else { q.ceil() };
            Ok(Some(Rational::from_int(t)))
        } else {
            Ok(Some(q))
        }
    };
    Ok((conv(lo, false)?, conv(hi, true)?))
}

/// Builds the `≤`-normal form of `problem` with integral bounds tightened.
///
/// Row order (the order Farkas and bound multipliers refer to): each
/// constraint in problem order (`Le` as is, `Ge` negated, `Eq` split into
/// `≤` then negated-`≥`), then for each variable its finite lower bound as
/// `-x ≤ -lo`, then its finite upper bound as `x ≤ hi`.
///
/// This order is a public contract: branch-and-bound proof trees
/// ([`crate::certify_upper_bound`]) reference rows positionally, and
/// [`crate::verify_bb_tree`] rebuilds the same system from the problem.
///
/// # Errors
///
/// Returns an error when a coefficient, bound, or right-hand side is not
/// exactly representable as a [`Rational`].
pub fn le_normal_form(problem: &Problem) -> Result<NormalForm, String> {
    let n = problem.num_vars();
    let mut rows = Vec::new();

    let rationalize_row = |expr: &LinExpr, rhs: f64, negate: bool| -> Result<NormRow, String> {
        let mut coeffs = vec![Rational::ZERO; n];
        for (v, c) in expr.iter() {
            let q = Rational::from_f64(c)
                .ok_or_else(|| format!("coefficient {c} is not exactly representable"))?;
            coeffs[v.index()] = if negate { -q } else { q };
        }
        let mut q_rhs = Rational::from_f64(rhs)
            .ok_or_else(|| format!("rhs {rhs} is not exactly representable"))?;
        if negate {
            q_rhs = -q_rhs;
        }
        Ok(NormRow { coeffs, rhs: q_rhs })
    };

    for cref in problem.constraints() {
        match cref.cmp() {
            Cmp::Le => rows.push(rationalize_row(cref.expr(), cref.rhs(), false)?),
            Cmp::Ge => rows.push(rationalize_row(cref.expr(), cref.rhs(), true)?),
            Cmp::Eq => {
                rows.push(rationalize_row(cref.expr(), cref.rhs(), false)?);
                rows.push(rationalize_row(cref.expr(), cref.rhs(), true)?);
            }
        }
    }
    for j in 0..n {
        let (lo, hi) = tightened_bounds(problem, j)?;
        if let (Some(l), Some(h)) = (lo, hi) {
            if l > h {
                return Ok(NormalForm::EmptyBounds {
                    var: j,
                    detail: format!(
                        "x{j} ({}) has empty tightened domain [{}, {}]",
                        problem.var_name(crate::expr::Var(j)),
                        l,
                        h
                    ),
                });
            }
        }
        if let Some(l) = lo {
            let mut coeffs = vec![Rational::ZERO; n];
            coeffs[j] = -Rational::ONE;
            rows.push(NormRow { coeffs, rhs: -l });
        }
        if let Some(h) = hi {
            let mut coeffs = vec![Rational::ZERO; n];
            coeffs[j] = Rational::ONE;
            rows.push(NormRow { coeffs, rhs: h });
        }
    }
    Ok(NormalForm::Rows(rows))
}

/// Verifies an infeasibility certificate from scratch against `problem`.
///
/// Independent of the certificate *finder*: a bug there cannot vouch for
/// itself. Returns a human-readable confirmation, or an error describing
/// why the certificate is invalid / unverifiable.
pub fn verify_certificate(
    problem: &Problem,
    certificate: &InfeasibilityCertificate,
) -> Result<String, String> {
    match certificate {
        InfeasibilityCertificate::EmptyBounds { var } => {
            let (lo, hi) = tightened_bounds(problem, *var)?;
            match (lo, hi) {
                (Some(l), Some(h)) if l > h => Ok(format!(
                    "integral tightening leaves x{var} with empty domain [{l}, {h}]"
                )),
                _ => Err(format!("x{var} does not have an empty tightened domain")),
            }
        }
        InfeasibilityCertificate::Farkas { multipliers } => {
            let rows = match le_normal_form(problem)? {
                NormalForm::Rows(rows) => rows,
                NormalForm::EmptyBounds { detail, .. } => {
                    return Err(format!(
                        "normal form degenerates to a bound contradiction ({detail}); \
                         a Farkas certificate is not applicable"
                    ))
                }
            };
            if multipliers.len() != rows.len() {
                return Err(format!(
                    "certificate has {} multipliers for {} rows",
                    multipliers.len(),
                    rows.len()
                ));
            }
            let n = problem.num_vars();
            let mut combo = vec![Rational::ZERO; n];
            let mut rhs = Rational::ZERO;
            for (y, row) in multipliers.iter().zip(&rows) {
                if y.is_negative() {
                    return Err(format!("negative multiplier {y}"));
                }
                if y.is_zero() {
                    continue;
                }
                for (acc, &coeff) in combo.iter_mut().zip(&row.coeffs).take(n) {
                    if !coeff.is_zero() {
                        let term = y
                            .checked_mul(coeff)
                            .ok_or("rational overflow combining rows")?;
                        *acc = acc
                            .checked_add(term)
                            .ok_or("rational overflow combining rows")?;
                    }
                }
                let term = y
                    .checked_mul(row.rhs)
                    .ok_or("rational overflow combining rhs")?;
                rhs = rhs
                    .checked_add(term)
                    .ok_or("rational overflow combining rhs")?;
            }
            if let Some(j) = (0..n).find(|&j| !combo[j].is_zero()) {
                return Err(format!(
                    "combination does not eliminate x{j} (coefficient {})",
                    combo[j]
                ));
            }
            if !rhs.is_negative() {
                return Err(format!("combined rhs {rhs} is not negative"));
            }
            Ok(format!(
                "Farkas combination of {} active rows derives 0 <= {rhs} (contradiction)",
                multipliers.iter().filter(|y| !y.is_zero()).count()
            ))
        }
    }
}

/// A working row during Fourier–Motzkin elimination: the inequality plus
/// the (sparse) multipliers over original normal-form rows that derive it.
#[derive(Debug, Clone)]
struct FmRow {
    coeffs: Vec<Rational>,
    rhs: Rational,
    mults: BTreeMap<usize, Rational>,
}

/// Caps on Fourier–Motzkin growth; beyond them the finder gives up and the
/// audit reports `Inconclusive` rather than running unboundedly.
const FM_MAX_ROWS: usize = 4_096;

/// Searches for an exactly-checkable infeasibility certificate.
///
/// Uses Fourier–Motzkin elimination with multiplier tracking over the
/// `≤`-normal form (after exact integral bound tightening, mirroring the
/// solver's root tightening). Complete for LP infeasibility on problems
/// small enough to stay under `FM_MAX_ROWS`; infeasibility that arises
/// only from integrality (a feasible LP relaxation with no integer point)
/// is out of reach and reported as an error string.
pub fn find_certificate(problem: &Problem) -> Result<InfeasibilityCertificate, String> {
    let rows = match le_normal_form(problem)? {
        NormalForm::EmptyBounds { var, .. } => {
            return Ok(InfeasibilityCertificate::EmptyBounds { var })
        }
        NormalForm::Rows(rows) => rows,
    };
    let n = problem.num_vars();
    let num_rows = rows.len();
    let mut work: Vec<FmRow> = rows
        .into_iter()
        .enumerate()
        .map(|(i, r)| FmRow {
            coeffs: r.coeffs,
            rhs: r.rhs,
            mults: BTreeMap::from([(i, Rational::ONE)]),
        })
        .collect();

    let contradiction = |rows: &[FmRow]| -> Option<usize> {
        rows.iter()
            .position(|r| r.coeffs.iter().all(|c| c.is_zero()) && r.rhs.is_negative())
    };

    for j in 0..n {
        if let Some(i) = contradiction(&work) {
            return Ok(extract_farkas(&work[i], num_rows));
        }
        let mut pos = Vec::new();
        let mut neg = Vec::new();
        let mut keep = Vec::new();
        for r in work {
            if r.coeffs[j].is_positive() {
                pos.push(r);
            } else if r.coeffs[j].is_negative() {
                neg.push(r);
            } else if r.coeffs.iter().any(|c| !c.is_zero()) || r.rhs.is_negative() {
                // Drop trivially true 0 <= nonneg rows; keep the rest.
                keep.push(r);
            }
        }
        if keep.len() + pos.len().saturating_mul(neg.len()) > FM_MAX_ROWS {
            return Err(format!(
                "Fourier-Motzkin row explosion eliminating x{j} \
                 ({} x {} combinations); certificate search abandoned",
                pos.len(),
                neg.len()
            ));
        }
        for p in &pos {
            for q in &neg {
                let combined = combine_rows(p, q, j)
                    .ok_or("rational overflow during Fourier-Motzkin elimination")?;
                if combined.coeffs.iter().all(|c| c.is_zero()) {
                    if combined.rhs.is_negative() {
                        return Ok(extract_farkas(&combined, num_rows));
                    }
                    continue; // trivially true, drop
                }
                keep.push(combined);
            }
        }
        work = keep;
    }

    if let Some(i) = contradiction(&work) {
        return Ok(extract_farkas(&work[i], num_rows));
    }
    Err(
        "the LP relaxation (with integer-tightened bounds) is feasible; \
         infeasibility, if real, stems from integrality and has no LP certificate"
            .to_string(),
    )
}

/// Eliminates `x_j` from `p` (positive coefficient) and `q` (negative):
/// the combination `(-c_q)·p + c_p·q`, scaled by `1/(c_p - c_q)` to slow
/// magnitude growth (any positive scaling preserves validity).
fn combine_rows(p: &FmRow, q: &FmRow, j: usize) -> Option<FmRow> {
    let s = -q.coeffs[j]; // > 0
    let t = p.coeffs[j]; // > 0
    let scale = s.checked_add(t)?;
    let sp = s.checked_div(scale)?;
    let tq = t.checked_div(scale)?;

    let coeffs = p
        .coeffs
        .iter()
        .zip(&q.coeffs)
        .map(|(&pc, &qc)| {
            let a = sp.checked_mul(pc)?;
            let b = tq.checked_mul(qc)?;
            a.checked_add(b)
        })
        .collect::<Option<Vec<_>>>()?;
    let rhs = sp.checked_mul(p.rhs)?.checked_add(tq.checked_mul(q.rhs)?)?;

    let mut mults = p
        .mults
        .iter()
        .map(|(&i, &m)| sp.checked_mul(m).map(|v| (i, v)))
        .collect::<Option<BTreeMap<_, _>>>()?;
    for (&i, &m) in &q.mults {
        let term = tq.checked_mul(m)?;
        let entry = mults.entry(i).or_insert(Rational::ZERO);
        *entry = entry.checked_add(term)?;
    }
    Some(FmRow { coeffs, rhs, mults })
}

fn extract_farkas(row: &FmRow, num_rows: usize) -> InfeasibilityCertificate {
    let mut multipliers = vec![Rational::ZERO; num_rows];
    for (&i, &m) in &row.mults {
        multipliers[i] = m;
    }
    InfeasibilityCertificate::Farkas { multipliers }
}

/// Audits a solver's `Infeasible` verdict: searches for a certificate and
/// verifies it from scratch.
pub fn audit_infeasibility(problem: &Problem) -> AuditReport {
    let mut report = AuditReport::new();
    match find_certificate(problem) {
        Ok(cert) => match verify_certificate(problem, &cert) {
            Ok(detail) => report.push("infeasibility-certificate", CheckStatus::Passed, detail),
            Err(reason) => report.push(
                "infeasibility-certificate",
                CheckStatus::Failed,
                format!("found certificate does not verify: {reason}"),
            ),
        },
        Err(reason) => report.push(
            "infeasibility-certificate",
            CheckStatus::Inconclusive,
            reason,
        ),
    }
    report
}

// ---------------------------------------------------------------------------
// Branch-and-bound certificate trees (VIPR-style)
// ---------------------------------------------------------------------------

/// One node of a branch-and-bound certificate tree.
///
/// Leaves carry self-contained proofs; branch nodes record the exact
/// integral split so the checker can rebuild each node's problem from the
/// root problem alone.
#[derive(Debug, Clone)]
pub enum BbNode {
    /// Integral branching: the subtree `down` has `x_var ≤ floor`, the
    /// subtree `up` has `x_var ≥ floor + 1`. Together they cover every
    /// integral value of `x_var`, so bounds proven on both children hold
    /// for the parent.
    Branch {
        /// Index of the (integral) branching variable.
        var: usize,
        /// The split point (`⌊x_var⌋` at the node's LP vertex).
        floor: i128,
        /// Index of the `x_var ≤ floor` child in [`BbTree::nodes`].
        down: usize,
        /// Index of the `x_var ≥ floor + 1` child in [`BbTree::nodes`].
        up: usize,
    },
    /// LP-dual bound certificate: the multipliers prove that the node's
    /// objective cannot exceed the claimed bound (weak duality, checked by
    /// substitution via [`verify_bound_multipliers`]).
    Bounded {
        /// One non-negative multiplier per `≤`-normal-form row of the
        /// node's problem.
        multipliers: Vec<Rational>,
    },
    /// The node's LP relaxation is infeasible; carries a Farkas or
    /// empty-domain certificate checked by [`verify_certificate`].
    Infeasible {
        /// The infeasibility certificate for the node's problem.
        certificate: InfeasibilityCertificate,
    },
}

/// A branch-and-bound certificate tree; node `0` is the root.
///
/// The tree proves `objective ≤ claimed` for a *maximization* problem:
/// every leaf either bounds its subproblem by the claim or proves it
/// infeasible, and branch nodes partition the integral search space.
#[derive(Debug, Clone, Default)]
pub struct BbTree {
    /// All nodes; internal references index into this vector.
    pub nodes: Vec<BbNode>,
}

/// Upper limit on accepted tree sizes; larger trees are rejected as
/// malformed rather than walked unboundedly.
pub const BB_TREE_MAX_NODES: usize = 1_000_000;

/// Verifies an LP-dual bound certificate by substitution.
///
/// Checks, in exact arithmetic, that `multipliers ≥ 0`, that they
/// recombine the rows of `problem`'s `≤`-normal form into exactly the
/// objective coefficient vector, and that the implied bound
/// `yᵀr + objective-constant` does not exceed `claimed`. Returns the
/// implied bound.
///
/// Independent of any solver: a buggy certificate *finder* cannot make an
/// unsound claim pass here.
///
/// # Errors
///
/// Returns a reason string prefixed with a stable machine-readable code
/// (`bound.*`) when the certificate does not verify.
pub fn verify_bound_multipliers(
    problem: &Problem,
    multipliers: &[Rational],
    claimed: Rational,
) -> Result<Rational, String> {
    if problem.direction() != Objective::Maximize {
        return Err("bound.direction: only maximization problems are supported".to_string());
    }
    let rows = match le_normal_form(problem).map_err(|e| format!("bound.normal-form: {e}"))? {
        NormalForm::Rows(rows) => rows,
        NormalForm::EmptyBounds { detail, .. } => {
            return Err(format!(
                "bound.normal-form: problem is infeasible by bound tightening ({detail}); \
                 expected an infeasibility leaf, not a bound leaf"
            ))
        }
    };
    if multipliers.len() != rows.len() {
        return Err(format!(
            "bound.shape: certificate has {} multipliers for {} rows",
            multipliers.len(),
            rows.len()
        ));
    }
    let n = problem.num_vars();
    let mut combo = vec![Rational::ZERO; n];
    let mut bound = Rational::from_f64(problem.objective().constant())
        .ok_or("bound.overflow: objective constant is not exactly representable")?;
    for (y, row) in multipliers.iter().zip(&rows) {
        if y.is_negative() {
            return Err(format!("bound.negative-multiplier: {y}"));
        }
        if y.is_zero() {
            continue;
        }
        for (acc, &coeff) in combo.iter_mut().zip(&row.coeffs) {
            if !coeff.is_zero() {
                let term = y
                    .checked_mul(coeff)
                    .ok_or("bound.overflow: combining rows")?;
                *acc = acc
                    .checked_add(term)
                    .ok_or("bound.overflow: combining rows")?;
            }
        }
        let term = y
            .checked_mul(row.rhs)
            .ok_or("bound.overflow: combining rhs")?;
        bound = bound
            .checked_add(term)
            .ok_or("bound.overflow: combining rhs")?;
    }
    for (j, acc) in combo.iter().enumerate() {
        let c = Rational::from_f64(problem.objective().coefficient(crate::expr::Var(j)))
            .ok_or("bound.overflow: objective coefficient not representable")?;
        if *acc != c {
            return Err(format!(
                "bound.combination: column {j} recombines to {acc}, objective needs {c}"
            ));
        }
    }
    if bound > claimed {
        return Err(format!(
            "bound.exceeds-claim: certified bound {bound} (~{}) exceeds claimed {claimed}",
            bound.to_f64()
        ));
    }
    Ok(bound)
}

/// Verifies a branch-and-bound certificate tree against `problem`.
///
/// Walks the tree from the root, rebuilding every node's problem by
/// applying the recorded integral splits to a clone of `problem` (via
/// [`Problem::set_var_bounds`]), and re-checks each leaf from scratch:
/// [`verify_bound_multipliers`] for bound leaves, [`verify_certificate`]
/// for infeasibility leaves. Structural defects — dangling child indices,
/// shared or unreachable nodes, branching on non-integral variables — are
/// rejected with stable `bbtree.*` reason codes.
///
/// On success the tree proves `objective(x) ≤ claimed` for every feasible
/// point `x` of `problem` with integral variables integral.
///
/// # Errors
///
/// Returns a reason string prefixed with a stable machine-readable code
/// (`bbtree.*` or a leaf's `bound.*`).
pub fn verify_bb_tree(
    problem: &Problem,
    tree: &BbTree,
    claimed: Rational,
) -> Result<String, String> {
    if tree.nodes.is_empty() {
        return Err("bbtree.empty: certificate tree has no nodes".to_string());
    }
    if tree.nodes.len() > BB_TREE_MAX_NODES {
        return Err(format!(
            "bbtree.malformed: {} nodes exceeds the {} cap",
            tree.nodes.len(),
            BB_TREE_MAX_NODES
        ));
    }
    if problem.direction() != Objective::Maximize {
        return Err("bbtree.direction: only maximization problems are supported".to_string());
    }
    let nvars = problem.num_vars();
    let root_bounds: Vec<(f64, f64)> = (0..nvars)
        .map(|j| problem.var_bounds(crate::expr::Var(j)))
        .collect();

    let mut visited = vec![false; tree.nodes.len()];
    let mut leaves = 0usize;
    let mut stack: Vec<(usize, Vec<(f64, f64)>)> = vec![(0, root_bounds)];
    while let Some((idx, bounds)) = stack.pop() {
        let node = tree
            .nodes
            .get(idx)
            .ok_or_else(|| format!("bbtree.truncated: node index {idx} out of range"))?;
        if visited[idx] {
            return Err(format!(
                "bbtree.malformed: node {idx} is referenced more than once"
            ));
        }
        visited[idx] = true;
        match node {
            BbNode::Branch {
                var,
                floor,
                down,
                up,
            } => {
                if *var >= nvars {
                    return Err(format!(
                        "bbtree.branch-var: node {idx} branches on unknown variable x{var}"
                    ));
                }
                if !problem.var_kind(crate::expr::Var(*var)).is_integral() {
                    return Err(format!(
                        "bbtree.branch-var: node {idx} branches on non-integral variable x{var}"
                    ));
                }
                let split = *floor as f64;
                if split as i128 != *floor {
                    return Err(format!(
                        "bbtree.branch-var: node {idx} split point {floor} is not exactly \
                         representable"
                    ));
                }
                let (lo, hi) = bounds[*var];
                let mut down_bounds = bounds.clone();
                down_bounds[*var] = (lo, hi.min(split));
                let mut up_bounds = bounds;
                up_bounds[*var] = (lo.max(split + 1.0), hi);
                stack.push((*down, down_bounds));
                stack.push((*up, up_bounds));
            }
            BbNode::Bounded { multipliers } => {
                let node_problem = apply_bounds(problem, &bounds);
                verify_bound_multipliers(&node_problem, multipliers, claimed)
                    .map_err(|e| format!("bbtree.leaf: node {idx}: {e}"))?;
                leaves += 1;
            }
            BbNode::Infeasible { certificate } => {
                let node_problem = apply_bounds(problem, &bounds);
                verify_certificate(&node_problem, certificate)
                    .map_err(|e| format!("bbtree.leaf: node {idx}: {e}"))?;
                leaves += 1;
            }
        }
    }
    if let Some(unreachable) = visited.iter().position(|v| !v) {
        return Err(format!(
            "bbtree.malformed: node {unreachable} is unreachable from the root"
        ));
    }
    Ok(format!(
        "branch-and-bound tree with {} nodes ({} leaves) proves objective <= {claimed}",
        tree.nodes.len(),
        leaves
    ))
}

fn apply_bounds(problem: &Problem, bounds: &[(f64, f64)]) -> Problem {
    let mut p = problem.clone();
    for (j, &(lo, hi)) in bounds.iter().enumerate() {
        p.set_var_bounds(crate::expr::Var(j), lo, hi);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SolveStatus, Solver};

    fn doc_example() -> Problem {
        let mut p = Problem::maximize();
        let x = p.continuous("x", 0.0, f64::INFINITY);
        let y = p.integer("y", 0.0, 10.0);
        p.constrain(x + y, Cmp::Le, 4.0);
        p.constrain(x + 3.0 * y, Cmp::Le, 6.0);
        p.set_objective(3.0 * x + 2.0 * y);
        p
    }

    #[test]
    fn optimal_solve_certifies() {
        let p = doc_example();
        let sol = Solver::new().solve(&p).unwrap();
        let report = audit_solution(&p, &sol);
        assert!(report.certified(), "audit should pass: {report:?}");
        assert!(report.checks.iter().any(|c| c.name == "primal-feasibility"));
        assert!(report.checks.iter().any(|c| c.name == "integrality"));
        assert!(report
            .checks
            .iter()
            .any(|c| c.name == "objective-consistency"));
    }

    #[test]
    fn corrupted_values_fail_feasibility() {
        let p = doc_example();
        let mut sol = Solver::new().solve(&p).unwrap();
        sol.values[0] = 100.0; // violates x + y <= 4
        let report = audit_solution(&p, &sol);
        assert!(report.failed());
        let fail = report
            .problems()
            .find(|c| c.status == CheckStatus::Failed)
            .unwrap();
        assert_eq!(fail.name, "primal-feasibility");
    }

    #[test]
    fn corrupted_integrality_detected() {
        let p = doc_example();
        let mut sol = Solver::new().solve(&p).unwrap();
        sol.values[1] = 0.5; // y must be integral
        let report = audit_solution(&p, &sol);
        assert!(report
            .checks
            .iter()
            .any(|c| c.name == "integrality" && c.status == CheckStatus::Failed));
    }

    #[test]
    fn corrupted_objective_detected() {
        let p = doc_example();
        let mut sol = Solver::new().solve(&p).unwrap();
        sol.objective += 1.0;
        let report = audit_solution(&p, &sol);
        assert!(report
            .checks
            .iter()
            .any(|c| c.name == "objective-consistency" && c.status == CheckStatus::Failed));
    }

    #[test]
    fn invalid_bound_sandwich_detected() {
        let p = doc_example();
        let mut sol = Solver::new().solve(&p).unwrap();
        // Claim a "proven bound" below the incumbent while maximizing.
        sol.status = SolveStatus::LimitReached {
            bound: sol.objective - 1.0,
        };
        let report = audit_solution(&p, &sol);
        assert!(report
            .checks
            .iter()
            .any(|c| c.name == "bound-sandwich" && c.status == CheckStatus::Failed));
    }

    #[test]
    fn farkas_certificate_found_and_verified() {
        // x >= 2 and x <= 1: classically infeasible LP.
        let mut p = Problem::maximize();
        let x = p.continuous("x", f64::NEG_INFINITY, f64::INFINITY);
        p.constrain(1.0 * x, Cmp::Ge, 2.0);
        p.constrain(1.0 * x, Cmp::Le, 1.0);
        let cert = find_certificate(&p).expect("certificate must exist");
        assert!(matches!(cert, InfeasibilityCertificate::Farkas { .. }));
        verify_certificate(&p, &cert).expect("certificate must verify");
        let report = audit_infeasibility(&p);
        assert!(report.certified(), "{report:?}");
    }

    #[test]
    fn empty_integer_domain_certified() {
        // Integer variable confined to (0.4, 0.6): ceil(0.4)=1 > floor(0.6)=0.
        let mut p = Problem::maximize();
        let _x = p.integer("x", 0.4, 0.6);
        let cert = find_certificate(&p).expect("certificate must exist");
        assert!(matches!(
            cert,
            InfeasibilityCertificate::EmptyBounds { var: 0 }
        ));
        verify_certificate(&p, &cert).expect("certificate must verify");
    }

    #[test]
    fn integral_infeasibility_is_honestly_inconclusive() {
        // 2x = 1 with x integer: LP relaxation feasible (x = 1/2), so no
        // Farkas certificate exists; the auditor must say so, not guess.
        let mut p = Problem::maximize();
        let x = p.integer("x", 0.0, 10.0);
        p.constrain(2.0 * x, Cmp::Eq, 1.0);
        assert!(find_certificate(&p).is_err());
        let report = audit_infeasibility(&p);
        assert!(!report.failed());
        assert!(report
            .checks
            .iter()
            .any(|c| c.status == CheckStatus::Inconclusive));
    }

    #[test]
    fn tampered_certificate_rejected() {
        let mut p = Problem::maximize();
        let x = p.continuous("x", 0.0, 10.0);
        p.constrain(1.0 * x, Cmp::Ge, 20.0);
        let cert = find_certificate(&p).unwrap();
        if let InfeasibilityCertificate::Farkas { mut multipliers } = cert {
            multipliers[0] = multipliers[0].checked_add(Rational::ONE).unwrap();
            let bad = InfeasibilityCertificate::Farkas { multipliers };
            assert!(verify_certificate(&p, &bad).is_err());
        } else {
            panic!("expected a Farkas certificate");
        }
    }

    #[test]
    fn mixed_system_infeasibility_certified() {
        // x + y <= 1, x >= 1, y >= 1 (via bounds): infeasible through a
        // combination of a constraint row and two bound rows.
        let mut p = Problem::minimize();
        let x = p.continuous("x", 1.0, 10.0);
        let y = p.continuous("y", 1.0, 10.0);
        p.constrain(x + y, Cmp::Le, 1.0);
        let report = audit_infeasibility(&p);
        assert!(report.certified(), "{report:?}");
    }
}
