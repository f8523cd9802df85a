//! Formulation linter: static diagnostics over a [`Problem`].
//!
//! The linter never solves anything — every check is a pure structural
//! pass over the variables, bounds, constraints, and objective. Each
//! finding carries a stable diagnostic code so tests and downstream
//! tooling can address individual rules:
//!
//! | code | severity | finding |
//! |---|---|---|
//! | `A001` | warning | variable used in no constraint and not in the objective |
//! | `A002` | error | contradictory bounds or trivially-infeasible constraint |
//! | `A003` | error | objective can grow without bound through an unconstrained variable |
//! | `A004` | warning | duplicate constraint (identical up to positive scaling) |
//! | `A005` | warning | badly conditioned constraint (big-M coefficient spread) |
//! | `A006` | info | constraint is trivially true and can never bind |
//! | `A007` | warning | big-M far looser than the derivable variable bounds require |
//! | `A008` | info | large group of interchangeable variables (symmetry blowup signature) |
//! | `A009` | warning | variable referenced only by presolve-removable rows |
//! | `A010` | warning | budget-row RHS shrinks across fixed-point rounds ([`lint_sequence`]) |
//!
//! `A001`–`A009` are single-problem checks run by [`lint`]; `A010` is a
//! cross-problem check over the successive formulations of one
//! fixed-point iteration, run by [`lint_sequence`].
//!
//! A *clean* report ([`LintReport::is_clean`]) has no warnings and no
//! errors; `A006`/`A008` findings are informational and do not dirty a
//! report.

use std::collections::HashMap;
use std::fmt;

use pmcs_milp::{Cmp, ConstraintRef, Objective, Problem, Var, VarKind};

/// Coefficient-magnitude spread within one constraint above which `A005`
/// fires. Simplex pivots divide by coefficients; spreads beyond ~1e7
/// erode the `1e-6`-scale feasibility tolerances the solver works with.
pub const BIG_M_SPREAD: f64 = 1e7;

/// Slack factor above which `A007` fires: a big-M on an indicator is
/// *loose* when it exceeds this multiple of the bound derivable from the
/// remaining terms' variable ranges. Anything past ~8× weakens the LP
/// relaxation (fractional indicators get cheap) without buying any
/// correctness.
pub const LOOSE_BIG_M_FACTOR: f64 = 8.0;

/// Minimum number of mutually interchangeable variables before `A008`
/// fires. Smaller symmetric groups are routine; at eight and beyond the
/// unbroken-symmetry branching blowup (up to `8! = 40320` equivalent
/// subtrees) dominates solve time — the signature the paper's `n ≥ 8`
/// runtime cliff shows.
pub const SYMMETRY_GROUP_MIN: usize = 8;

/// Constraint-name prefix identifying per-task budget rows
/// (`C7_{j}`: `η_j` supply in the formulation). `A010` tracks the RHS of
/// these rows across fixed-point rounds.
pub const BUDGET_ROW_PREFIX: &str = "C7";

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Stylistic or informational; the formulation is still correct.
    Info,
    /// Suspicious structure: likely a formulation bug or a numerical
    /// hazard, but not provably wrong.
    Warning,
    /// The formulation is provably broken (infeasible or unbounded).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable identifier of a lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintCode {
    /// `A001`: variable appears in no constraint and not in the objective.
    UnusedVariable,
    /// `A002`: contradictory variable bounds (including integer-empty
    /// ranges) or a constraint no point within the bounds can satisfy.
    InfeasibleBounds,
    /// `A003`: the objective improves without limit along a variable that
    /// no constraint touches and whose improving bound is infinite.
    UnboundedObjective,
    /// `A004`: two constraints are identical up to positive scaling.
    DuplicateConstraint,
    /// `A005`: coefficient magnitudes within one constraint span more
    /// than [`BIG_M_SPREAD`].
    BigMConditioning,
    /// `A006`: the constraint holds for every point within the variable
    /// bounds and can never bind.
    TrivialConstraint,
    /// `A007`: a big-M coefficient on a binary indicator exceeds
    /// [`LOOSE_BIG_M_FACTOR`] times the bound the other terms' variable
    /// ranges make sufficient.
    LooseBigM,
    /// `A008`: at least [`SYMMETRY_GROUP_MIN`] variables are mutually
    /// interchangeable (identical kind, bounds, objective coefficient,
    /// and constraint-coefficient multiset) — the branching-blowup
    /// signature.
    SymmetricVariables,
    /// `A009`: a variable outside the objective is referenced only by
    /// trivially-true constraints, so presolve removes every row that
    /// mentions it and the variable survives with no effect.
    UnreferencedAfterPresolve,
    /// `A010`: a budget row's RHS (`η_j` supply, rows named
    /// [`BUDGET_ROW_PREFIX`]`_{j}`) shrinks between successive
    /// fixed-point rounds; budgets must be non-decreasing in the window
    /// length for the iteration to be monotone.
    BudgetNonMonotonic,
}

/// All lint codes, in code order (useful for documentation dumps).
pub const LINT_CODES: [LintCode; 10] = [
    LintCode::UnusedVariable,
    LintCode::InfeasibleBounds,
    LintCode::UnboundedObjective,
    LintCode::DuplicateConstraint,
    LintCode::BigMConditioning,
    LintCode::TrivialConstraint,
    LintCode::LooseBigM,
    LintCode::SymmetricVariables,
    LintCode::UnreferencedAfterPresolve,
    LintCode::BudgetNonMonotonic,
];

impl LintCode {
    /// The stable textual code (`A001` …).
    pub fn as_str(self) -> &'static str {
        match self {
            LintCode::UnusedVariable => "A001",
            LintCode::InfeasibleBounds => "A002",
            LintCode::UnboundedObjective => "A003",
            LintCode::DuplicateConstraint => "A004",
            LintCode::BigMConditioning => "A005",
            LintCode::TrivialConstraint => "A006",
            LintCode::LooseBigM => "A007",
            LintCode::SymmetricVariables => "A008",
            LintCode::UnreferencedAfterPresolve => "A009",
            LintCode::BudgetNonMonotonic => "A010",
        }
    }

    /// Severity every diagnostic of this code carries.
    pub fn severity(self) -> Severity {
        match self {
            LintCode::UnusedVariable => Severity::Warning,
            LintCode::InfeasibleBounds => Severity::Error,
            LintCode::UnboundedObjective => Severity::Error,
            LintCode::DuplicateConstraint => Severity::Warning,
            LintCode::BigMConditioning => Severity::Warning,
            LintCode::TrivialConstraint => Severity::Info,
            LintCode::LooseBigM => Severity::Warning,
            LintCode::SymmetricVariables => Severity::Info,
            LintCode::UnreferencedAfterPresolve => Severity::Warning,
            LintCode::BudgetNonMonotonic => Severity::Warning,
        }
    }

    /// One-line description of the rule.
    pub fn summary(self) -> &'static str {
        match self {
            LintCode::UnusedVariable => "variable used in no constraint and not in the objective",
            LintCode::InfeasibleBounds => "contradictory bounds or trivially-infeasible constraint",
            LintCode::UnboundedObjective => {
                "objective grows without bound through an unconstrained variable"
            }
            LintCode::DuplicateConstraint => "duplicate constraint",
            LintCode::BigMConditioning => "badly conditioned constraint (big-M spread)",
            LintCode::TrivialConstraint => "constraint is trivially true and never binds",
            LintCode::LooseBigM => "big-M far looser than the derivable variable bounds require",
            LintCode::SymmetricVariables => {
                "large group of interchangeable variables (symmetry blowup signature)"
            }
            LintCode::UnreferencedAfterPresolve => {
                "variable referenced only by presolve-removable rows"
            }
            LintCode::BudgetNonMonotonic => "budget-row RHS shrinks across fixed-point rounds",
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One linter finding.
#[derive(Debug, Clone)]
pub struct LintDiagnostic {
    /// The rule that fired.
    pub code: LintCode,
    /// The offending variable, if the finding is about a variable.
    pub var: Option<Var>,
    /// Index of the offending constraint, if any (see
    /// [`ConstraintRef::index`]).
    pub constraint: Option<usize>,
    /// Human-readable explanation with names and numbers.
    pub message: String,
}

impl LintDiagnostic {
    /// The severity (always [`LintCode::severity`] of the code).
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

impl fmt::Display for LintDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]: {}", self.code, self.severity(), self.message)
    }
}

/// Result of linting one [`Problem`].
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    diagnostics: Vec<LintDiagnostic>,
}

impl LintReport {
    /// All findings, in check order.
    pub fn diagnostics(&self) -> &[LintDiagnostic] {
        &self.diagnostics
    }

    /// `true` iff there are no warnings and no errors (info findings are
    /// tolerated).
    pub fn is_clean(&self) -> bool {
        self.diagnostics
            .iter()
            .all(|d| d.severity() == Severity::Info)
    }

    /// `true` iff at least one finding is an error (the formulation is
    /// provably infeasible or unbounded).
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity() == Severity::Error)
    }

    /// Findings with the given code.
    pub fn with_code(&self, code: LintCode) -> impl Iterator<Item = &LintDiagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    /// Appends every finding of `other` (useful to pool the per-problem
    /// [`lint`] reports with a cross-round [`lint_sequence`] report).
    pub fn merge(&mut self, other: &LintReport) {
        self.diagnostics.extend(other.diagnostics.iter().cloned());
    }

    fn push(
        &mut self,
        code: LintCode,
        var: Option<Var>,
        constraint: Option<usize>,
        message: String,
    ) {
        self.diagnostics.push(LintDiagnostic {
            code,
            var,
            constraint,
            message,
        });
    }
}

/// Runs every single-problem lint rule (`A001`–`A009`) over `problem`.
pub fn lint(problem: &Problem) -> LintReport {
    let mut report = LintReport::default();
    check_unused_variables(problem, &mut report);
    check_bounds(problem, &mut report);
    check_constraint_ranges(problem, &mut report);
    check_unbounded_objective(problem, &mut report);
    check_duplicates(problem, &mut report);
    check_conditioning(problem, &mut report);
    check_loose_big_m(problem, &mut report);
    check_symmetry(problem, &mut report);
    check_unreferenced_after_presolve(problem, &mut report);
    report
}

/// Runs the cross-problem rules (`A010`) over the successive formulations
/// of one fixed-point iteration, in round order.
///
/// The budget rows ([`BUDGET_ROW_PREFIX`]`_{j}`) carry the per-task
/// supply `η_j(t)`, which is non-decreasing in the window length `t`;
/// the fixed point only grows windows between rounds, so a shrinking
/// budget RHS means rounds were passed out of order or the supply curve
/// is wrong — either way the iteration loses its monotonicity argument.
pub fn lint_sequence(problems: &[Problem]) -> LintReport {
    let mut report = LintReport::default();
    let mut prev: HashMap<String, (usize, f64)> = HashMap::new();
    for (round, problem) in problems.iter().enumerate() {
        for c in problem.constraints() {
            let Some(name) = c.name() else {
                continue;
            };
            if !name.starts_with(BUDGET_ROW_PREFIX) {
                continue;
            }
            let rhs = c.rhs();
            if let Some(&(prev_round, prev_rhs)) = prev.get(name) {
                if rhs < prev_rhs {
                    report.push(
                        LintCode::BudgetNonMonotonic,
                        None,
                        Some(c.index()),
                        format!(
                            "budget row {name}: RHS shrank from {prev_rhs} (round \
                             {prev_round}) to {rhs} (round {round}); budgets must be \
                             non-decreasing across fixed-point rounds"
                        ),
                    );
                }
            }
            prev.insert(name.to_string(), (round, rhs));
        }
    }
    report
}

/// `true` if `var` has a non-zero coefficient in any constraint.
fn used_in_constraints(problem: &Problem, var: Var) -> bool {
    problem
        .constraints()
        .any(|c| c.expr().coefficient(var) != 0.0)
}

// --- A001 ---------------------------------------------------------------

fn check_unused_variables(problem: &Problem, report: &mut LintReport) {
    for var in problem.vars() {
        if problem.objective().coefficient(var) == 0.0 && !used_in_constraints(problem, var) {
            report.push(
                LintCode::UnusedVariable,
                Some(var),
                None,
                format!(
                    "variable x{} ({}) appears in no constraint and not in the objective",
                    var.index(),
                    problem.var_name(var)
                ),
            );
        }
    }
}

// --- A002 (variable bounds) ---------------------------------------------

fn check_bounds(problem: &Problem, report: &mut LintReport) {
    for var in problem.vars() {
        let (lo, hi) = problem.var_bounds(var);
        let name = problem.var_name(var);
        let i = var.index();
        if lo > hi {
            report.push(
                LintCode::InfeasibleBounds,
                Some(var),
                None,
                format!("variable x{i} ({name}) has inverted bounds [{lo}, {hi}]"),
            );
        } else if problem.var_kind(var).is_integral() && lo.ceil() > hi.floor() {
            report.push(
                LintCode::InfeasibleBounds,
                Some(var),
                None,
                format!("integer variable x{i} ({name}) has no integer point in [{lo}, {hi}]"),
            );
        }
    }
}

// --- A002 / A006 (constraint achievability) -----------------------------

/// Range `[min, max]` the left-hand side of `c` can take over the variable
/// bounds (interval arithmetic; infinities propagate).
fn lhs_range(problem: &Problem, c: &ConstraintRef<'_>) -> (f64, f64) {
    let mut min = 0.0_f64;
    let mut max = 0.0_f64;
    for (var, coeff) in c.expr().iter() {
        if coeff == 0.0 {
            continue;
        }
        let (lo, hi) = problem.var_bounds(var);
        // Skip over inverted bounds: A002 already fired on the variable
        // and any range statement about this constraint would be vacuous.
        if lo > hi {
            return (f64::NEG_INFINITY, f64::INFINITY);
        }
        let (a, b) = if coeff > 0.0 {
            (coeff * lo, coeff * hi)
        } else {
            (coeff * hi, coeff * lo)
        };
        // `0 * inf` is NaN; a zero endpoint times an infinite bound
        // contributes zero, not NaN.
        min += if a.is_nan() { 0.0 } else { a };
        max += if b.is_nan() { 0.0 } else { b };
    }
    (min, max)
}

fn check_constraint_ranges(problem: &Problem, report: &mut LintReport) {
    for c in problem.constraints() {
        let (min, max) = lhs_range(problem, &c);
        let rhs = c.rhs();
        let label = constraint_label(&c);
        let (infeasible, trivial) = match c.cmp() {
            Cmp::Le => (min > rhs, max <= rhs),
            Cmp::Ge => (max < rhs, min >= rhs),
            Cmp::Eq => (min > rhs || max < rhs, min == rhs && max == rhs),
        };
        if infeasible {
            report.push(
                LintCode::InfeasibleBounds,
                None,
                Some(c.index()),
                format!(
                    "constraint {label} is infeasible over the variable bounds: \
                     lhs range [{min}, {max}] never satisfies {} {rhs}",
                    c.cmp()
                ),
            );
        } else if trivial {
            report.push(
                LintCode::TrivialConstraint,
                None,
                Some(c.index()),
                format!(
                    "constraint {label} is trivially true: lhs range [{min}, {max}] \
                     always satisfies {} {rhs}",
                    c.cmp()
                ),
            );
        }
    }
}

fn constraint_label(c: &ConstraintRef<'_>) -> String {
    match c.name() {
        Some(name) => format!("#{} [{name}]", c.index()),
        None => format!("#{}", c.index()),
    }
}

// --- A003 ---------------------------------------------------------------

fn check_unbounded_objective(problem: &Problem, report: &mut LintReport) {
    for (var, coeff) in problem.objective().iter() {
        if coeff == 0.0 || used_in_constraints(problem, var) {
            continue;
        }
        let (lo, hi) = problem.var_bounds(var);
        let improving = match problem.direction() {
            Objective::Maximize => {
                if coeff > 0.0 {
                    hi == f64::INFINITY
                } else {
                    lo == f64::NEG_INFINITY
                }
            }
            Objective::Minimize => {
                if coeff > 0.0 {
                    lo == f64::NEG_INFINITY
                } else {
                    hi == f64::INFINITY
                }
            }
        };
        if improving {
            report.push(
                LintCode::UnboundedObjective,
                Some(var),
                None,
                format!(
                    "variable x{} ({}) has objective coefficient {coeff}, bounds \
                     [{lo}, {hi}], and no constraint limits it: the objective is unbounded",
                    var.index(),
                    problem.var_name(var)
                ),
            );
        }
    }
}

// --- A004 ---------------------------------------------------------------

/// Canonical constraint shape for duplicate detection: scaled term bit
/// patterns, a comparison tag, and the scaled right-hand side.
type ConstraintKey = (Vec<(usize, u64)>, u8, u64);

/// Canonical form for duplicate detection: terms scaled so the first
/// non-zero coefficient is ±1 with positive sign, `Ge` flipped to `Le`.
/// Coefficients are hashed via their bit patterns after scaling.
fn canonical_key(c: &ConstraintRef<'_>) -> Option<ConstraintKey> {
    let mut terms: Vec<(usize, f64)> = c
        .expr()
        .iter()
        .filter(|&(_, coeff)| coeff != 0.0)
        .map(|(v, coeff)| (v.index(), coeff))
        .collect();
    if terms.is_empty() {
        return None;
    }
    terms.sort_by_key(|&(i, _)| i);
    let lead = terms[0].1;
    let scale = lead.abs();
    let flip = lead < 0.0;
    let mut rhs = c.rhs() / scale;
    let mut cmp = c.cmp();
    if flip {
        rhs = -rhs;
        cmp = match cmp {
            Cmp::Le => Cmp::Ge,
            Cmp::Ge => Cmp::Le,
            Cmp::Eq => Cmp::Eq,
        };
    }
    let sign = if flip { -1.0 } else { 1.0 };
    let packed: Vec<(usize, u64)> = terms
        .into_iter()
        .map(|(i, coeff)| (i, (sign * coeff / scale).to_bits()))
        .collect();
    let cmp_tag = match cmp {
        Cmp::Le => 0u8,
        Cmp::Eq => 1,
        Cmp::Ge => 2,
    };
    Some((packed, cmp_tag, rhs.to_bits()))
}

fn check_duplicates(problem: &Problem, report: &mut LintReport) {
    use std::collections::HashMap;
    let mut seen: HashMap<ConstraintKey, usize> = HashMap::new();
    for c in problem.constraints() {
        let Some(key) = canonical_key(&c) else {
            continue;
        };
        match seen.get(&key) {
            Some(&first) => {
                report.push(
                    LintCode::DuplicateConstraint,
                    None,
                    Some(c.index()),
                    format!(
                        "constraint {} duplicates constraint #{first} \
                         (identical up to positive scaling)",
                        constraint_label(&c)
                    ),
                );
            }
            None => {
                seen.insert(key, c.index());
            }
        }
    }
}

// --- A005 ---------------------------------------------------------------

fn check_conditioning(problem: &Problem, report: &mut LintReport) {
    for c in problem.constraints() {
        let mut min_mag = f64::INFINITY;
        let mut max_mag = 0.0_f64;
        for (_, coeff) in c.expr().iter() {
            if coeff == 0.0 {
                continue;
            }
            min_mag = min_mag.min(coeff.abs());
            max_mag = max_mag.max(coeff.abs());
        }
        if max_mag > 0.0 && max_mag / min_mag > BIG_M_SPREAD {
            report.push(
                LintCode::BigMConditioning,
                None,
                Some(c.index()),
                format!(
                    "constraint {} mixes coefficient magnitudes {min_mag} and {max_mag} \
                     (spread {:.1e} > {BIG_M_SPREAD:.0e}): big-M too large for the \
                     solver's 1e-6 tolerances",
                    constraint_label(&c),
                    max_mag / min_mag
                ),
            );
        }
    }
}

// --- A007 ---------------------------------------------------------------

/// Range `[min, max]` of the lhs of `c` with variable `skip` excluded —
/// the load a big-M on `skip` has to absorb when its indicator flips.
fn rest_range(problem: &Problem, c: &ConstraintRef<'_>, skip: Var) -> (f64, f64) {
    let mut min = 0.0_f64;
    let mut max = 0.0_f64;
    for (var, coeff) in c.expr().iter() {
        if coeff == 0.0 || var == skip {
            continue;
        }
        let (lo, hi) = problem.var_bounds(var);
        if lo > hi {
            return (f64::NEG_INFINITY, f64::INFINITY);
        }
        let (a, b) = if coeff > 0.0 {
            (coeff * lo, coeff * hi)
        } else {
            (coeff * hi, coeff * lo)
        };
        min += if a.is_nan() { 0.0 } else { a };
        max += if b.is_nan() { 0.0 } else { b };
    }
    (min, max)
}

fn check_loose_big_m(problem: &Problem, report: &mut LintReport) {
    for c in problem.constraints() {
        for (var, coeff) in c.expr().iter() {
            if coeff == 0.0 || problem.var_kind(var) != VarKind::Binary {
                continue;
            }
            // Only terms that *relax* the row when the indicator is set:
            // a negative coefficient on a `<=` row or a positive one on a
            // `>=` row. That is the big-M gadget shape.
            let relaxing = match c.cmp() {
                Cmp::Le => coeff < 0.0,
                Cmp::Ge => coeff > 0.0,
                Cmp::Eq => false,
            };
            if !relaxing {
                continue;
            }
            let big_m = coeff.abs();
            let (rest_min, rest_max) = rest_range(problem, &c, var);
            // Smallest M that already deactivates the row over the
            // variable bounds; derivable from the formulation itself.
            let needed = match c.cmp() {
                Cmp::Le => rest_max - c.rhs(),
                Cmp::Ge => c.rhs() - rest_min,
                Cmp::Eq => unreachable!("filtered above"),
            };
            if needed.is_finite() && needed > 0.0 && big_m > LOOSE_BIG_M_FACTOR * needed {
                report.push(
                    LintCode::LooseBigM,
                    Some(var),
                    Some(c.index()),
                    format!(
                        "constraint {}: big-M {big_m} on indicator x{} ({}) is \
                         {:.1}x the {needed} the variable bounds make sufficient \
                         (> {LOOSE_BIG_M_FACTOR}x): tighten M to strengthen the \
                         LP relaxation",
                        constraint_label(&c),
                        var.index(),
                        problem.var_name(var),
                        big_m / needed
                    ),
                );
            }
        }
    }
}

// --- A008 ---------------------------------------------------------------

/// Column fingerprint for symmetry detection: two variables with equal
/// fingerprints can be swapped without changing the feasible set or the
/// objective (the multiset of constraint coefficients ignores *which*
/// rows they appear in, so this over-approximates true interchangeability
/// slightly — acceptable for an informational finding).
type ColumnFingerprint = (u8, u64, u64, u64, Vec<u64>);

fn column_fingerprint(problem: &Problem, var: Var) -> ColumnFingerprint {
    let kind = match problem.var_kind(var) {
        VarKind::Continuous => 0u8,
        VarKind::Integer => 1,
        VarKind::Binary => 2,
    };
    let (lo, hi) = problem.var_bounds(var);
    let mut coeffs: Vec<u64> = problem
        .constraints()
        .map(|c| c.expr().coefficient(var))
        .filter(|&coeff| coeff != 0.0)
        .map(f64::to_bits)
        .collect();
    coeffs.sort_unstable();
    (
        kind,
        lo.to_bits(),
        hi.to_bits(),
        problem.objective().coefficient(var).to_bits(),
        coeffs,
    )
}

fn check_symmetry(problem: &Problem, report: &mut LintReport) {
    let mut groups: Vec<(ColumnFingerprint, Vec<Var>)> = Vec::new();
    for var in problem.vars() {
        let fp = column_fingerprint(problem, var);
        match groups.iter_mut().find(|(g, _)| *g == fp) {
            Some((_, members)) => members.push(var),
            None => groups.push((fp, vec![var])),
        }
    }
    for (_, members) in groups {
        if members.len() < SYMMETRY_GROUP_MIN {
            continue;
        }
        let first = members[0];
        let last = members[members.len() - 1];
        report.push(
            LintCode::SymmetricVariables,
            Some(first),
            None,
            format!(
                "{} interchangeable variables (x{} {} … x{} {}): unbroken symmetry \
                 multiplies the search tree by up to {}!; add lexicographic ordering \
                 cuts or aggregate the group",
                members.len(),
                first.index(),
                problem.var_name(first),
                last.index(),
                problem.var_name(last),
                members.len(),
            ),
        );
    }
}

// --- A009 ---------------------------------------------------------------

/// `true` iff `c` holds for every point within the variable bounds (the
/// same test `A006` uses).
fn is_trivially_true(problem: &Problem, c: &ConstraintRef<'_>) -> bool {
    let (min, max) = lhs_range(problem, c);
    let rhs = c.rhs();
    match c.cmp() {
        Cmp::Le => max <= rhs,
        Cmp::Ge => min >= rhs,
        Cmp::Eq => min == rhs && max == rhs,
    }
}

fn check_unreferenced_after_presolve(problem: &Problem, report: &mut LintReport) {
    let trivial: Vec<bool> = problem
        .constraints()
        .map(|c| is_trivially_true(problem, &c))
        .collect();
    for var in problem.vars() {
        if problem.objective().coefficient(var) != 0.0 {
            continue;
        }
        let mut referenced = 0usize;
        let mut surviving = 0usize;
        for c in problem.constraints() {
            if c.expr().coefficient(var) == 0.0 {
                continue;
            }
            referenced += 1;
            if !trivial[c.index()] {
                surviving += 1;
            }
        }
        // `referenced == 0` is A001's territory; A009 is the subtler
        // case where the variable *looks* used but presolve deletes
        // every row that mentions it.
        if referenced > 0 && surviving == 0 {
            report.push(
                LintCode::UnreferencedAfterPresolve,
                Some(var),
                None,
                format!(
                    "variable x{} ({}) appears only in {referenced} trivially-true \
                     constraint(s): presolve removes every row that mentions it, \
                     leaving it with no effect",
                    var.index(),
                    problem.var_name(var)
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_problem_yields_clean_report() {
        let mut p = Problem::maximize();
        let x = p.continuous("x", 0.0, 10.0);
        let y = p.integer("y", 0.0, 5.0);
        p.constrain(x + y, Cmp::Le, 8.0);
        p.set_objective(x + 2.0 * y);
        let r = lint(&p);
        assert!(r.is_clean(), "unexpected findings: {:?}", r.diagnostics());
        assert!(!r.has_errors());
    }

    #[test]
    fn a001_unused_variable() {
        let mut p = Problem::maximize();
        let x = p.continuous("x", 0.0, 1.0);
        let dead = p.continuous("dead", 0.0, 1.0);
        p.constrain(x, Cmp::Le, 1.0);
        p.set_objective(x);
        let r = lint(&p);
        let hits: Vec<_> = r.with_code(LintCode::UnusedVariable).collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].var, Some(dead));
        assert_eq!(hits[0].severity(), Severity::Warning);
        assert!(hits[0].message.contains("dead"));
    }

    #[test]
    fn a002_inverted_bounds() {
        let mut p = Problem::minimize();
        let x = p.continuous("x", 2.0, 1.0);
        p.set_objective(x);
        let r = lint(&p);
        assert!(r.has_errors());
        assert!(r
            .with_code(LintCode::InfeasibleBounds)
            .any(|d| d.var == Some(x)));
    }

    #[test]
    fn a002_integer_empty_range() {
        let mut p = Problem::minimize();
        let x = p.integer("x", 0.2, 0.8);
        p.constrain(x, Cmp::Ge, 0.0);
        p.set_objective(x);
        let r = lint(&p);
        assert!(r
            .with_code(LintCode::InfeasibleBounds)
            .any(|d| d.message.contains("no integer point")));
        // A continuous variable with the same bounds is fine.
        let mut q = Problem::minimize();
        let y = q.continuous("y", 0.2, 0.8);
        q.constrain(y, Cmp::Ge, 0.0);
        q.set_objective(y);
        assert!(lint(&q).is_clean());
    }

    #[test]
    fn a002_unachievable_constraint() {
        let mut p = Problem::maximize();
        let x = p.continuous("x", 0.0, 1.0);
        let y = p.continuous("y", 0.0, 1.0);
        p.constrain_named(Some("impossible"), x + y, Cmp::Ge, 3.0);
        p.set_objective(x);
        let r = lint(&p);
        let hits: Vec<_> = r.with_code(LintCode::InfeasibleBounds).collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].constraint, Some(0));
        assert!(hits[0].message.contains("impossible"));
    }

    #[test]
    fn a003_unbounded_objective() {
        let mut p = Problem::maximize();
        let x = p.continuous("x", 0.0, f64::INFINITY);
        p.set_objective(x);
        let r = lint(&p);
        assert!(r.has_errors());
        assert!(r
            .with_code(LintCode::UnboundedObjective)
            .any(|d| d.var == Some(x)));
        // Bounded above: fine for maximization.
        let mut q = Problem::maximize();
        let y = q.continuous("y", 0.0, 5.0);
        q.set_objective(y);
        assert!(!lint(&q).has_errors());
        // Same structure but minimizing: lower bound 0 protects it.
        let mut m = Problem::minimize();
        let z = m.continuous("z", 0.0, f64::INFINITY);
        m.set_objective(z);
        assert!(!lint(&m).has_errors());
    }

    #[test]
    fn a004_duplicate_constraints() {
        let mut p = Problem::maximize();
        let x = p.continuous("x", 0.0, 10.0);
        let y = p.continuous("y", 0.0, 10.0);
        p.constrain(x + y, Cmp::Le, 4.0);
        p.constrain(2.0 * x + 2.0 * y, Cmp::Le, 8.0); // scaled duplicate
        p.constrain(-1.0 * x + -1.0 * y, Cmp::Ge, -4.0); // negated duplicate
        p.constrain(x + 2.0 * y, Cmp::Le, 4.0); // genuinely different
        p.set_objective(x + y);
        let r = lint(&p);
        let hits: Vec<_> = r.with_code(LintCode::DuplicateConstraint).collect();
        assert_eq!(hits.len(), 2, "findings: {:?}", r.diagnostics());
        assert!(hits.iter().all(|d| d.message.contains("#0")));
    }

    #[test]
    fn a005_big_m_spread() {
        let mut p = Problem::maximize();
        let x = p.continuous("x", 0.0, 1.0);
        let b = p.binary("gate");
        p.constrain(x + -1e9 * b, Cmp::Le, 0.0);
        p.set_objective(x);
        let r = lint(&p);
        let hits: Vec<_> = r.with_code(LintCode::BigMConditioning).collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].constraint, Some(0));
        assert_eq!(hits[0].severity(), Severity::Warning);
    }

    #[test]
    fn a006_trivially_true_constraint() {
        let mut p = Problem::maximize();
        let x = p.continuous("x", 0.0, 2.0);
        p.constrain(x, Cmp::Le, 100.0); // can never bind
        p.set_objective(x);
        let r = lint(&p);
        let hits: Vec<_> = r.with_code(LintCode::TrivialConstraint).collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].severity(), Severity::Info);
        assert!(r.is_clean(), "info findings must not dirty the report");
    }

    #[test]
    fn a007_loose_big_m() {
        // Rest of lhs is x in [0, 1] against rhs 0: M = 1 suffices, 1e5
        // is 1e5x looser. The spread (1e5) stays below BIG_M_SPREAD so
        // A005 does not co-fire — the rules are independent.
        let mut p = Problem::maximize();
        let x = p.continuous("x", 0.0, 1.0);
        let gate = p.binary("gate");
        p.constrain(x + -1e5 * gate, Cmp::Le, 0.0);
        p.set_objective(x);
        let r = lint(&p);
        let hits: Vec<_> = r.with_code(LintCode::LooseBigM).collect();
        assert_eq!(hits.len(), 1, "findings: {:?}", r.diagnostics());
        assert_eq!(hits[0].var, Some(gate));
        assert_eq!(hits[0].constraint, Some(0));
        assert_eq!(hits[0].severity(), Severity::Warning);
        assert!(r.with_code(LintCode::BigMConditioning).next().is_none());
    }

    #[test]
    fn a007_tight_big_m_is_clean() {
        // M = 1 exactly covers x in [0, 1]: the canonical tight gadget.
        let mut p = Problem::maximize();
        let x = p.continuous("x", 0.0, 1.0);
        let gate = p.binary("gate");
        p.constrain(x + -1.0 * gate, Cmp::Le, 0.0);
        p.set_objective(x + gate);
        let r = lint(&p);
        assert!(r.with_code(LintCode::LooseBigM).next().is_none());
        // A >= row with a relaxing positive indicator coefficient also
        // fires when loose.
        let mut q = Problem::minimize();
        let y = q.continuous("y", 0.0, 4.0);
        let g = q.binary("g");
        q.constrain(y + 1e4 * g, Cmp::Ge, 2.0);
        q.set_objective(y + g);
        assert_eq!(lint(&q).with_code(LintCode::LooseBigM).count(), 1);
    }

    #[test]
    fn a008_symmetric_group() {
        let mut p = Problem::maximize();
        let mut obj = pmcs_milp::LinExpr::default();
        let mut sum = pmcs_milp::LinExpr::default();
        for i in 0..SYMMETRY_GROUP_MIN {
            let b = p.binary(format!("slot{i}"));
            obj += 1.0 * b;
            sum += 1.0 * b;
        }
        p.constrain(sum, Cmp::Le, 3.0);
        p.set_objective(obj);
        let r = lint(&p);
        let hits: Vec<_> = r.with_code(LintCode::SymmetricVariables).collect();
        assert_eq!(hits.len(), 1, "findings: {:?}", r.diagnostics());
        assert_eq!(hits[0].severity(), Severity::Info);
        assert!(hits[0].message.contains("8 interchangeable"));
        assert!(r.is_clean(), "info findings must not dirty the report");
    }

    #[test]
    fn a008_below_threshold_or_asymmetric_is_clean() {
        // Seven identical binaries: one short of the threshold.
        let mut p = Problem::maximize();
        let mut obj = pmcs_milp::LinExpr::default();
        let mut sum = pmcs_milp::LinExpr::default();
        for i in 0..SYMMETRY_GROUP_MIN - 1 {
            let b = p.binary(format!("slot{i}"));
            obj += 1.0 * b;
            sum += 1.0 * b;
        }
        p.constrain(sum, Cmp::Le, 3.0);
        p.set_objective(obj);
        assert!(lint(&p)
            .with_code(LintCode::SymmetricVariables)
            .next()
            .is_none());
        // Eight binaries with distinct objective weights: not a group.
        let mut q = Problem::maximize();
        let mut qobj = pmcs_milp::LinExpr::default();
        let mut qsum = pmcs_milp::LinExpr::default();
        for i in 0..SYMMETRY_GROUP_MIN {
            let b = q.binary(format!("slot{i}"));
            qobj += (i as f64 + 1.0) * b;
            qsum += 1.0 * b;
        }
        q.constrain(qsum, Cmp::Le, 3.0);
        q.set_objective(qobj);
        assert!(lint(&q)
            .with_code(LintCode::SymmetricVariables)
            .next()
            .is_none());
    }

    #[test]
    fn a009_ghost_in_trivial_constraint() {
        let mut p = Problem::maximize();
        let x = p.continuous("x", 0.0, 1.0);
        let ghost = p.continuous("ghost", 0.0, 1.0);
        p.constrain(x, Cmp::Le, 1.0); // also trivial, but x is in the objective
        p.constrain(ghost, Cmp::Le, 50.0); // only row mentioning ghost; never binds
        p.set_objective(x);
        let r = lint(&p);
        let hits: Vec<_> = r.with_code(LintCode::UnreferencedAfterPresolve).collect();
        assert_eq!(hits.len(), 1, "findings: {:?}", r.diagnostics());
        assert_eq!(hits[0].var, Some(ghost));
        assert_eq!(hits[0].severity(), Severity::Warning);
        // A001 must stay silent: the variable *is* referenced.
        assert!(!r
            .with_code(LintCode::UnusedVariable)
            .any(|d| d.var == Some(ghost)));
    }

    #[test]
    fn a009_silent_when_a_row_survives() {
        let mut p = Problem::maximize();
        let x = p.continuous("x", 0.0, 1.0);
        let y = p.continuous("y", 0.0, 1.0);
        p.constrain(y, Cmp::Le, 50.0); // trivial
        p.constrain(x + y, Cmp::Le, 1.0); // binds: y survives presolve
        p.set_objective(x);
        assert!(lint(&p)
            .with_code(LintCode::UnreferencedAfterPresolve)
            .next()
            .is_none());
    }

    #[test]
    fn a010_budget_rhs_shrinks() {
        let build = |budget: f64| {
            let mut p = Problem::maximize();
            let x = p.continuous("x", 0.0, 10.0);
            p.constrain_named(Some("C7_0"), 1.0 * x, Cmp::Le, budget);
            p.set_objective(x);
            p
        };
        // Non-decreasing rounds: clean.
        let ok = [build(3.0), build(3.0), build(5.0)];
        assert!(lint_sequence(&ok)
            .with_code(LintCode::BudgetNonMonotonic)
            .next()
            .is_none());
        // Round 2 shrinks the budget: fires once, naming both rounds.
        let bad = [build(5.0), build(3.0)];
        let r = lint_sequence(&bad);
        let hits: Vec<_> = r.with_code(LintCode::BudgetNonMonotonic).collect();
        assert_eq!(hits.len(), 1, "findings: {:?}", r.diagnostics());
        assert_eq!(hits[0].severity(), Severity::Warning);
        assert!(hits[0].message.contains("C7_0"));
        assert!(hits[0].message.contains("round 0") && hits[0].message.contains("round 1"));
    }

    #[test]
    fn a010_ignores_non_budget_rows() {
        let build = |rhs: f64| {
            let mut p = Problem::maximize();
            let x = p.continuous("x", 0.0, 10.0);
            p.constrain_named(Some("C3_0"), 1.0 * x, Cmp::Le, rhs);
            p.constrain(1.0 * x, Cmp::Le, rhs); // unnamed
            p.set_objective(x);
            p
        };
        let rounds = [build(5.0), build(2.0)];
        assert!(lint_sequence(&rounds)
            .with_code(LintCode::BudgetNonMonotonic)
            .next()
            .is_none());
    }

    #[test]
    fn report_merge_pools_findings() {
        let mut p = Problem::maximize();
        let _ = p.continuous("orphan", 0.0, 1.0);
        let mut merged = lint(&p);
        let before = merged.diagnostics().len();
        merged.merge(&lint(&p));
        assert_eq!(merged.diagnostics().len(), 2 * before);
    }

    #[test]
    fn codes_are_stable_and_documented() {
        let strs: Vec<_> = LINT_CODES.iter().map(|c| c.as_str()).collect();
        assert_eq!(
            strs,
            ["A001", "A002", "A003", "A004", "A005", "A006", "A007", "A008", "A009", "A010"]
        );
        for code in LINT_CODES {
            assert!(!code.summary().is_empty());
        }
    }

    #[test]
    fn diagnostic_display_carries_code_and_severity() {
        let mut p = Problem::maximize();
        let _ = p.continuous("orphan", 0.0, 1.0);
        let r = lint(&p);
        let text = r.diagnostics()[0].to_string();
        assert!(text.contains("A001") && text.contains("warning"), "{text}");
    }
}
