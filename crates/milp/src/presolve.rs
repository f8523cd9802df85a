//! Presolve: problem reductions with reversible transforms.
//!
//! The staged pipeline runs a small fixpoint of classical reductions
//! before handing a problem to branch & bound:
//!
//! 1. **Fixed-variable substitution** — variables with `lower == upper`
//!    are removed and their contribution folded into each row's RHS.
//! 2. **Bound tightening** — integral bounds snap to `⌈lower⌉`/`⌊upper⌋`
//!    and singleton rows convert to variable bounds.
//! 3. **Redundant-row elimination** — rows implied by the variable
//!    bounds (activity interval inside the RHS) are dropped, and rows
//!    whose activity interval excludes the RHS prove infeasibility.
//! 4. **Equilibration scaling** — each surviving row is scaled by a
//!    power of two toward unit magnitude. Powers of two are exact in
//!    binary floating point, so scaling changes no solution bits.
//!
//! Every reduction emits a [`Transform`], and [`PresolvedProblem::restore`]
//! composes their inverses to map a reduced-space solution back to the
//! *original* variable space. That inversion is the correctness keystone
//! of the pipeline: `solve_audited` keeps auditing against the original
//! (pre-presolve) problem, so a bug anywhere in the transform chain shows
//! up as an audit failure rather than silently shifting the analysis
//! (pinned by the corrupted-transform negative test).
//!
//! Rows named in `mutable_rows` — the budget rows the incremental window
//! formulation re-targets each fixed-point round — are exempt from
//! dropping and from bound extraction; only their RHS bookkeeping
//! ([`PresolvedProblem::update_rhs`]) is maintained, so the reduced
//! structure stays valid across RHS mutations.

use crate::error::MilpError;
use crate::expr::{LinExpr, Var};
use crate::problem::{Cmp, Problem, VarKind};
use crate::stats::SolverStats;

/// Presolve feasibility / integrality tolerance.
const TOL: f64 = 1e-9;

/// Fixpoint rounds before presolve gives up on further reductions.
const MAX_ROUNDS: usize = 8;

/// One reversible presolve reduction.
#[derive(Debug, Clone, PartialEq)]
pub enum Transform {
    /// Variable `var` (original index) was fixed at `value` and removed.
    FixVar {
        /// Original variable index.
        var: usize,
        /// The pinned value, substituted into every row.
        value: f64,
    },
    /// Row `row` (original index) was dropped as redundant or absorbed
    /// into a variable bound.
    DropRow {
        /// Original row index.
        row: usize,
    },
    /// Row `row` was scaled by `factor` (a power of two, hence exact).
    ScaleRow {
        /// Original row index.
        row: usize,
        /// The exact power-of-two scale factor applied to both sides.
        factor: f64,
    },
    /// Bounds of variable `var` were tightened to `[lower, upper]`.
    TightenBound {
        /// Original variable index.
        var: usize,
        /// New lower bound.
        lower: f64,
        /// New upper bound.
        upper: f64,
    },
}

/// Result of a presolve run.
#[derive(Debug, Clone)]
pub enum PresolveOutcome {
    /// The reduced problem plus the transform chain to invert it
    /// (boxed: the presolve bookkeeping dwarfs the infeasibility string).
    Reduced(Box<PresolvedProblem>),
    /// Presolve proved the problem infeasible (with a human-readable
    /// reason); no reduced problem exists.
    Infeasible(String),
}

/// A presolved problem: the reduced form, the transform chain, and the
/// bookkeeping needed to mutate budget-row RHS values in place.
#[derive(Debug, Clone)]
pub struct PresolvedProblem {
    original_vars: usize,
    reduced: Problem,
    transforms: Vec<Transform>,
    /// Original variable index → reduced column (None = fixed away).
    var_map: Vec<Option<usize>>,
    /// Original row index → reduced row (None = dropped).
    row_map: Vec<Option<usize>>,
    /// Fixed-variable contribution subtracted from each original row's
    /// RHS (`reduced_rhs = (original_rhs − shift) · scale`).
    row_shift: Vec<f64>,
    /// Power-of-two equilibration factor per original row.
    row_scale: Vec<f64>,
    stats: SolverStats,
}

impl PresolvedProblem {
    /// The reduced problem branch & bound actually solves.
    pub fn reduced(&self) -> &Problem {
        &self.reduced
    }

    /// Number of variables of the original problem.
    pub fn original_vars(&self) -> usize {
        self.original_vars
    }

    /// Presolve reduction counters (vars fixed, rows removed, bounds
    /// tightened).
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// The recorded transform chain, in application order.
    pub fn transforms(&self) -> &[Transform] {
        &self.transforms
    }

    /// Mutable access to the transform chain.
    ///
    /// Exists for fault injection in tests: corrupting a transform must
    /// corrupt [`restore`](Self::restore) and therefore fail the
    /// exact-rational audit of the original problem.
    pub fn transforms_mut(&mut self) -> &mut Vec<Transform> {
        &mut self.transforms
    }

    /// Maps a reduced-space solution vector back to the original
    /// variable space by inverting the transform chain (surviving
    /// variables copy through `var_map`, fixed variables replay their
    /// [`Transform::FixVar`] values).
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` is shorter than the reduced problem's
    /// variable count.
    pub fn restore(&self, values: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.original_vars];
        for (orig, mapped) in self.var_map.iter().enumerate() {
            if let Some(r) = *mapped {
                out[orig] = values[r];
            }
        }
        for t in &self.transforms {
            if let Transform::FixVar { var, value } = *t {
                out[var] = value;
            }
        }
        out
    }

    /// Re-targets the RHS of an original row in the reduced problem,
    /// replaying the fixed-variable shift and equilibration scale so the
    /// reduced row stays equivalent to `original_row cmp new_rhs`.
    ///
    /// This is the incremental-formulation hook: budget rows passed as
    /// `mutable_rows` to [`presolve`] are never dropped, so this always
    /// succeeds for them.
    ///
    /// # Errors
    ///
    /// Returns [`MilpError::InvalidProblem`] if the row was eliminated
    /// by presolve (possible only for rows *not* marked mutable).
    pub fn update_rhs(&mut self, orig_row: usize, new_rhs: f64) -> Result<(), MilpError> {
        let Some(Some(r)) = self.row_map.get(orig_row).copied() else {
            return Err(MilpError::InvalidProblem(format!(
                "row {orig_row} is not present in the reduced problem"
            )));
        };
        self.reduced.constraints[r].rhs =
            (new_rhs - self.row_shift[orig_row]) * self.row_scale[orig_row];
        Ok(())
    }
}

/// Runs the presolve fixpoint on `problem`.
///
/// `mutable_rows` lists original row indices whose RHS will be mutated
/// later via [`PresolvedProblem::update_rhs`]; those rows are kept
/// verbatim (modulo fixed-variable substitution and scaling).
///
/// # Errors
///
/// Returns [`MilpError::InvalidProblem`] if the problem fails
/// [`Problem::validate`] or a mutable row index is out of range. A
/// problem *proved infeasible* is not an error: it is reported as
/// [`PresolveOutcome::Infeasible`].
pub fn presolve(problem: &Problem, mutable_rows: &[usize]) -> Result<PresolveOutcome, MilpError> {
    problem.validate()?;
    let nvars = problem.num_vars();
    let nrows = problem.num_constraints();
    for &r in mutable_rows {
        if r >= nrows {
            return Err(MilpError::InvalidProblem(format!(
                "mutable row {r} out of range ({nrows} rows)"
            )));
        }
    }
    let mut mutable = vec![false; nrows];
    for &r in mutable_rows {
        mutable[r] = true;
    }

    let mut lower: Vec<f64> = Vec::with_capacity(nvars);
    let mut upper: Vec<f64> = Vec::with_capacity(nvars);
    let mut kind: Vec<VarKind> = Vec::with_capacity(nvars);
    for v in problem.vars() {
        let (lo, hi) = problem.var_bounds(v);
        lower.push(lo);
        upper.push(hi);
        kind.push(problem.var_kind(v));
    }
    let mut fixed: Vec<Option<f64>> = vec![None; nvars];
    let mut alive = vec![true; nrows];
    let mut transforms = Vec::new();
    let mut stats = SolverStats::default();

    for _round in 0..MAX_ROUNDS {
        let mut changed = false;

        // --- Pass 1: integral snapping + fixed-variable substitution ----
        for i in 0..nvars {
            if fixed[i].is_some() {
                continue;
            }
            if kind[i].is_integral() {
                let nl = (lower[i] - TOL).ceil();
                let nu = (upper[i] + TOL).floor();
                if nl > lower[i] || nu < upper[i] {
                    if nl > nu + TOL {
                        return Ok(PresolveOutcome::Infeasible(format!(
                            "integral variable x{i} has empty snapped range [{nl}, {nu}]"
                        )));
                    }
                    lower[i] = lower[i].max(nl);
                    upper[i] = upper[i].min(nu);
                    transforms.push(Transform::TightenBound {
                        var: i,
                        lower: lower[i],
                        upper: upper[i],
                    });
                    stats.presolve_bounds_tightened += 1;
                    changed = true;
                }
            }
            if lower[i] == upper[i] {
                let mut value = lower[i];
                if kind[i].is_integral() {
                    if (value - value.round()).abs() > TOL {
                        return Ok(PresolveOutcome::Infeasible(format!(
                            "integral variable x{i} pinned at fractional value {value}"
                        )));
                    }
                    value = value.round();
                }
                fixed[i] = Some(value);
                transforms.push(Transform::FixVar { var: i, value });
                stats.presolve_vars_fixed += 1;
                changed = true;
            }
        }

        // --- Pass 2: singleton rows (skip mutable) -----------------------
        for (k, c) in problem.constraints().enumerate() {
            if !alive[k] || mutable[k] {
                continue;
            }
            let mut rhs_eff = c.rhs();
            let mut single: Option<(usize, f64)> = None;
            let mut unfixed = 0usize;
            for (v, coeff) in c.expr().iter() {
                match fixed[v.index()] {
                    Some(value) => rhs_eff -= coeff * value,
                    None => {
                        unfixed += 1;
                        single = Some((v.index(), coeff));
                    }
                }
            }
            match (unfixed, single) {
                (0, _) => {
                    // Constant row: either trivially true (drop) or a proof
                    // of infeasibility.
                    let ok = match c.cmp() {
                        Cmp::Le => 0.0 <= rhs_eff + TOL,
                        Cmp::Ge => 0.0 >= rhs_eff - TOL,
                        Cmp::Eq => rhs_eff.abs() <= TOL,
                    };
                    if !ok {
                        return Ok(PresolveOutcome::Infeasible(format!(
                            "row {k} reduces to the false statement 0 {} {rhs_eff}",
                            c.cmp()
                        )));
                    }
                    alive[k] = false;
                    transforms.push(Transform::DropRow { row: k });
                    stats.presolve_rows_removed += 1;
                    changed = true;
                }
                (1, Some((i, a))) if a.abs() > 1e-12 => {
                    let ratio = rhs_eff / a;
                    match c.cmp() {
                        Cmp::Le | Cmp::Ge => {
                            // `a·x ≤ rhs` is `x ≤ rhs/a` (a>0) or `x ≥ rhs/a`
                            // (a<0); Ge mirrors.
                            let is_upper = match c.cmp() {
                                Cmp::Le => a > 0.0,
                                _ => a < 0.0,
                            };
                            let mut tightened = false;
                            if is_upper {
                                if ratio < upper[i] {
                                    upper[i] = ratio;
                                    tightened = true;
                                }
                            } else if ratio > lower[i] {
                                lower[i] = ratio;
                                tightened = true;
                            }
                            if lower[i] > upper[i] + TOL {
                                return Ok(PresolveOutcome::Infeasible(format!(
                                    "row {k} empties the range of x{i}: [{}, {}]",
                                    lower[i], upper[i]
                                )));
                            }
                            if tightened {
                                transforms.push(Transform::TightenBound {
                                    var: i,
                                    lower: lower[i],
                                    upper: upper[i],
                                });
                                stats.presolve_bounds_tightened += 1;
                            }
                            // The row is now implied by the bound.
                            alive[k] = false;
                            transforms.push(Transform::DropRow { row: k });
                            stats.presolve_rows_removed += 1;
                            changed = true;
                        }
                        Cmp::Eq => {
                            let mut value = ratio;
                            if value < lower[i] - TOL || value > upper[i] + TOL {
                                return Ok(PresolveOutcome::Infeasible(format!(
                                    "row {k} pins x{i} at {value}, outside [{}, {}]",
                                    lower[i], upper[i]
                                )));
                            }
                            if kind[i].is_integral() {
                                if (value - value.round()).abs() > TOL {
                                    return Ok(PresolveOutcome::Infeasible(format!(
                                        "row {k} pins integral x{i} at fractional {value}"
                                    )));
                                }
                                value = value.round();
                            }
                            value = value.clamp(lower[i], upper[i]);
                            lower[i] = value;
                            upper[i] = value;
                            fixed[i] = Some(value);
                            transforms.push(Transform::FixVar { var: i, value });
                            stats.presolve_vars_fixed += 1;
                            alive[k] = false;
                            transforms.push(Transform::DropRow { row: k });
                            stats.presolve_rows_removed += 1;
                            changed = true;
                        }
                    }
                }
                _ => {}
            }
        }

        // --- Pass 3: activity-based redundancy (skip mutable) ------------
        for (k, c) in problem.constraints().enumerate() {
            if !alive[k] || mutable[k] {
                continue;
            }
            let mut min_act = 0.0f64;
            let mut max_act = 0.0f64;
            for (v, coeff) in c.expr().iter() {
                let i = v.index();
                let (lo, hi) = match fixed[i] {
                    Some(value) => (value, value),
                    None => (lower[i], upper[i]),
                };
                if coeff > 0.0 {
                    min_act += coeff * lo;
                    max_act += coeff * hi;
                } else {
                    min_act += coeff * hi;
                    max_act += coeff * lo;
                }
            }
            let rhs = c.rhs();
            let (redundant, impossible) = match c.cmp() {
                Cmp::Le => (max_act <= rhs + TOL, min_act > rhs + TOL),
                Cmp::Ge => (min_act >= rhs - TOL, max_act < rhs - TOL),
                Cmp::Eq => (
                    min_act >= rhs - TOL && max_act <= rhs + TOL,
                    min_act > rhs + TOL || max_act < rhs - TOL,
                ),
            };
            if impossible {
                return Ok(PresolveOutcome::Infeasible(format!(
                    "row {k} has activity range [{min_act}, {max_act}], \
                     incompatible with {} {rhs}",
                    c.cmp()
                )));
            }
            if redundant {
                alive[k] = false;
                transforms.push(Transform::DropRow { row: k });
                stats.presolve_rows_removed += 1;
                changed = true;
            }
        }

        if !changed {
            break;
        }
    }

    // --- Build the reduced problem --------------------------------------
    let mut reduced = Problem::new(problem.direction());
    let mut var_map: Vec<Option<usize>> = vec![None; nvars];
    for (i, v) in problem.vars().enumerate() {
        if fixed[i].is_some() {
            continue;
        }
        let name = problem.var_name(v).to_string();
        let rv = match kind[i] {
            VarKind::Continuous => reduced.continuous(name, lower[i], upper[i]),
            VarKind::Binary if lower[i] == 0.0 && upper[i] == 1.0 => reduced.binary(name),
            _ => reduced.integer(name, lower[i], upper[i]),
        };
        var_map[i] = Some(rv.index());
    }

    let mut row_map: Vec<Option<usize>> = vec![None; nrows];
    let mut row_shift = vec![0.0; nrows];
    let mut row_scale = vec![1.0; nrows];
    for (k, c) in problem.constraints().enumerate() {
        if !alive[k] {
            continue;
        }
        let mut shift = 0.0;
        let mut entries: Vec<(usize, f64)> = Vec::new();
        let mut maxabs = 0.0f64;
        for (v, coeff) in c.expr().iter() {
            match fixed[v.index()] {
                Some(value) => shift += coeff * value,
                None => {
                    entries.push((var_map[v.index()].expect("unfixed var is mapped"), coeff));
                    maxabs = maxabs.max(coeff.abs());
                }
            }
        }
        // Equilibrate toward unit magnitude with an exact power of two.
        let factor = if maxabs > 0.0 {
            let e = (maxabs.log2().round() as i32).clamp(-40, 40);
            (2.0f64).powi(-e)
        } else {
            1.0
        };
        let mut expr = LinExpr::zero();
        for (rv, coeff) in entries {
            expr.add_term(Var(rv), coeff * factor);
        }
        let rhs = (c.rhs() - shift) * factor;
        row_map[k] = Some(reduced.num_constraints());
        row_shift[k] = shift;
        row_scale[k] = factor;
        reduced.constrain_named(c.name().map(str::to_string), expr, c.cmp(), rhs);
        if factor != 1.0 {
            transforms.push(Transform::ScaleRow { row: k, factor });
        }
    }

    let mut objective = LinExpr::zero();
    let mut obj_constant = problem.objective().constant();
    for (v, coeff) in problem.objective().iter() {
        match fixed[v.index()] {
            Some(value) => obj_constant += coeff * value,
            None => {
                objective.add_term(
                    Var(var_map[v.index()].expect("unfixed var is mapped")),
                    coeff,
                );
            }
        }
    }
    objective.add_constant(obj_constant);
    reduced.set_objective(objective);

    Ok(PresolveOutcome::Reduced(Box::new(PresolvedProblem {
        original_vars: nvars,
        reduced,
        transforms,
        var_map,
        row_map,
        row_shift,
        row_scale,
        stats,
    })))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reduced(problem: &Problem, mutable_rows: &[usize]) -> PresolvedProblem {
        match presolve(problem, mutable_rows).unwrap() {
            PresolveOutcome::Reduced(pp) => *pp,
            PresolveOutcome::Infeasible(why) => panic!("unexpectedly infeasible: {why}"),
        }
    }

    #[test]
    fn fixed_variables_are_substituted_and_restored() {
        let mut p = Problem::maximize();
        let x = p.continuous("x", 2.0, 2.0); // fixed by bounds
        let y = p.continuous("y", 0.0, 10.0);
        p.constrain(x + y, Cmp::Le, 7.0);
        p.set_objective(3.0 * x + y);
        let pp = reduced(&p, &[]);
        assert_eq!(pp.reduced().num_vars(), 1);
        assert_eq!(pp.stats().presolve_vars_fixed, 1);
        // After substitution the row is a singleton (y ≤ 5): it becomes
        // a bound and disappears.
        assert_eq!(pp.reduced().num_constraints(), 0);
        let yv = pp.reduced().vars().next().unwrap();
        assert_eq!(pp.reduced().var_bounds(yv), (0.0, 5.0));
        // Objective value is preserved: 3·2 folded into the constant.
        assert_eq!(pp.reduced().objective().constant(), 6.0);
        // Restore maps [y] back to [x, y].
        let full = pp.restore(&[5.0]);
        assert_eq!(full, vec![2.0, 5.0]);
    }

    #[test]
    fn singleton_rows_become_bounds_and_disappear() {
        let mut p = Problem::minimize();
        let x = p.continuous("x", 0.0, 100.0);
        let y = p.continuous("y", 0.0, 100.0);
        p.constrain(2.0 * x, Cmp::Le, 10.0); // x ≤ 5
        p.constrain(-1.0 * y, Cmp::Le, -3.0); // y ≥ 3
        p.constrain(x + y, Cmp::Ge, 1.0); // now redundant
        p.set_objective(x + y);
        let pp = reduced(&p, &[]);
        assert_eq!(pp.reduced().num_constraints(), 0);
        assert_eq!(pp.stats().presolve_rows_removed, 3);
        let xv = pp.reduced().vars().next().unwrap();
        assert_eq!(pp.reduced().var_bounds(xv), (0.0, 5.0));
    }

    #[test]
    fn equality_singleton_fixes_the_variable() {
        let mut p = Problem::maximize();
        let x = p.continuous("x", 0.0, 10.0);
        let y = p.continuous("y", 0.0, 10.0);
        p.constrain(2.0 * x, Cmp::Eq, 6.0);
        p.constrain(x + y, Cmp::Le, 8.0);
        p.set_objective(x + y);
        let pp = reduced(&p, &[]);
        assert_eq!(pp.reduced().num_vars(), 1);
        let full = pp.restore(&[4.0]);
        assert_eq!(full, vec![3.0, 4.0]);
    }

    #[test]
    fn integral_bounds_snap() {
        let mut p = Problem::maximize();
        let n = p.integer("n", 0.3, 2.7);
        p.set_objective(1.0 * n);
        let pp = reduced(&p, &[]);
        let nv = pp.reduced().vars().next().unwrap();
        assert_eq!(pp.reduced().var_bounds(nv), (1.0, 2.0));
        assert_eq!(pp.stats().presolve_bounds_tightened, 1);
    }

    #[test]
    fn constant_false_row_proves_infeasibility() {
        let mut p = Problem::maximize();
        let x = p.continuous("x", 1.0, 1.0);
        p.constrain(1.0 * x, Cmp::Ge, 2.0);
        p.set_objective(1.0 * x);
        match presolve(&p, &[]).unwrap() {
            PresolveOutcome::Infeasible(_) => {}
            PresolveOutcome::Reduced(_) => panic!("expected infeasibility proof"),
        }
    }

    #[test]
    fn activity_redundancy_detects_both_directions() {
        let mut p = Problem::maximize();
        let x = p.continuous("x", 0.0, 1.0);
        let y = p.continuous("y", 0.0, 1.0);
        p.constrain(x + y, Cmp::Le, 5.0); // always true
        p.set_objective(x + y);
        let pp = reduced(&p, &[]);
        assert_eq!(pp.reduced().num_constraints(), 0);

        let mut q = Problem::maximize();
        let a = q.continuous("a", 0.0, 1.0);
        q.constrain(1.0 * a, Cmp::Ge, 3.0); // never true
        q.set_objective(1.0 * a);
        match presolve(&q, &[]).unwrap() {
            PresolveOutcome::Infeasible(_) => {}
            PresolveOutcome::Reduced(_) => panic!("expected infeasibility proof"),
        }
    }

    #[test]
    fn equilibration_uses_exact_powers_of_two() {
        let mut p = Problem::maximize();
        let x = p.continuous("x", 0.0, 10.0);
        let y = p.continuous("y", 0.0, 10.0);
        p.constrain(1024.0 * x + 512.0 * y, Cmp::Le, 4096.0);
        p.set_objective(x + y);
        let pp = reduced(&p, &[]);
        let row = pp.reduced().constraints().next().unwrap();
        let xv = pp.reduced().vars().next().unwrap();
        assert_eq!(row.expr().coefficient(xv), 1.0);
        assert_eq!(row.rhs(), 4.0);
        assert!(pp
            .transforms()
            .iter()
            .any(|t| matches!(t, Transform::ScaleRow { factor, .. } if *factor == 1.0 / 1024.0)));
    }

    #[test]
    fn mutable_rows_survive_and_track_rhs_updates() {
        let mut p = Problem::maximize();
        let x = p.continuous("x", 3.0, 3.0); // fixed, shifts the row
        let y = p.continuous("y", 0.0, 100.0);
        // A budget-style row that would otherwise be droppable.
        p.constrain_named(Some("C7_0"), x + y, Cmp::Le, 10.0);
        p.set_objective(1.0 * y);
        let mut pp = reduced(&p, &[0]);
        assert_eq!(pp.reduced().num_constraints(), 1);
        // y ≤ 10 − 3 = 7 initially.
        assert!((pp.reduced().constraints().next().unwrap().rhs() - 7.0).abs() < 1e-12);
        pp.update_rhs(0, 20.0).unwrap();
        assert!((pp.reduced().constraints().next().unwrap().rhs() - 17.0).abs() < 1e-12);
        // Name survives for debugging/lint layers.
        assert_eq!(
            pp.reduced().constraints().next().unwrap().name(),
            Some("C7_0")
        );
    }

    #[test]
    fn update_rhs_rejects_eliminated_rows() {
        let mut p = Problem::maximize();
        let x = p.continuous("x", 0.0, 1.0);
        p.constrain(1.0 * x, Cmp::Le, 5.0); // redundant, dropped
        p.set_objective(1.0 * x);
        let mut pp = reduced(&p, &[]);
        assert!(pp.update_rhs(0, 6.0).is_err());
        assert!(pp.update_rhs(7, 6.0).is_err());
    }

    #[test]
    fn corrupting_a_transform_corrupts_restore() {
        let mut p = Problem::maximize();
        let x = p.continuous("x", 4.0, 4.0);
        let y = p.continuous("y", 0.0, 10.0);
        p.constrain(x + y, Cmp::Le, 9.0);
        p.set_objective(x + y);
        let mut pp = reduced(&p, &[]);
        let honest = pp.restore(&[5.0]);
        assert_eq!(honest, vec![4.0, 5.0]);
        for t in pp.transforms_mut() {
            if let Transform::FixVar { value, .. } = t {
                *value += 1.0;
            }
        }
        let corrupted = pp.restore(&[5.0]);
        assert_eq!(corrupted, vec![5.0, 5.0]);
        assert!(!p.is_feasible(&corrupted, 1e-9));
    }

    #[test]
    fn mutable_row_index_out_of_range_is_invalid() {
        let p = Problem::maximize();
        assert!(matches!(
            presolve(&p, &[3]),
            Err(MilpError::InvalidProblem(_))
        ));
    }
}
