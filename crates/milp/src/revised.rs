//! Sparse revised simplex with explicit basis factorization and warm
//! starts — the LP engine behind every branch-and-bound node.
//!
//! The solver stores the constraint matrix as sparse columns and
//! maintains only `B⁻¹` (dense `m×m`, product-form pivot updates with
//! periodic refactorization). Pricing computes `y = c_B B⁻¹` and reduced
//! costs column by column, so each iteration costs `O(m² + nnz)`.
//!
//! * **No artificial variables for inequalities.** The standardization
//!   gives every row a *logical* column (slack for `≤`/`≥`, a `[0, 0]`
//!   artificial only for `=`), and phase 1 minimizes the total bound
//!   violation of the basic variables directly (dynamic composite costs:
//!   `+1` above the upper bound, `−1` below the lower). Starting from
//!   *any* basis — the all-logical cold basis or a supplied warm basis —
//!   phase 1 repairs primal feasibility in place.
//! * **Warm starts.** [`RevisedSimplex::solve_with_bounds`] accepts a
//!   [`Basis`] from a previous solve of a structurally identical problem
//!   (same rows, same column layout; only bounds/RHS changed). If the
//!   basis still factorizes, the solve resumes from it — typically a few
//!   repair pivots instead of a full two-phase cold start. This is what
//!   branch & bound exploits between parent and child nodes, and what
//!   the incremental window formulation exploits across fixed-point
//!   rounds. A basis that does not fit is a [`WarmStart::Miss`] and the
//!   solve cold-starts instead.
//!
//! Degenerate iterations fall back to Bland's rule, which guarantees
//! termination (pinned by the Beale-example regression tests).

use crate::error::MilpError;
use crate::expr::Var;
use crate::problem::{Cmp, Objective, Problem};

/// Outcome of an LP solve.
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// An optimal vertex was found.
    Optimal(LpSolution),
    /// No point satisfies constraints and bounds.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
}

/// An optimal LP vertex in the original variable space.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    values: Vec<f64>,
    objective: f64,
}

impl LpSolution {
    /// Value of a variable at the optimum.
    pub fn value(&self, var: Var) -> f64 {
        self.values[var.index()]
    }

    /// All variable values, indexed by variable index.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Objective value in the problem's own direction (constant included).
    pub fn objective(&self) -> f64 {
        self.objective
    }
}

/// Status of one standardized column in a [`Basis`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BasisStatus {
    /// Basic in the given row slot.
    Basic(usize),
    /// Non-basic at its lower bound.
    AtLower,
    /// Non-basic at its upper bound.
    AtUpper,
}

/// A simplex basis snapshot: one [`BasisStatus`] per standardized column
/// (structural columns, split negative parts, slacks, equality
/// artificials — a deterministic function of the problem structure).
///
/// Opaque to callers, which only shuttle it between solves of
/// structurally identical problems (parent → child B&B nodes, round →
/// round window re-solves).
#[derive(Debug, Clone, PartialEq)]
pub struct Basis {
    pub(crate) statuses: Vec<BasisStatus>,
}

impl Basis {
    /// Number of standardized columns the basis covers.
    pub fn len(&self) -> usize {
        self.statuses.len()
    }

    /// `true` iff the basis covers no columns.
    pub fn is_empty(&self) -> bool {
        self.statuses.is_empty()
    }
}

/// Whether a warm-start basis offered to the solver was adopted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmStart {
    /// No basis was offered.
    NotAttempted,
    /// The offered basis was adopted (the solve started from it, possibly
    /// after primal repair pivots).
    Hit,
    /// The offered basis did not fit (wrong shape, incomplete row cover,
    /// or singular factorization); the solver cold-started instead.
    Miss,
}

/// Result of one [`RevisedSimplex::solve_with_bounds`] call.
#[derive(Debug, Clone)]
pub struct LpRun {
    /// The LP verdict.
    pub outcome: LpOutcome,
    /// Optimal basis (only on `Optimal`).
    pub basis: Option<Basis>,
    /// Simplex iterations performed (pivots and bound flips).
    pub pivots: u64,
    /// Warm-start disposition of this solve.
    pub warm: WarmStart,
}

/// Revised-simplex configuration.
#[derive(Debug, Clone)]
pub struct RevisedSimplex {
    /// Maximum pivots per phase before reporting numerical trouble.
    pub max_iterations: usize,
    /// Feasibility / optimality tolerance.
    pub tol: f64,
    /// Degenerate-iteration run length that triggers Bland's rule.
    pub bland_trigger: usize,
    /// Pivots between full refactorizations of `B⁻¹` (bounds drift from
    /// the product-form updates).
    pub refactor_every: usize,
}

impl Default for RevisedSimplex {
    fn default() -> Self {
        RevisedSimplex {
            max_iterations: 50_000,
            tol: 1e-7,
            bland_trigger: 64,
            refactor_every: 64,
        }
    }
}

/// Standardized problem: sparse columns over `m` equality rows.
///
/// Column layout (deterministic, the coordinate system of [`Basis`]):
/// for each variable one column — or two (`x⁺`, `x⁻`) when free in both
/// directions under the override bounds — then one slack per `≤`/`≥`
/// row, then one `[0, 0]` artificial per `=` row.
struct Std {
    m: usize,
    ncols: usize,
    /// Sparse columns: `(row, coefficient)` in row order.
    cols: Vec<Vec<(usize, f64)>>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Per original variable: `(column, optional negative-part column)`.
    col_of: Vec<(usize, Option<usize>)>,
    b: Vec<f64>,
    /// Cold-start basis column per row (slack or artificial).
    logical: Vec<usize>,
    /// Phase-2 cost per column (internal minimization).
    cost2: Vec<f64>,
    /// `1 + max |b|`, scaling the feasibility tolerance.
    feas_scale: f64,
}

/// Mutable solver state: factorized basis inverse plus column values.
struct State {
    /// Dense row-major `B⁻¹`, `m × m` (rows are basis slots).
    binv: Vec<f64>,
    /// Basic column per slot.
    basis: Vec<usize>,
    status: Vec<BasisStatus>,
    /// Current value of every column.
    x: Vec<f64>,
}

enum Phase {
    /// Minimize total bound violation of the basic variables.
    Feasibility,
    /// Minimize the (sign-normalized) objective.
    Objective,
}

enum PhaseOutcome {
    Converged,
    /// Feasibility phase stalled with violation remaining.
    Infeasible,
    /// Objective phase found an uncapped improving ray.
    Unbounded,
}

impl RevisedSimplex {
    /// Solves the LP relaxation of `problem` under `bounds` overrides,
    /// optionally warm-starting from `warm`.
    ///
    /// Solves are deterministic: identical `(problem, bounds, warm)`
    /// inputs produce identical outcomes.
    ///
    /// # Errors
    ///
    /// [`MilpError::InvalidProblem`] for malformed input (including
    /// override bounds of the wrong length or inverted),
    /// [`MilpError::NumericalTrouble`] if a phase fails to converge. An
    /// infeasible or unbounded LP is an [`LpOutcome`], not an error.
    pub fn solve_with_bounds(
        &self,
        problem: &Problem,
        bounds: &[(f64, f64)],
        warm: Option<&Basis>,
    ) -> Result<LpRun, MilpError> {
        problem.validate()?;
        if bounds.len() != problem.num_vars() {
            return Err(MilpError::InvalidProblem(format!(
                "bounds vector has length {}, expected {}",
                bounds.len(),
                problem.num_vars()
            )));
        }
        for (i, &(lo, hi)) in bounds.iter().enumerate() {
            if lo > hi {
                return Err(MilpError::InvalidProblem(format!(
                    "override bounds for x{i} are inverted [{lo}, {hi}]"
                )));
            }
        }

        let std = standardize(problem, bounds);
        let mut pivots = 0u64;
        let mut warm_result = WarmStart::NotAttempted;
        let mut state = match warm {
            Some(basis) => match warm_state(&std, basis) {
                Some(st) => {
                    warm_result = WarmStart::Hit;
                    st
                }
                None => {
                    warm_result = WarmStart::Miss;
                    cold_state(&std)
                }
            },
            None => cold_state(&std),
        };

        match self.optimize(&std, &mut state, Phase::Feasibility, &mut pivots)? {
            PhaseOutcome::Infeasible => {
                return Ok(LpRun {
                    outcome: LpOutcome::Infeasible,
                    basis: None,
                    pivots,
                    warm: warm_result,
                })
            }
            PhaseOutcome::Unbounded => unreachable!("feasibility phase never reports unbounded"),
            PhaseOutcome::Converged => {}
        }
        match self.optimize(&std, &mut state, Phase::Objective, &mut pivots)? {
            PhaseOutcome::Unbounded => {
                return Ok(LpRun {
                    outcome: LpOutcome::Unbounded,
                    basis: None,
                    pivots,
                    warm: warm_result,
                })
            }
            PhaseOutcome::Infeasible => unreachable!("objective phase never reports infeasible"),
            PhaseOutcome::Converged => {}
        }

        let mut values = vec![0.0; problem.num_vars()];
        for (value, &(pos, neg)) in values.iter_mut().zip(&std.col_of) {
            *value = state.x[pos] - neg.map(|c| state.x[c]).unwrap_or(0.0);
        }
        let objective = problem.objective().evaluate(&values);
        let basis = Some(Basis {
            statuses: state.status.clone(),
        });
        Ok(LpRun {
            outcome: LpOutcome::Optimal(LpSolution { values, objective }),
            basis,
            pivots,
            warm: warm_result,
        })
    }

    /// Runs one phase to optimality (or stall/ray detection).
    fn optimize(
        &self,
        std: &Std,
        st: &mut State,
        phase: Phase,
        pivots: &mut u64,
    ) -> Result<PhaseOutcome, MilpError> {
        let m = std.m;
        let ftol = self.tol * std.feas_scale;
        let phase_no: u8 = match phase {
            Phase::Feasibility => 1,
            Phase::Objective => 2,
        };
        let mut degenerate_run = 0usize;
        let mut use_bland = false;
        let mut last_obj = f64::INFINITY;
        let mut since_refactor = 0usize;
        let mut cb = vec![0.0; m];

        for _iter in 0..self.max_iterations {
            // --- Phase cost on the basis + current objective -------------
            let objective = match phase {
                Phase::Feasibility => {
                    let mut infeas = 0.0;
                    for (r, &j) in st.basis.iter().enumerate() {
                        let v = st.x[j];
                        cb[r] = if v > std.upper[j] + ftol {
                            infeas += v - std.upper[j];
                            1.0
                        } else if v < std.lower[j] - ftol {
                            infeas += std.lower[j] - v;
                            -1.0
                        } else {
                            0.0
                        };
                    }
                    if infeas <= ftol {
                        return Ok(PhaseOutcome::Converged);
                    }
                    infeas
                }
                Phase::Objective => {
                    for (r, &j) in st.basis.iter().enumerate() {
                        cb[r] = std.cost2[j];
                    }
                    std.cost2.iter().zip(&st.x).map(|(c, x)| c * x).sum::<f64>()
                }
            };
            if objective < last_obj - self.tol {
                degenerate_run = 0;
                last_obj = objective;
            } else {
                degenerate_run += 1;
                if degenerate_run >= self.bland_trigger {
                    use_bland = true;
                }
            }

            // --- Pricing: y = c_B B⁻¹, then d_j = c_j − y·A_j ------------
            let y = btran(&st.binv, &cb, m);
            let mut entering: Option<(usize, f64, f64)> = None; // (col, |d|, sigma)
            for j in 0..std.ncols {
                if matches!(st.status[j], BasisStatus::Basic(_)) {
                    continue;
                }
                // Zero-range columns (fixed vars, equality artificials)
                // can only produce degenerate flips; skip them.
                if std.upper[j] - std.lower[j] <= 0.0 {
                    continue;
                }
                let cj = match phase {
                    Phase::Feasibility => 0.0, // non-basic columns sit feasibly at a bound
                    Phase::Objective => std.cost2[j],
                };
                let mut d = cj;
                for &(k, a) in &std.cols[j] {
                    d -= y[k] * a;
                }
                let eligible = match st.status[j] {
                    BasisStatus::AtLower => d < -self.tol,
                    BasisStatus::AtUpper => d > self.tol,
                    BasisStatus::Basic(_) => false,
                };
                if !eligible {
                    continue;
                }
                let sigma = if matches!(st.status[j], BasisStatus::AtLower) {
                    1.0
                } else {
                    -1.0
                };
                if use_bland {
                    entering = Some((j, d.abs(), sigma));
                    break;
                }
                match entering {
                    Some((_, best, _)) if d.abs() <= best => {}
                    _ => entering = Some((j, d.abs(), sigma)),
                }
            }
            let Some((q, _, sigma)) = entering else {
                return Ok(match phase {
                    // No improving direction while violation remains.
                    Phase::Feasibility => PhaseOutcome::Infeasible,
                    Phase::Objective => PhaseOutcome::Converged,
                });
            };
            *pivots += 1;

            // --- Ratio test: w = B⁻¹ A_q ---------------------------------
            let w = ftran(&st.binv, &std.cols[q], m);
            let mut t_max = std.upper[q] - std.lower[q]; // own-range limit
            let mut leaving: Option<(usize, bool)> = None; // (slot, leaves_at_upper)
            for (r, &wv) in w.iter().enumerate() {
                if wv.abs() <= 1e-9 {
                    continue;
                }
                let delta = -sigma * wv; // basic value change per unit t
                let bcol = st.basis[r];
                let v = st.x[bcol];
                let (l, u) = (std.lower[bcol], std.upper[bcol]);
                // Generalized bound cap: an infeasible basic variable caps
                // at its *violated* bound when moving back toward it (and
                // becomes feasible there); a feasible one caps at the
                // bound it is moving toward (the textbook ratio test).
                let (target, at_upper) = if delta < 0.0 {
                    if v > u + ftol {
                        (u, true)
                    } else if v < l - ftol || l == f64::NEG_INFINITY {
                        continue;
                    } else {
                        (l, false)
                    }
                } else if v < l - ftol {
                    (l, false)
                } else if v > u + ftol || u == f64::INFINITY {
                    continue;
                } else {
                    (u, true)
                };
                let limit_t = ((target - v) / delta).max(0.0);
                if limit_t < t_max - 1e-12 {
                    t_max = limit_t;
                    leaving = Some((r, at_upper));
                } else if (limit_t - t_max).abs() <= 1e-12 {
                    // Tie-break on smallest basis column (anti-cycling aid).
                    match leaving {
                        Some((r0, _)) if st.basis[r0] <= bcol => {}
                        _ => {
                            t_max = t_max.min(limit_t);
                            leaving = Some((r, at_upper));
                        }
                    }
                }
            }
            if t_max == f64::INFINITY {
                return match phase {
                    // The composite infeasibility objective is bounded
                    // below by zero; an uncapped ray is numerical noise.
                    Phase::Feasibility => Err(MilpError::NumericalTrouble {
                        phase: phase_no,
                        iterations: self.max_iterations,
                    }),
                    Phase::Objective => Ok(PhaseOutcome::Unbounded),
                };
            }

            // --- Apply step ----------------------------------------------
            let step = sigma * t_max;
            if t_max > 0.0 {
                for (r, &wv) in w.iter().enumerate() {
                    if wv != 0.0 {
                        st.x[st.basis[r]] -= step * wv;
                    }
                }
                st.x[q] += step;
            }
            match leaving {
                None => {
                    // Bound flip: entering traverses its whole range.
                    st.status[q] = if sigma > 0.0 {
                        st.x[q] = std.upper[q];
                        BasisStatus::AtUpper
                    } else {
                        st.x[q] = std.lower[q];
                        BasisStatus::AtLower
                    };
                }
                Some((r, at_upper)) => {
                    let bcol = st.basis[r];
                    st.x[bcol] = if at_upper {
                        std.upper[bcol]
                    } else {
                        std.lower[bcol]
                    };
                    st.status[bcol] = if at_upper {
                        BasisStatus::AtUpper
                    } else {
                        BasisStatus::AtLower
                    };
                    st.status[q] = BasisStatus::Basic(r);
                    st.basis[r] = q;
                    pivot_update(&mut st.binv, r, &w, m);
                    since_refactor += 1;
                    if since_refactor >= self.refactor_every {
                        since_refactor = 0;
                        if !refactor(std, st) {
                            return Err(MilpError::NumericalTrouble {
                                phase: phase_no,
                                iterations: self.max_iterations,
                            });
                        }
                    }
                }
            }
        }
        Err(MilpError::NumericalTrouble {
            phase: phase_no,
            iterations: self.max_iterations,
        })
    }
}

/// Builds the standardized sparse form (see [`Std`] for the layout).
fn standardize(problem: &Problem, bounds: &[(f64, f64)]) -> Std {
    let m = problem.num_constraints();
    let mut lower = Vec::new();
    let mut upper = Vec::new();
    let mut col_of = Vec::with_capacity(problem.num_vars());
    for &(lo, hi) in bounds {
        if lo == f64::NEG_INFINITY && hi == f64::INFINITY {
            let pos = lower.len();
            lower.push(0.0);
            upper.push(f64::INFINITY);
            let neg = lower.len();
            lower.push(0.0);
            upper.push(f64::INFINITY);
            col_of.push((pos, Some(neg)));
        } else {
            let c = lower.len();
            lower.push(lo);
            upper.push(hi);
            col_of.push((c, None));
        }
    }
    let mut logical = Vec::with_capacity(m);
    for c in problem.constraints() {
        let col = lower.len();
        lower.push(0.0);
        match c.cmp() {
            // Slack with its natural sign; its value must be ≥ 0.
            Cmp::Le | Cmp::Ge => upper.push(f64::INFINITY),
            // Artificial pinned to zero: it can start basic at the row
            // residual (phase 1 repairs it) but can never re-enter.
            Cmp::Eq => upper.push(0.0),
        }
        logical.push(col);
    }
    let ncols = lower.len();

    let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); ncols];
    let mut b = vec![0.0; m];
    for (k, c) in problem.constraints().enumerate() {
        for (v, coeff) in c.expr().iter() {
            let (pos, neg) = col_of[v.index()];
            cols[pos].push((k, coeff));
            if let Some(negc) = neg {
                cols[negc].push((k, -coeff));
            }
        }
        let logical_coeff = match c.cmp() {
            Cmp::Le => 1.0,
            Cmp::Ge => -1.0,
            Cmp::Eq => 1.0,
        };
        cols[logical[k]].push((k, logical_coeff));
        b[k] = c.rhs();
    }

    let sign = match problem.direction() {
        Objective::Minimize => 1.0,
        Objective::Maximize => -1.0,
    };
    let mut cost2 = vec![0.0; ncols];
    for (v, coeff) in problem.objective().iter() {
        let (pos, neg) = col_of[v.index()];
        cost2[pos] += sign * coeff;
        if let Some(negc) = neg {
            cost2[negc] -= sign * coeff;
        }
    }
    let feas_scale = 1.0 + b.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
    Std {
        m,
        ncols,
        cols,
        lower,
        upper,
        col_of,
        b,
        logical,
        cost2,
        feas_scale,
    }
}

/// All columns at a finite bound, logical columns basic (B is ±diagonal).
fn cold_state(std: &Std) -> State {
    let mut status = Vec::with_capacity(std.ncols);
    for &lo in &std.lower {
        status.push(if lo.is_finite() {
            BasisStatus::AtLower
        } else {
            // Upper must be finite: fully-free variables were split.
            BasisStatus::AtUpper
        });
    }
    let mut basis = Vec::with_capacity(std.m);
    for (r, &col) in std.logical.iter().enumerate() {
        status[col] = BasisStatus::Basic(r);
        basis.push(col);
    }
    rebuild(std, basis, status).expect("the ±diagonal logical basis always factorizes")
}

/// Adopts a warm basis if it still fits this standardization; `None`
/// (→ cold start) when it does not.
fn warm_state(std: &Std, basis: &Basis) -> Option<State> {
    if basis.statuses.len() != std.ncols {
        return None;
    }
    let mut slots: Vec<Option<usize>> = vec![None; std.m];
    for (j, &s) in basis.statuses.iter().enumerate() {
        match s {
            BasisStatus::Basic(r) => {
                if r >= std.m || slots[r].is_some() {
                    return None;
                }
                slots[r] = Some(j);
            }
            BasisStatus::AtLower => {
                if !std.lower[j].is_finite() {
                    return None;
                }
            }
            BasisStatus::AtUpper => {
                if !std.upper[j].is_finite() {
                    return None;
                }
            }
        }
    }
    let cols: Option<Vec<usize>> = slots.into_iter().collect();
    rebuild(std, cols?, basis.statuses.clone())
}

/// Factorizes the basis and recomputes all column values; `None` if the
/// basis matrix is singular.
fn rebuild(std: &Std, basis: Vec<usize>, status: Vec<BasisStatus>) -> Option<State> {
    let binv = factorize(std, &basis)?;
    let mut st = State {
        binv,
        basis,
        status,
        x: vec![0.0; std.ncols],
    };
    {
        let State { status, x, .. } = &mut st;
        let bnds = std.lower.iter().zip(&std.upper);
        for ((xv, s), (lo, up)) in x.iter_mut().zip(status.iter()).zip(bnds) {
            *xv = match s {
                BasisStatus::AtLower => *lo,
                BasisStatus::AtUpper => *up,
                BasisStatus::Basic(_) => 0.0, // set below
            };
        }
    }
    set_basic_values(std, &mut st);
    Some(st)
}

/// Inverts the `m × m` basis matrix by Gauss–Jordan with partial
/// pivoting; `None` if (numerically) singular.
fn factorize(std: &Std, basis: &[usize]) -> Option<Vec<f64>> {
    let m = std.m;
    let mut mat = vec![0.0; m * m];
    for (slot, &col) in basis.iter().enumerate() {
        for &(k, a) in &std.cols[col] {
            mat[k * m + slot] = a;
        }
    }
    let mut inv = vec![0.0; m * m];
    for r in 0..m {
        inv[r * m + r] = 1.0;
    }
    for c in 0..m {
        let mut piv_row = c;
        let mut best = mat[c * m + c].abs();
        for r in c + 1..m {
            let a = mat[r * m + c].abs();
            if a > best {
                best = a;
                piv_row = r;
            }
        }
        if best < 1e-10 {
            return None;
        }
        if piv_row != c {
            for j in 0..m {
                mat.swap(c * m + j, piv_row * m + j);
                inv.swap(c * m + j, piv_row * m + j);
            }
        }
        let pinv = 1.0 / mat[c * m + c];
        for j in 0..m {
            mat[c * m + j] *= pinv;
            inv[c * m + j] *= pinv;
        }
        mat[c * m + c] = 1.0;
        for r in 0..m {
            if r == c {
                continue;
            }
            let f = mat[r * m + c];
            if f != 0.0 {
                for j in 0..m {
                    let mv = mat[c * m + j];
                    let iv = inv[c * m + j];
                    mat[r * m + j] -= f * mv;
                    inv[r * m + j] -= f * iv;
                }
                mat[r * m + c] = 0.0;
            }
        }
    }
    // `inv` now solves B_slot x = e_row; reorder so rows are slots:
    // Gauss-Jordan on [B | I] yields B⁻¹ directly in slot-major rows.
    Some(inv)
}

/// Recomputes the basic values `x_B = B⁻¹ (b − A_N x_N)` in place.
fn set_basic_values(std: &Std, st: &mut State) {
    let m = std.m;
    let mut rhs_eff = std.b.clone();
    for j in 0..std.ncols {
        if matches!(st.status[j], BasisStatus::Basic(_)) {
            continue;
        }
        let xj = st.x[j];
        if xj != 0.0 {
            for &(k, a) in &std.cols[j] {
                rhs_eff[k] -= a * xj;
            }
        }
    }
    for (r, &col) in st.basis.iter().enumerate() {
        let mut v = 0.0;
        for (k, &re) in rhs_eff.iter().enumerate() {
            v += st.binv[r * m + k] * re;
        }
        st.x[col] = v;
    }
}

/// Refactorizes `B⁻¹` from scratch and cleans the basic values.
fn refactor(std: &Std, st: &mut State) -> bool {
    match factorize(std, &st.basis) {
        Some(binv) => {
            st.binv = binv;
            set_basic_values(std, st);
            true
        }
        None => false,
    }
}

/// `y = c_B B⁻¹` (only rows with non-zero basis cost contribute).
fn btran(binv: &[f64], cb: &[f64], m: usize) -> Vec<f64> {
    let mut y = vec![0.0; m];
    for (r, &c) in cb.iter().enumerate() {
        if c != 0.0 {
            for (k, yk) in y.iter_mut().enumerate() {
                *yk += c * binv[r * m + k];
            }
        }
    }
    y
}

/// `w = B⁻¹ A_q` from the sparse column.
fn ftran(binv: &[f64], col: &[(usize, f64)], m: usize) -> Vec<f64> {
    let mut w = vec![0.0; m];
    for &(k, a) in col {
        for (r, wr) in w.iter_mut().enumerate() {
            *wr += binv[r * m + k] * a;
        }
    }
    w
}

/// Product-form update after a pivot at slot `r` with column image `w`:
/// `B⁻¹ ← E B⁻¹` where `E` differs from identity only in column `r`.
fn pivot_update(binv: &mut [f64], r: usize, w: &[f64], m: usize) {
    let piv = w[r];
    debug_assert!(piv.abs() > 1e-12, "pivot too small");
    let inv = 1.0 / piv;
    for j in 0..m {
        binv[r * m + j] *= inv;
    }
    for (i, &wi) in w.iter().enumerate() {
        if i == r || wi == 0.0 {
            continue;
        }
        for j in 0..m {
            let rv = binv[r * m + j];
            binv[i * m + j] -= wi * rv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(p: &Problem) -> LpRun {
        let bounds: Vec<(f64, f64)> = p.vars().map(|v| p.var_bounds(v)).collect();
        RevisedSimplex::default()
            .solve_with_bounds(p, &bounds, None)
            .unwrap()
    }

    fn optimal(p: &Problem) -> LpSolution {
        match solve(p).outcome {
            LpOutcome::Optimal(s) => s,
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn textbook_maximize() {
        let mut p = Problem::maximize();
        let x = p.continuous("x", 0.0, f64::INFINITY);
        let y = p.continuous("y", 0.0, f64::INFINITY);
        p.constrain(1.0 * x, Cmp::Le, 4.0);
        p.constrain(2.0 * y, Cmp::Le, 12.0);
        p.constrain(3.0 * x + 2.0 * y, Cmp::Le, 18.0);
        p.set_objective(3.0 * x + 5.0 * y);
        let s = optimal(&p);
        assert!((s.objective() - 36.0).abs() < 1e-6);
        assert!((s.value(x) - 2.0).abs() < 1e-6);
        assert!((s.value(y) - 6.0).abs() < 1e-6);
    }

    #[test]
    fn equality_constraints() {
        let mut p = Problem::maximize();
        let x = p.continuous("x", 0.0, 10.0);
        let y = p.continuous("y", 0.0, 10.0);
        p.constrain(x + y, Cmp::Eq, 5.0);
        p.constrain(x - y, Cmp::Eq, 1.0);
        p.set_objective(x + y);
        let s = optimal(&p);
        assert!((s.value(x) - 3.0).abs() < 1e-6);
        assert!((s.value(y) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::maximize();
        let x = p.continuous("x", 0.0, 1.0);
        p.constrain(1.0 * x, Cmp::Ge, 2.0);
        p.set_objective(1.0 * x);
        assert_eq!(solve(&p).outcome, LpOutcome::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::maximize();
        let x = p.continuous("x", 0.0, f64::INFINITY);
        p.set_objective(1.0 * x);
        assert_eq!(solve(&p).outcome, LpOutcome::Unbounded);
    }

    #[test]
    fn free_variable_is_split() {
        let mut p = Problem::minimize();
        let x = p.continuous("x", f64::NEG_INFINITY, f64::INFINITY);
        let y = p.continuous("y", f64::NEG_INFINITY, f64::INFINITY);
        p.constrain(y - x, Cmp::Ge, -4.0);
        p.constrain(y + x, Cmp::Ge, 0.0);
        p.set_objective(1.0 * y);
        let s = optimal(&p);
        assert!((s.objective() + 2.0).abs() < 1e-6, "obj={}", s.objective());
        assert!((s.value(x) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn redundant_rows_are_tolerated() {
        let mut p = Problem::maximize();
        let x = p.continuous("x", 0.0, 5.0);
        let y = p.continuous("y", 0.0, 5.0);
        p.constrain(x + y, Cmp::Eq, 4.0);
        p.constrain(2.0 * x + 2.0 * y, Cmp::Eq, 8.0); // same plane
        p.set_objective(1.0 * x);
        let s = optimal(&p);
        assert!((s.value(x) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn bounds_only_problem() {
        let mut p = Problem::maximize();
        let x = p.continuous("x", 0.0, 3.5);
        let y = p.continuous("y", 1.0, 2.0);
        p.set_objective(x + y);
        let s = optimal(&p);
        assert!((s.objective() - 5.5).abs() < 1e-9);
    }

    #[test]
    fn beale_cycling_example_terminates() {
        // Beale's classical cycling LP; the Bland fallback guarantees
        // termination.
        let mut p = Problem::minimize();
        let x1 = p.continuous("x1", 0.0, f64::INFINITY);
        let x2 = p.continuous("x2", 0.0, f64::INFINITY);
        let x3 = p.continuous("x3", 0.0, f64::INFINITY);
        let x4 = p.continuous("x4", 0.0, f64::INFINITY);
        p.constrain(0.25 * x1 - 8.0 * x2 - 1.0 * x3 + 9.0 * x4, Cmp::Le, 0.0);
        p.constrain(0.5 * x1 - 12.0 * x2 - 0.5 * x3 + 3.0 * x4, Cmp::Le, 0.0);
        p.constrain(1.0 * x3, Cmp::Le, 1.0);
        p.set_objective(-0.75 * x1 + 150.0 * x2 - 0.02 * x3 + 6.0 * x4);
        let s = optimal(&p);
        assert!((s.objective() + 0.77).abs() < 1e-6, "obj={}", s.objective());
    }

    #[test]
    fn warm_start_from_own_optimal_basis_is_cheap() {
        let mut p = Problem::maximize();
        let x = p.continuous("x", 0.0, f64::INFINITY);
        let y = p.continuous("y", 0.0, f64::INFINITY);
        p.constrain(1.0 * x, Cmp::Le, 4.0);
        p.constrain(2.0 * y, Cmp::Le, 12.0);
        p.constrain(3.0 * x + 2.0 * y, Cmp::Le, 18.0);
        p.set_objective(3.0 * x + 5.0 * y);
        let bounds: Vec<(f64, f64)> = p.vars().map(|v| p.var_bounds(v)).collect();
        let solver = RevisedSimplex::default();
        let cold = solver.solve_with_bounds(&p, &bounds, None).unwrap();
        assert_eq!(cold.warm, WarmStart::NotAttempted);
        let basis = cold.basis.clone().expect("optimal solve exports a basis");
        let warm = solver.solve_with_bounds(&p, &bounds, Some(&basis)).unwrap();
        assert_eq!(warm.warm, WarmStart::Hit);
        assert!(
            warm.pivots <= cold.pivots / 2,
            "re-solving from the optimal basis ({} pivots) should be much \
             cheaper than cold ({} pivots)",
            warm.pivots,
            cold.pivots
        );
        match (cold.outcome, warm.outcome) {
            (LpOutcome::Optimal(a), LpOutcome::Optimal(b)) => {
                assert!((a.objective() - b.objective()).abs() < 1e-9);
            }
            other => panic!("expected optimal pair, got {other:?}"),
        }
    }

    #[test]
    fn warm_start_repairs_after_bound_change() {
        // Tighten a bound so the warm basis is primal-infeasible: the
        // solve must repair it (the branch-and-bound child scenario).
        let mut p = Problem::maximize();
        let x = p.continuous("x", 0.0, 10.0);
        let y = p.continuous("y", 0.0, 10.0);
        p.constrain(x + y, Cmp::Le, 8.0);
        p.set_objective(2.0 * x + y);
        let bounds: Vec<(f64, f64)> = p.vars().map(|v| p.var_bounds(v)).collect();
        let solver = RevisedSimplex::default();
        let cold = solver.solve_with_bounds(&p, &bounds, None).unwrap();
        let basis = cold.basis.expect("basis exported");
        // New bounds exclude the previous optimum x = 8.
        let tightened = vec![(0.0, 3.0), (0.0, 10.0)];
        let warm = solver
            .solve_with_bounds(&p, &tightened, Some(&basis))
            .unwrap();
        assert_eq!(warm.warm, WarmStart::Hit);
        match warm.outcome {
            LpOutcome::Optimal(s) => {
                assert!((s.value(x) - 3.0).abs() < 1e-6);
                assert!((s.value(y) - 5.0).abs() < 1e-6);
                assert!((s.objective() - 11.0).abs() < 1e-6);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn mismatched_warm_basis_is_a_miss() {
        let mut p = Problem::maximize();
        let x = p.continuous("x", 0.0, 5.0);
        p.constrain(1.0 * x, Cmp::Le, 3.0);
        p.set_objective(1.0 * x);
        let bounds = vec![(0.0, 5.0)];
        let bogus = Basis {
            statuses: vec![BasisStatus::AtLower; 7], // wrong width
        };
        let run = RevisedSimplex::default()
            .solve_with_bounds(&p, &bounds, Some(&bogus))
            .unwrap();
        assert_eq!(run.warm, WarmStart::Miss);
        match run.outcome {
            LpOutcome::Optimal(s) => assert!((s.objective() - 3.0).abs() < 1e-9),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn empty_problem_is_trivially_optimal() {
        let p = Problem::minimize();
        let run = RevisedSimplex::default()
            .solve_with_bounds(&p, &[], None)
            .unwrap();
        match run.outcome {
            LpOutcome::Optimal(s) => assert_eq!(s.objective(), 0.0),
            other => panic!("expected optimal, got {other:?}"),
        }
    }
}
