//! Branch & bound for mixed-integer programs: best-first node selection
//! and most-fractional branching.
//!
//! Node relaxations are priced by the [`RevisedSimplex`], and every
//! child node warm-starts from its parent's optimal basis: the
//! child differs only in one variable bound, so a few dual/primal repair
//! pivots usually replace a full cold solve. The root always solves cold.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;

use crate::error::MilpError;
use crate::expr::Var;
use crate::problem::{Objective, Problem};
use crate::revised::{Basis, LpOutcome, RevisedSimplex, WarmStart};
use crate::solution::{MilpSolution, SolveStatus};
use crate::stats::SolverStats;

/// Search limits for [`BranchAndBound`].
#[derive(Debug, Clone)]
pub struct Limits {
    /// Maximum branch-and-bound nodes to explore.
    pub max_nodes: usize,
    /// Relative/absolute optimality gap at which a node is fathomed.
    pub gap_tol: f64,
    /// Integrality tolerance.
    pub int_tol: f64,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_nodes: 200_000,
            gap_tol: 1e-6,
            int_tol: 1e-6,
        }
    }
}

/// A search node: variable-bound overrides plus its parent's LP bound
/// and (when available) the parent's optimal basis for warm-starting.
#[derive(Debug, Clone)]
struct Node {
    bounds: Vec<(f64, f64)>,
    /// LP bound inherited from the parent (internal maximization scale).
    bound: f64,
    depth: usize,
    /// Parent's optimal basis, shared between both children.
    basis: Option<Rc<Basis>>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // `total_cmp` keeps the ordering total even if an LP bound is NaN
        // (a `partial_cmp(..).unwrap_or(Equal)` here would silently break
        // transitivity and corrupt the heap). NaN sorts above +∞, so a
        // NaN-bound node is popped first and then fathomed or re-bounded
        // by its own LP solve — never lost. Best bound first, deeper
        // first on ties (diving toward incumbents).
        self.bound
            .total_cmp(&other.bound)
            .then(self.depth.cmp(&other.depth))
    }
}

/// Branch & bound driver.
///
/// Usually accessed through [`Solver`](crate::Solver); use directly to
/// customize [`Limits`] or to solve a problem without presolving it
/// first.
#[derive(Debug, Clone, Default)]
pub struct BranchAndBound {
    limits: Limits,
    lp: RevisedSimplex,
}

impl BranchAndBound {
    /// Creates a driver with the given limits.
    pub fn new(limits: Limits) -> Self {
        BranchAndBound {
            limits,
            ..BranchAndBound::default()
        }
    }

    /// Solves a mixed-integer program from a cold root.
    ///
    /// # Errors
    ///
    /// * [`MilpError::Infeasible`] — no integer-feasible point exists.
    /// * [`MilpError::Unbounded`] — the root relaxation is unbounded.
    /// * [`MilpError::NumericalTrouble`] — an LP relaxation failed to
    ///   converge.
    /// * [`MilpError::InvalidProblem`] — malformed input.
    ///
    /// Hitting [`Limits::max_nodes`] with an incumbent in hand is reported
    /// via [`SolveStatus::LimitReached`], not an error; without an
    /// incumbent it is reported as `LimitReached` with NaN objective only
    /// if a feasible point was never found — in that case the solution
    /// carries the proven bound and an empty value vector.
    pub fn solve(&self, problem: &Problem) -> Result<MilpSolution, MilpError> {
        problem.validate()?;
        // Internal convention: maximize. Flip sign for minimization.
        let sign = match problem.direction() {
            Objective::Maximize => 1.0,
            Objective::Minimize => -1.0,
        };

        let root_bounds: Vec<(f64, f64)> = (0..problem.num_vars())
            .map(|i| {
                let (lo, hi) = problem.var_bounds(Var(i));
                // Tighten integral variable bounds to integers up front.
                if problem.var_kind(Var(i)).is_integral() {
                    (finite_ceil(lo), finite_floor(hi))
                } else {
                    (lo, hi)
                }
            })
            .collect();
        for &(lo, hi) in &root_bounds {
            if lo > hi {
                return Err(MilpError::Infeasible);
            }
        }

        let mut heap = BinaryHeap::new();
        heap.push(Node {
            bounds: root_bounds,
            bound: f64::INFINITY,
            depth: 0,
            basis: None,
        });

        let mut incumbent: Option<(Vec<f64>, f64)> = None; // (values, internal obj)
        let mut nodes = 0usize;
        let mut limit_hit = false;
        let mut stats = SolverStats::default();

        while let Some(node) = heap.pop() {
            // Fathom against incumbent using the inherited bound.
            if let Some((_, best)) = &incumbent {
                if node.bound <= *best + self.limits.gap_tol {
                    continue;
                }
            }
            if nodes >= self.limits.max_nodes {
                limit_hit = true;
                // Push back so the remaining-tree bound includes this node.
                heap.push(node);
                break;
            }
            nodes += 1;

            // Warm start from the parent's basis (the root solves cold).
            let run = self
                .lp
                .solve_with_bounds(problem, &node.bounds, node.basis.as_deref())?;
            stats.lp_solves += 1;
            stats.lp_pivots += run.pivots;
            match run.warm {
                WarmStart::Hit => {
                    stats.warm_start_attempts += 1;
                    stats.warm_start_hits += 1;
                }
                WarmStart::Miss => stats.warm_start_attempts += 1,
                WarmStart::NotAttempted => {}
            }
            let lp = match run.outcome {
                LpOutcome::Infeasible => continue,
                LpOutcome::Unbounded => {
                    // With all integral vars bounded this means the
                    // continuous part is unbounded — genuinely unbounded.
                    return Err(MilpError::Unbounded);
                }
                LpOutcome::Optimal(s) => s,
            };
            let child_basis = run.basis.map(Rc::new);
            let lp_bound = sign * lp.objective();
            if let Some((_, best)) = &incumbent {
                if lp_bound <= *best + self.limits.gap_tol {
                    continue;
                }
            }

            // Branch on the most fractional integral variable (value
            // closest to `.5`; the lowest index wins ties).
            let mut branch_var: Option<(usize, f64, f64)> = None; // (idx, value, score)
            for v in problem.integral_vars() {
                let val = lp.value(v);
                let frac = (val - val.round()).abs();
                if frac > self.limits.int_tol {
                    let dist = (val - val.floor() - 0.5).abs(); // 0 = most fractional
                    match branch_var {
                        Some((_, _, d)) if d <= dist => {}
                        _ => branch_var = Some((v.index(), val, dist)),
                    }
                }
            }

            match branch_var {
                None => {
                    // Integer feasible: candidate incumbent.
                    let rounded = round_integrals(problem, lp.values());
                    if problem.is_feasible(&rounded, 1e-6) {
                        let obj = sign * problem.objective().evaluate(&rounded);
                        if incumbent.as_ref().is_none_or(|(_, b)| obj > *b) {
                            incumbent = Some((rounded, obj));
                        }
                    } else {
                        // Within int_tol but rounding broke feasibility:
                        // extremely rare; treat the LP point itself.
                        let obj = lp_bound;
                        if incumbent.as_ref().is_none_or(|(_, b)| obj > *b) {
                            incumbent = Some((lp.values().to_vec(), obj));
                        }
                    }
                }
                Some((idx, val, _)) => {
                    // Rounding heuristic at the root for an early incumbent.
                    if node.depth == 0 {
                        let rounded = round_integrals(problem, lp.values());
                        if problem.is_feasible(&rounded, 1e-6) {
                            let obj = sign * problem.objective().evaluate(&rounded);
                            if incumbent.as_ref().is_none_or(|(_, b)| obj > *b) {
                                incumbent = Some((rounded, obj));
                            }
                        }
                    }
                    let (lo, hi) = node.bounds[idx];
                    let floor = val.floor();
                    // Down child: x <= floor(val).
                    if floor >= lo - 1e-12 {
                        let mut b = node.bounds.clone();
                        b[idx] = (lo, floor.min(hi));
                        if b[idx].0 <= b[idx].1 {
                            heap.push(Node {
                                bounds: b,
                                bound: lp_bound,
                                depth: node.depth + 1,
                                basis: child_basis.clone(),
                            });
                        }
                    }
                    // Up child: x >= ceil(val).
                    let ceil = val.ceil();
                    if ceil <= hi + 1e-12 {
                        let mut b = node.bounds.clone();
                        b[idx] = (ceil.max(lo), hi);
                        if b[idx].0 <= b[idx].1 {
                            heap.push(Node {
                                bounds: b,
                                bound: lp_bound,
                                depth: node.depth + 1,
                                basis: child_basis,
                            });
                        }
                    }
                }
            }
        }

        stats.bb_nodes = nodes as u64;
        let remaining_bound = heap
            .iter()
            .map(|n| n.bound)
            .fold(f64::NEG_INFINITY, f64::max);

        match incumbent {
            Some((values, internal_obj)) => {
                let status = if limit_hit && remaining_bound > internal_obj + self.limits.gap_tol {
                    SolveStatus::LimitReached {
                        bound: sign * remaining_bound,
                    }
                } else {
                    SolveStatus::Optimal
                };
                Ok(MilpSolution {
                    objective: sign * internal_obj,
                    values,
                    status,
                    stats,
                })
            }
            None if limit_hit => Ok(MilpSolution {
                values: Vec::new(),
                objective: f64::NAN,
                status: SolveStatus::LimitReached {
                    bound: sign * remaining_bound,
                },
                stats,
            }),
            None => Err(MilpError::Infeasible),
        }
    }
}

fn round_integrals(problem: &Problem, values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    for v in problem.integral_vars() {
        out[v.index()] = out[v.index()].round();
    }
    out
}

fn finite_ceil(v: f64) -> f64 {
    if v.is_finite() {
        v.ceil()
    } else {
        v
    }
}

fn finite_floor(v: f64) -> f64 {
    if v.is_finite() {
        v.floor()
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Cmp;
    use crate::Solver;

    #[test]
    fn pure_binary_knapsack() {
        // max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6 → a + c (17) vs b + c (20)
        let mut p = Problem::maximize();
        let a = p.binary("a");
        let b = p.binary("b");
        let c = p.binary("c");
        p.constrain(3.0 * a + 4.0 * b + 2.0 * c, Cmp::Le, 6.0);
        p.set_objective(10.0 * a + 13.0 * b + 7.0 * c);
        let s = Solver::new().solve(&p).unwrap();
        assert!(s.is_optimal());
        assert!((s.objective() - 20.0).abs() < 1e-6);
        assert!(s.value(b) > 0.5 && s.value(c) > 0.5 && s.value(a) < 0.5);
    }

    #[test]
    fn integer_rounding_matters() {
        // max x + y s.t. 2x + 2y <= 5, integers → obj 2 (LP gives 2.5)
        let mut p = Problem::maximize();
        let x = p.integer("x", 0.0, 10.0);
        let y = p.integer("y", 0.0, 10.0);
        p.constrain(2.0 * x + 2.0 * y, Cmp::Le, 5.0);
        p.set_objective(x + y);
        let s = Solver::new().solve(&p).unwrap();
        assert!((s.objective() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn minimization_direction() {
        // min 3x + 2y s.t. x + y >= 3, x,y integer >= 0 → y=3, obj 6
        let mut p = Problem::minimize();
        let x = p.integer("x", 0.0, 10.0);
        let y = p.integer("y", 0.0, 10.0);
        p.constrain(x + y, Cmp::Ge, 3.0);
        p.set_objective(3.0 * x + 2.0 * y);
        let s = Solver::new().solve(&p).unwrap();
        assert!((s.objective() - 6.0).abs() < 1e-6);
        assert!((s.value(y) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_integer_program() {
        // 0.4 <= x <= 0.6, x binary → infeasible after bound tightening.
        let mut p = Problem::maximize();
        let x = p.integer("x", 0.4, 0.6);
        p.set_objective(1.0 * x);
        assert_eq!(Solver::new().solve(&p), Err(MilpError::Infeasible));
    }

    #[test]
    fn infeasible_via_constraints() {
        let mut p = Problem::maximize();
        let x = p.binary("x");
        p.constrain(1.0 * x, Cmp::Ge, 2.0);
        p.set_objective(1.0 * x);
        assert_eq!(Solver::new().solve(&p), Err(MilpError::Infeasible));
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::maximize();
        let x = p.continuous("x", 0.0, f64::INFINITY);
        let b = p.binary("b");
        p.set_objective(x + b);
        assert_eq!(Solver::new().solve(&p), Err(MilpError::Unbounded));
    }

    #[test]
    fn mixed_integer_continuous() {
        // max 2x + 3b s.t. x + 4b <= 5, x <= 3 → b=0: x=3 obj 6;
        // b=1: x=1 obj 5. Optimal 6.
        let mut p = Problem::maximize();
        let x = p.continuous("x", 0.0, 3.0);
        let b = p.binary("b");
        p.constrain(x + 4.0 * b, Cmp::Le, 5.0);
        p.set_objective(2.0 * x + 3.0 * b);
        let s = Solver::new().solve(&p).unwrap();
        assert!((s.objective() - 6.0).abs() < 1e-6);
    }

    fn twelve_item_knapsack() -> Problem {
        let mut p = Problem::maximize();
        let vars: Vec<_> = (0..12).map(|i| p.binary(format!("b{i}"))).collect();
        let weights = [5.0, 7.0, 4.0, 3.0, 9.0, 6.0, 5.5, 4.5, 8.0, 2.0, 7.5, 3.5];
        let mut cap = crate::LinExpr::zero();
        let mut obj = crate::LinExpr::zero();
        for (v, w) in vars.iter().zip(weights) {
            cap += *v * w;
            obj += *v * (w + 0.9);
        }
        p.constrain(cap, Cmp::Le, 20.0);
        p.set_objective(obj);
        p
    }

    #[test]
    fn node_limit_reports_bound() {
        // A problem forcing branching with a tiny node budget.
        let p = twelve_item_knapsack();
        let limited = BranchAndBound::new(Limits {
            max_nodes: 2,
            ..Limits::default()
        });
        let s = limited.solve(&p).unwrap();
        // The proven bound must dominate the true optimum.
        let exact = Solver::new().solve(&p).unwrap();
        assert!(exact.is_optimal());
        assert!(s.proven_bound() >= exact.objective() - 1e-6);
    }

    #[test]
    fn children_warm_start_from_parent_bases() {
        let p = twelve_item_knapsack();
        let s = BranchAndBound::new(Limits::default()).solve(&p).unwrap();
        let stats = s.stats();
        assert!(stats.bb_nodes > 1, "knapsack must branch");
        assert_eq!(stats.lp_solves, stats.bb_nodes);
        assert!(
            stats.warm_start_hits > 0,
            "children inherit parent bases: {stats}"
        );
    }

    #[test]
    fn node_ordering_is_total_with_nan_bounds() {
        let mk = |bound: f64, depth: usize| Node {
            bounds: Vec::new(),
            bound,
            depth,
            basis: None,
        };
        let nan = mk(f64::NAN, 0);
        let fin = mk(5.0, 3);
        // The old `partial_cmp(..).unwrap_or(Equal)` made NaN compare
        // Equal to everything, breaking antisymmetry (and with it the
        // BinaryHeap invariants). `total_cmp` sorts NaN above +∞.
        assert_eq!(nan.cmp(&fin), Ordering::Greater);
        assert_eq!(fin.cmp(&nan), Ordering::Less);
        assert_eq!(nan.cmp(&mk(f64::NAN, 0)), Ordering::Equal);
        assert_eq!(nan.cmp(&mk(f64::INFINITY, 0)), Ordering::Greater);
        // PartialEq must agree with Ord (Eq is derived from it).
        assert!(nan == mk(f64::NAN, 0));
        assert!(nan != fin);
        assert!(mk(5.0, 1) != mk(5.0, 2));
        // A heap seeded with a NaN bound still drains in total order.
        let mut heap = BinaryHeap::from(vec![
            mk(1.0, 0),
            mk(f64::NAN, 1),
            mk(7.0, 2),
            mk(f64::NEG_INFINITY, 0),
            mk(f64::INFINITY, 0),
        ]);
        let mut popped = Vec::new();
        while let Some(n) = heap.pop() {
            popped.push(n.bound);
        }
        assert_eq!(popped.len(), 5);
        assert!(popped[0].is_nan());
        assert_eq!(popped[1], f64::INFINITY);
        assert_eq!(popped[2], 7.0);
        assert_eq!(popped[3], 1.0);
        assert_eq!(popped[4], f64::NEG_INFINITY);
    }

    #[test]
    fn equality_constrained_assignment() {
        // 2x2 assignment: minimize cost, each row/col exactly one.
        let costs = [[4.0, 2.0], [1.0, 5.0]];
        let mut p = Problem::minimize();
        let mut x = vec![];
        for i in 0..2 {
            for j in 0..2 {
                x.push(p.binary(format!("x{i}{j}")));
            }
        }
        for i in 0..2 {
            p.constrain(x[2 * i] + x[2 * i + 1], Cmp::Eq, 1.0);
            p.constrain(x[i] + x[i + 2], Cmp::Eq, 1.0);
        }
        p.set_objective(
            costs[0][0] * x[0] + costs[0][1] * x[1] + costs[1][0] * x[2] + costs[1][1] * x[3],
        );
        let s = Solver::new().solve(&p).unwrap();
        assert!((s.objective() - 3.0).abs() < 1e-6); // 2 + 1
    }

    #[test]
    fn big_m_disjunction() {
        // y >= x - M(1-b), y >= -x - M·b — the max() gadget used by the
        // schedulability formulation (Constraint 13 of the paper).
        let mut p = Problem::maximize();
        let y = p.continuous("y", 0.0, 100.0);
        let b = p.binary("b");
        let big_m = 1000.0;
        // maximize y s.t. y <= 7 + M·b, y <= 12 + M(1-b) → y can reach 12
        // only when b = 1... wait: y <= 7 + Mb (b=1 relaxes), y <= 12 +
        // M(1-b) (b=0 relaxes). Max y = max(7, 12) = 12 with b = 1.
        p.constrain(y - big_m * b, Cmp::Le, 7.0);
        p.constrain(y + big_m * b, Cmp::Le, 12.0 + big_m);
        p.set_objective(1.0 * y);
        let s = Solver::new().solve(&p).unwrap();
        assert!((s.objective() - 12.0).abs() < 1e-6);
    }
}
