//! Property tests cross-validating the MILP solver against brute-force
//! enumeration and the exact-rational audit, and the LP solver against
//! random feasible points.

use proptest::prelude::*;

use pmcs_milp::{Cmp, LinExpr, LpOutcome, Problem, RevisedSimplex, Solver};

/// Solves the LP relaxation of `p` under its own bounds.
fn solve_lp(p: &Problem) -> LpOutcome {
    let bounds: Vec<(f64, f64)> = p.vars().map(|v| p.var_bounds(v)).collect();
    RevisedSimplex::default()
        .solve_with_bounds(p, &bounds, None)
        .expect("well-formed LP")
        .outcome
}

/// Builds a random binary program with non-negative constraint weights so
/// the all-zero point is always feasible.
fn binary_program(
    objective: &[i32],
    constraints: &[(Vec<i32>, i32)],
) -> (Problem, Vec<pmcs_milp::Var>) {
    let n = objective.len();
    let mut p = Problem::maximize();
    let vars: Vec<_> = (0..n).map(|i| p.binary(format!("b{i}"))).collect();
    for (weights, cap) in constraints {
        let mut e = LinExpr::zero();
        for (v, w) in vars.iter().zip(weights) {
            e += *v * f64::from(*w);
        }
        p.constrain(e, Cmp::Le, f64::from(*cap));
    }
    let mut obj = LinExpr::zero();
    for (v, c) in vars.iter().zip(objective) {
        obj += *v * f64::from(*c);
    }
    p.set_objective(obj);
    (p, vars)
}

/// Exhaustive optimum over all binary assignments.
fn brute_force(objective: &[i32], constraints: &[(Vec<i32>, i32)]) -> f64 {
    let n = objective.len();
    let mut best = f64::NEG_INFINITY;
    for mask in 0u32..(1 << n) {
        let feasible = constraints.iter().all(|(w, cap)| {
            let lhs: i32 = (0..n)
                .map(|i| if mask >> i & 1 == 1 { w[i] } else { 0 })
                .sum();
            lhs <= *cap
        });
        if feasible {
            let obj: i32 = (0..n)
                .map(|i| if mask >> i & 1 == 1 { objective[i] } else { 0 })
                .sum();
            best = best.max(f64::from(obj));
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Branch & bound matches brute-force enumeration on random binary
    /// programs (objective may include negative coefficients), and the
    /// exact audit certifies the answer.
    #[test]
    fn bnb_matches_brute_force(
        objective in prop::collection::vec(-20i32..=20, 2..=7),
        raw_constraints in prop::collection::vec(
            (prop::collection::vec(0i32..=10, 7), 0i32..=30),
            1..=3,
        ),
    ) {
        let n = objective.len();
        let constraints: Vec<(Vec<i32>, i32)> = raw_constraints
            .into_iter()
            .map(|(w, cap)| (w[..n].to_vec(), cap))
            .collect();
        let (p, _) = binary_program(&objective, &constraints);
        let audited = Solver::new().solve_audited(&p).unwrap();
        prop_assert!(audited.report.certified(),
            "audit not certified: {:?}", audited.report.problems().collect::<Vec<_>>());
        let sol = audited.solution().expect("all-zero point is feasible");
        prop_assert!(sol.is_optimal());
        let expected = brute_force(&objective, &constraints);
        prop_assert!((sol.objective() - expected).abs() < 1e-6,
            "solver found {}, brute force {}", sol.objective(), expected);
        // The reported point must itself be feasible and achieve the value.
        prop_assert!(p.is_feasible(sol.values(), 1e-6));
    }

    /// The LP optimum dominates every random feasible point and the
    /// returned vertex is feasible.
    #[test]
    fn lp_optimum_dominates_feasible_points(
        coeffs in prop::collection::vec(-10.0f64..10.0, 3),
        rows in prop::collection::vec(
            (prop::collection::vec(0.1f64..5.0, 3), 1.0f64..20.0),
            1..=4,
        ),
        sample in prop::collection::vec(0.0f64..1.0, 3),
    ) {
        let mut p = Problem::maximize();
        let vars: Vec<_> = (0..3).map(|i| p.continuous(format!("x{i}"), 0.0, 10.0)).collect();
        for (w, cap) in &rows {
            let mut e = LinExpr::zero();
            for (v, c) in vars.iter().zip(w) {
                e += *v * *c;
            }
            p.constrain(e, Cmp::Le, *cap);
        }
        let mut obj = LinExpr::zero();
        for (v, c) in vars.iter().zip(&coeffs) {
            obj += *v * *c;
        }
        p.set_objective(obj.clone());

        let LpOutcome::Optimal(opt) = solve_lp(&p) else {
            // All-zeros is feasible and bounds are finite, so the LP is
            // neither infeasible nor unbounded.
            panic!("expected optimal");
        };
        prop_assert!(p.is_feasible(opt.values(), 1e-6));

        // Scale the random sample into the feasible region.
        let mut point: Vec<f64> = sample;
        for (w, cap) in &rows {
            let lhs: f64 = point.iter().zip(w).map(|(x, c)| x * c).sum();
            if lhs > *cap {
                let scale = *cap / lhs;
                for x in &mut point {
                    *x *= scale;
                }
            }
        }
        prop_assert!(p.is_feasible(&point, 1e-6));
        let sampled = obj.evaluate(&point);
        prop_assert!(opt.objective() >= sampled - 1e-6,
            "optimum {} below feasible point {}", opt.objective(), sampled);
    }

    /// Mixed problems: fixing the binaries of the B&B solution and
    /// re-solving the LP cannot improve the objective.
    #[test]
    fn fixing_binaries_reproduces_milp_objective(
        cont_coeff in 0.5f64..5.0,
        bin_coeffs in prop::collection::vec(-5.0f64..5.0, 2..=4),
        cap in 2.0f64..12.0,
    ) {
        let mut p = Problem::maximize();
        let x = p.continuous("x", 0.0, 4.0);
        let bins: Vec<_> = (0..bin_coeffs.len()).map(|i| p.binary(format!("b{i}"))).collect();
        let mut use_expr = LinExpr::from(x);
        for b in &bins {
            use_expr += *b * 2.0;
        }
        p.constrain(use_expr, Cmp::Le, cap);
        let mut obj = x * cont_coeff;
        for (b, c) in bins.iter().zip(&bin_coeffs) {
            obj += *b * *c;
        }
        p.set_objective(obj);

        let milp = Solver::new().solve(&p).unwrap();
        prop_assert!(milp.is_optimal());

        // Fix binaries to the solved values; LP optimum must equal MILP.
        let mut fixed = p.clone();
        for b in &bins {
            let v = milp.value(*b).round();
            fixed.fix(*b, v);
        }
        let LpOutcome::Optimal(lp) = solve_lp(&fixed) else {
            panic!("fixed LP must stay feasible");
        };
        prop_assert!((lp.objective() - milp.objective()).abs() < 1e-6);
    }
}
