//! Oracle tests for the presolve + revised-simplex pipeline.
//!
//! Every answer is checked by code that shares nothing with the
//! pipeline. The exact-rational audit proves the returned point feasible
//! in the *original* problem and its objective correctly evaluated; an
//! exact-rational branch-and-bound certificate ([`certify_upper_bound`],
//! re-checked by [`verify_bb_tree`]) proves that no point does better.
//! Together they pin the optimum. An infeasibility verdict must come
//! with a checked certificate that the objective is below any value a
//! feasible point could reach, which for a bounded box means no feasible
//! point exists. A corrupted presolve transform must *fail* the audit
//! (the negative test for the transform-inversion keystone).
//!
//! Coefficients are drawn on a quarter grid so the exact-rational
//! certificates stay within `i128`.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use pmcs_milp::{
    audit, certify_upper_bound, presolve, verify_bb_tree, CertifyLimits, Cmp, LinExpr, MilpError,
    MilpSolution, PresolveOutcome, Problem, Rational, Solver,
};

fn quarter(v: i32) -> f64 {
    f64::from(v) / 4.0
}

/// Proves `objective ≤ claimed` for the maximization problem `p` with an
/// exact-rational branch-and-bound certificate, re-checked by the
/// independent tree verifier.
fn prove_upper_bound(p: &Problem, claimed: f64) -> Result<(), String> {
    let claim = Rational::from_f64(claimed).ok_or("claim is not representable")?;
    let tree = certify_upper_bound(p, claim, &CertifyLimits::default())?;
    verify_bb_tree(p, &tree, claim).map(|_| ())
}

/// Asserts that `sol` is a proven optimum of the maximization problem
/// `p`: the audit accepts the point and its objective, and a certificate
/// shows nothing beats that objective by more than a float tolerance.
fn assert_proven_optimal(p: &Problem, sol: &MilpSolution) -> Result<(), TestCaseError> {
    prop_assert!(sol.is_optimal());
    let report = audit::audit_solution(p, sol);
    prop_assert!(
        !report.failed(),
        "audit failed: {:?}",
        report.problems().collect::<Vec<_>>()
    );
    let obj = sol.objective();
    let slack = 1e-7 * (1.0 + obj.abs());
    prove_upper_bound(p, obj + slack)
        .map_err(|e| TestCaseError::Fail(format!("optimum {obj} not proven: {e}")))
}

/// Random bounded LP: continuous vars in [0, ub], mixed Le/Ge rows.
/// Ge rows can make the program infeasible.
fn bounded_lp(ubs: &[f64], coeffs: &[f64], rows: &[(Vec<f64>, bool, f64)]) -> Problem {
    let mut p = Problem::maximize();
    let vars: Vec<_> = ubs
        .iter()
        .enumerate()
        .map(|(i, ub)| p.continuous(format!("x{i}"), 0.0, *ub))
        .collect();
    for (w, is_ge, rhs) in rows {
        let mut e = LinExpr::zero();
        for (v, c) in vars.iter().zip(w) {
            e += *v * *c;
        }
        p.constrain(e, if *is_ge { Cmp::Ge } else { Cmp::Le }, *rhs);
    }
    let mut obj = LinExpr::zero();
    for (v, c) in vars.iter().zip(coeffs) {
        obj += *v * *c;
    }
    p.set_objective(obj);
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random bounded LPs (pure continuous, so B&B solves just the root):
    /// optimal answers are proven optimal, infeasible verdicts proven
    /// infeasible.
    #[test]
    fn pipeline_is_proven_on_random_lps(
        ubs in prop::collection::vec(4i32..=40, 2..=5),
        coeffs in prop::collection::vec(-40i32..=40, 5),
        rows in prop::collection::vec(
            (prop::collection::vec(0i32..=20, 5), any::<bool>(), 2i32..=60),
            1..=4,
        ),
    ) {
        let n = ubs.len();
        let ubs: Vec<f64> = ubs.into_iter().map(quarter).collect();
        let coeffs: Vec<f64> = coeffs[..n].iter().copied().map(quarter).collect();
        let rows: Vec<(Vec<f64>, bool, f64)> = rows
            .into_iter()
            .map(|(w, g, r)| (w[..n].iter().copied().map(quarter).collect(), g, quarter(r)))
            .collect();
        let p = bounded_lp(&ubs, &coeffs, &rows);
        match Solver::new().solve(&p) {
            Ok(sol) => assert_proven_optimal(&p, &sol)?,
            Err(MilpError::Infeasible) => {
                // |objective| ≤ Σ|c_j|·ub_j ≤ 5·10·10 on the box, so a
                // proof of `objective ≤ −1000` exists only if no point is
                // feasible.
                prop_assert!(prove_upper_bound(&p, -1000.0).is_ok(),
                    "infeasibility verdict not proven");
            }
            Err(e) => prop_assert!(false, "unexpected solver error {e:?}"),
        }
    }

    /// Random window-style MILPs: binary "interval placement" vars plus a
    /// continuous slack, Le budget rows — the same shape as the analysis'
    /// busy-window programs.
    #[test]
    fn pipeline_is_proven_on_random_window_milps(
        bin_coeffs in prop::collection::vec(-8i32..=8, 2..=6),
        weights in prop::collection::vec(1i32..=6, 6),
        cap in 3i32..=18,
        slack_coeff in 1i32..=12,
    ) {
        let mut p = Problem::maximize();
        let bins: Vec<_> = (0..bin_coeffs.len()).map(|i| p.binary(format!("b{i}"))).collect();
        let slack = p.continuous("s", 0.0, 5.0);
        let mut use_expr = LinExpr::from(slack);
        for (b, w) in bins.iter().zip(&weights) {
            use_expr += *b * f64::from(*w);
        }
        p.constrain(use_expr, Cmp::Le, f64::from(cap));
        let mut obj = slack * quarter(slack_coeff);
        for (b, c) in bins.iter().zip(&bin_coeffs) {
            obj += *b * f64::from(*c);
        }
        p.set_objective(obj);

        let sol = Solver::new().solve(&p).unwrap();
        assert_proven_optimal(&p, &sol)?;
    }
}

/// `solve_audited` certifies the pipeline's answer on a fixed mixed
/// problem, and the optimum is proven.
#[test]
fn solve_audited_certifies_the_pipeline() {
    let mut p = Problem::maximize();
    let x = p.continuous("x", 0.0, 4.0);
    let y = p.integer("y", 0.0, 6.0);
    let b = p.binary("b");
    p.constrain(x + 2.0 * y + 3.0 * b, Cmp::Le, 11.0);
    p.constrain(x + y, Cmp::Ge, 2.0);
    p.set_objective(3.0 * x + 2.0 * y + 1.0 * b);

    let audited = Solver::new().solve_audited(&p).unwrap();
    let sol = audited.solution().expect("problem is feasible");
    assert!(
        audited.report.certified(),
        "audit not certified: {:?}",
        audited.report.problems().collect::<Vec<_>>()
    );
    // x = 4, y = 3, b = 0 → 18.
    assert!(
        (sol.objective() - 18.0).abs() < 1e-6,
        "obj={}",
        sol.objective()
    );
    prove_upper_bound(&p, sol.objective() + 1e-7).expect("optimum proven");
    // A claim below the optimum has no proof.
    assert!(prove_upper_bound(&p, sol.objective() - 0.5).is_err());
}

/// Negative test for the correctness keystone: corrupting a presolve
/// transform corrupts the restored solution, and the exact audit (which
/// always checks against the original problem) catches it.
#[test]
fn corrupted_transform_fails_the_audit() {
    let mut p = Problem::maximize();
    let x = p.continuous("x", 3.0, 3.0); // fixed by bounds → FixVar transform
    let y = p.continuous("y", 0.0, 10.0);
    p.constrain(x + y, Cmp::Le, 8.0);
    p.set_objective(2.0 * x + y);

    let PresolveOutcome::Reduced(mut program) = presolve(&p).unwrap() else {
        panic!("problem is feasible");
    };

    // Sanity: the untampered pipeline is certified.
    let clean = Solver::new().solve_program(&program).unwrap();
    assert!((clean.objective() - 11.0).abs() < 1e-6);
    assert!(!audit::audit_solution(&p, &clean).failed());

    // Corrupt the FixVar transform: restore now reports x=0 instead of 3.
    for t in program.transforms_mut() {
        if let pmcs_milp::Transform::FixVar { value, .. } = t {
            *value = 0.0;
        }
    }
    let tampered = Solver::new().solve_program(&program).unwrap();
    let report = audit::audit_solution(&p, &tampered);
    assert!(
        report.failed(),
        "audit must reject the corrupted restoration: {report:?}"
    );
}

/// Beale's classical cycling LP terminates at the right optimum through
/// the full pipeline (Bland anti-cycling regression).
#[test]
fn beale_example_terminates() {
    let mut p = Problem::minimize();
    let x1 = p.continuous("x1", 0.0, f64::INFINITY);
    let x2 = p.continuous("x2", 0.0, f64::INFINITY);
    let x3 = p.continuous("x3", 0.0, f64::INFINITY);
    let x4 = p.continuous("x4", 0.0, f64::INFINITY);
    p.constrain(0.25 * x1 - 8.0 * x2 - 1.0 * x3 + 9.0 * x4, Cmp::Le, 0.0);
    p.constrain(0.5 * x1 - 12.0 * x2 - 0.5 * x3 + 3.0 * x4, Cmp::Le, 0.0);
    p.constrain(1.0 * x3, Cmp::Le, 1.0);
    p.set_objective(-0.75 * x1 + 150.0 * x2 - 0.02 * x3 + 6.0 * x4);

    let sol = Solver::new().solve(&p).unwrap();
    assert!(sol.is_optimal());
    assert!(
        (sol.objective() + 0.77).abs() < 1e-6,
        "obj={}",
        sol.objective()
    );
}

/// Presolve can fix every variable (here through singleton rows); the
/// empty reduced problem must still restore to a full original point the
/// audit certifies.
#[test]
fn fully_presolved_problem_restores_the_point() {
    let mut p = Problem::maximize();
    let x = p.continuous("x", 0.0, 5.0);
    p.constrain(5.0 * x, Cmp::Le, 0.0);
    p.constrain(1.0 * x, Cmp::Le, 4.0);
    p.set_objective(-3.0 * x);

    let audited = Solver::new().solve_audited(&p).unwrap();
    let sol = audited.solution().expect("x = 0 is feasible");
    assert_eq!(sol.values(), &[0.0]);
    assert!(
        audited.report.certified(),
        "audit not certified: {:?}",
        audited.report.problems().collect::<Vec<_>>()
    );
}
