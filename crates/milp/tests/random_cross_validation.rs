//! Property tests cross-validating the MILP solver against brute-force
//! enumeration, and the LP solver against random feasible points, plus
//! fixed checks of the exact audit: it certifies a mixed problem and
//! rejects a solution with one tampered value, and the simplex terminates
//! on Beale's cycling LP.

use proptest::prelude::*;

use pmcs_milp::{audit, Cmp, LinExpr, LpOutcome, Problem, Simplex, Solver};

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
    /// programs (objective may include negative coefficients).
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
        let sol = Solver::new().solve(&p).unwrap();
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

        let LpOutcome::Optimal(opt) = Simplex::new().solve(&p).unwrap() else {
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
        let LpOutcome::Optimal(lp) = Simplex::new().solve(&fixed).unwrap() else {
            panic!("fixed LP must stay feasible");
        };
        prop_assert!((lp.objective() - milp.objective()).abs() < 1e-6);
    }
}

/// `solve_audited` certifies the optimum of a fixed mixed problem
/// (continuous, general-integer and binary variables, `≤` and `≥` rows).
#[test]
fn solve_audited_certifies_a_mixed_problem() {
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
    // x = 4, then 2y + 3b <= 7: y = 3 (obj 18) beats y = 2, b = 1 (obj 17).
    assert!(
        (sol.objective() - 18.0).abs() < 1e-6,
        "obj={}",
        sol.objective()
    );
}

/// Negative test for the audit: a solution that differs from the true
/// optimum in exactly one value (here x, pinned to 3 by its bounds, is
/// reported as 0) must be rejected, even though its objective is
/// consistent with its own values.
#[test]
fn tampered_solution_fails_the_audit() {
    let mut p = Problem::maximize();
    let x = p.continuous("x", 3.0, 3.0);
    let y = p.continuous("y", 0.0, 10.0);
    p.constrain(x + y, Cmp::Le, 8.0);
    p.constrain(1.0 * y, Cmp::Le, 5.0);
    p.set_objective(2.0 * x + y);

    // Sanity: the untampered solve is certified.
    let clean = Solver::new().solve(&p).unwrap();
    assert!((clean.objective() - 11.0).abs() < 1e-6);
    assert!(audit::audit_solution(&p, &clean).certified());

    // The same solve with x forced to 0 yields the clean point with that
    // one value changed.
    let mut wrong_x = p.clone();
    wrong_x.fix(x, 0.0);
    let tampered = Solver::new().solve(&wrong_x).unwrap();
    let changed: Vec<usize> = (0..p.num_vars())
        .filter(|&i| (clean.values()[i] - tampered.values()[i]).abs() > 1e-9)
        .collect();
    assert_eq!(changed, vec![x.index()]);

    let report = audit::audit_solution(&p, &tampered);
    assert!(
        report.failed(),
        "audit must reject the tampered solution: {report:?}"
    );
}

/// Beale's classical cycling LP terminates at the right optimum (Bland
/// anti-cycling regression).
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
