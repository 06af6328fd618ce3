//! # pmcs-milp
//!
//! A self-contained linear-programming and mixed-integer-linear-programming
//! solver, built from scratch for the `pmcs` workspace. It replaces the
//! commercial solver (IBM CPLEX) used by the original paper.
//!
//! The solver is one pipeline:
//!
//! 1. **Problem IR** ([`problem`], [`expr`]) — variables, bounds,
//!    constraints, objective.
//! 2. **LP relaxation** ([`simplex`]) — a dense-tableau two-phase
//!    primal simplex with bounded variables, Dantzig pricing and a
//!    Bland's-rule fallback on degenerate runs.
//! 3. **Branch & bound** ([`branch`]) — best-first search on the
//!    inherited LP bound, branching on the most fractional integral
//!    variable; every node solves its relaxation from scratch.
//! 4. **Exact audit** ([`audit`], [`exact`], [`certify`]) — rational
//!    re-verification of answers and proof-tree certificates.
//!
//! Solver effort (B&B nodes, LP solves and pivots) is threaded through
//! every stage as [`SolverStats`].
//!
//! ## Correctness keystone
//!
//! [`Solver::solve_audited`] re-verifies answers with exact rational
//! arithmetic against the problem it was given, so a floating-point slip
//! anywhere in the simplex or the branch-and-bound bookkeeping surfaces
//! as an audit failure instead of silently shifting the analysis.
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
pub mod problem;
pub mod rational;
pub mod simplex;
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
pub use problem::{Cmp, ConstraintRef, Objective, Problem, VarKind};
pub use rational::Rational;
pub use simplex::{LpOutcome, LpSolution, Simplex};
pub use solution::{MilpSolution, SolveStatus};
pub use stats::SolverStats;

/// Front-door MILP solver with default limits.
///
/// Thin convenience wrapper over [`BranchAndBound`]; see the crate-level
/// example.
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
    /// # Errors
    ///
    /// Returns [`MilpError`] if the problem is infeasible, unbounded, or
    /// numerically intractable. Hitting a node/iteration limit is *not* an
    /// error: the returned solution carries [`SolveStatus::LimitReached`]
    /// together with the best proven bound.
    pub fn solve(&self, problem: &Problem) -> Result<MilpSolution, MilpError> {
        BranchAndBound::new(self.limits.clone()).solve(problem)
    }

    /// Solves the problem and re-verifies the solver's answer with exact
    /// rational arithmetic (see [`audit`]).
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
