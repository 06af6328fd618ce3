//! MILP solution and solve status.

use std::fmt;

use crate::expr::Var;
use crate::stats::SolverStats;

/// How the branch & bound run ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SolveStatus {
    /// Proven optimal within tolerances.
    Optimal,
    /// A node/iteration limit was hit; the reported incumbent (if any) is
    /// feasible and `bound` is a proven bound on the true optimum
    /// (upper bound when maximizing, lower bound when minimizing).
    LimitReached {
        /// Proven bound on the optimal objective.
        bound: f64,
    },
}

/// Result of a MILP solve.
///
/// Obtained from [`Solver::solve`](crate::Solver::solve); see the
/// crate-level example.
#[derive(Debug, Clone, PartialEq)]
pub struct MilpSolution {
    pub(crate) values: Vec<f64>,
    pub(crate) objective: f64,
    pub(crate) status: SolveStatus,
    pub(crate) stats: SolverStats,
}

impl MilpSolution {
    /// Value of a variable in the best solution found.
    pub fn value(&self, var: Var) -> f64 {
        self.values[var.index()]
    }

    /// All variable values, indexed by variable index.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Objective of the best solution found.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Solve status (optimal vs. limit reached).
    pub fn status(&self) -> SolveStatus {
        self.status
    }

    /// A proven bound on the true optimum: equal to the objective when
    /// optimal, the remaining tree bound when a limit was reached.
    pub fn proven_bound(&self) -> f64 {
        match self.status {
            SolveStatus::Optimal => self.objective,
            SolveStatus::LimitReached { bound } => bound,
        }
    }

    /// Branch-and-bound nodes explored.
    pub fn nodes(&self) -> usize {
        self.stats.bb_nodes as usize
    }

    /// Full solver-effort record for this solve (nodes, LP solves,
    /// pivots).
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// `true` iff the solution is proven optimal.
    pub fn is_optimal(&self) -> bool {
        matches!(self.status, SolveStatus::Optimal)
    }
}

impl fmt::Display for MilpSolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "objective {} ({} nodes, {})",
            self.objective,
            self.stats.bb_nodes,
            match self.status {
                SolveStatus::Optimal => "optimal".to_string(),
                SolveStatus::LimitReached { bound } => format!("limit reached, bound {bound}"),
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let s = MilpSolution {
            values: vec![1.0, 0.0],
            objective: 5.0,
            status: SolveStatus::Optimal,
            stats: SolverStats {
                bb_nodes: 3,
                ..SolverStats::default()
            },
        };
        assert_eq!(s.value(Var(0)), 1.0);
        assert_eq!(s.values(), &[1.0, 0.0]);
        assert_eq!(s.objective(), 5.0);
        assert_eq!(s.proven_bound(), 5.0);
        assert!(s.is_optimal());
        assert_eq!(s.nodes(), 3);
        assert!(s.to_string().contains("optimal"));
    }

    #[test]
    fn limit_reached_reports_bound() {
        let s = MilpSolution {
            values: vec![],
            objective: 4.0,
            status: SolveStatus::LimitReached { bound: 6.0 },
            stats: SolverStats {
                bb_nodes: 100,
                ..SolverStats::default()
            },
        };
        assert!(!s.is_optimal());
        assert_eq!(s.proven_bound(), 6.0);
        assert!(s.to_string().contains("bound 6"));
    }
}
