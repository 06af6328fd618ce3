//! Two-phase primal simplex with bounded variables.
//!
//! The solver keeps a dense tableau `T = B⁻¹A` together with an explicit
//! value vector; variables may be non-basic at their lower *or* upper bound,
//! so variable bounds never become rows. Entering variables are priced with
//! Dantzig's rule, falling back to Bland's rule after a run of degenerate
//! iterations (guaranteeing termination).

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

/// LP solver configuration.
#[derive(Debug, Clone)]
pub struct Simplex {
    /// Maximum pivots per phase before reporting numerical trouble.
    pub max_iterations: usize,
    /// Feasibility / optimality tolerance.
    pub tol: f64,
    /// Degenerate-iteration run length that triggers Bland's rule.
    pub bland_trigger: usize,
}

impl Default for Simplex {
    fn default() -> Self {
        Simplex {
            max_iterations: 50_000,
            tol: 1e-7,
            bland_trigger: 64,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColStatus {
    Basic(usize),
    AtLower,
    AtUpper,
}

/// Internal standardized LP: `rows` equations over `ncols` columns
/// (structural + split + slack), followed by `rows` artificial columns.
struct Tableau {
    m: usize,
    /// Total columns including artificials.
    n: usize,
    /// First artificial column index.
    art0: usize,
    /// Row-major dense `B⁻¹A`, m rows × n cols.
    t: Vec<f64>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    status: Vec<ColStatus>,
    basis: Vec<usize>,
    /// Current value of every column.
    x: Vec<f64>,
    /// Phase cost vector (internal minimization).
    cost: Vec<f64>,
    /// Reduced-cost row, maintained by pivots.
    d: Vec<f64>,
}

impl Tableau {
    #[inline]
    fn at(&self, r: usize, c: usize) -> f64 {
        self.t[r * self.n + c]
    }

    #[inline]
    fn at_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        &mut self.t[r * self.n + c]
    }

    fn objective(&self) -> f64 {
        self.cost
            .iter()
            .zip(&self.x)
            .map(|(c, x)| c * x)
            .sum::<f64>()
    }

    /// Recomputes the reduced-cost row from the current cost vector:
    /// `d_j = c_j − Σ_i c_{B(i)} T[i][j]`.
    fn refresh_reduced_costs(&mut self) {
        let mut d = self.cost.clone();
        for r in 0..self.m {
            let cb = self.cost[self.basis[r]];
            if cb != 0.0 {
                for (j, dj) in d.iter_mut().enumerate() {
                    *dj -= cb * self.at(r, j);
                }
            }
        }
        self.d = d;
    }

    /// Applies a pivot at `(row, col)`: row reduction of T and d.
    fn eliminate(&mut self, row: usize, col: usize) {
        let piv = self.at(row, col);
        debug_assert!(piv.abs() > 1e-12, "pivot too small");
        let inv = 1.0 / piv;
        for j in 0..self.n {
            *self.at_mut(row, j) *= inv;
        }
        // Clean the pivot column for exactness.
        *self.at_mut(row, col) = 1.0;
        for r in 0..self.m {
            if r == row {
                continue;
            }
            let factor = self.at(r, col);
            if factor != 0.0 {
                for j in 0..self.n {
                    let v = self.at(row, j);
                    *self.at_mut(r, j) -= factor * v;
                }
                *self.at_mut(r, col) = 0.0;
            }
        }
        let dfac = self.d[col];
        if dfac != 0.0 {
            for j in 0..self.n {
                self.d[j] -= dfac * self.at(row, j);
            }
            self.d[col] = 0.0;
        }
    }
}

enum PhaseResult {
    Converged,
    Unbounded,
}

impl Simplex {
    /// Creates a solver with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solves the LP relaxation of `problem` (integrality ignored).
    ///
    /// # Errors
    ///
    /// Returns [`MilpError::InvalidProblem`] for malformed problems and
    /// [`MilpError::NumericalTrouble`] if a phase fails to converge within
    /// [`Simplex::max_iterations`].
    pub fn solve(&self, problem: &Problem) -> Result<LpOutcome, MilpError> {
        let bounds: Vec<(f64, f64)> = (0..problem.num_vars())
            .map(|i| problem.var_bounds(Var(i)))
            .collect();
        self.solve_with_bounds(problem, &bounds)
    }

    /// Solves the LP relaxation with overridden variable bounds (used by
    /// branch & bound to avoid rebuilding the problem per node).
    ///
    /// # Errors
    ///
    /// See [`Simplex::solve`]. Additionally returns
    /// [`MilpError::InvalidProblem`] if `bounds.len()` differs from the
    /// problem's variable count or a pair is inverted.
    pub fn solve_with_bounds(
        &self,
        problem: &Problem,
        bounds: &[(f64, f64)],
    ) -> Result<LpOutcome, MilpError> {
        self.solve_with_bounds_counted(problem, bounds)
            .map(|(outcome, _)| outcome)
    }

    /// [`Simplex::solve_with_bounds`] plus the number of simplex
    /// iterations performed (pivots and bound flips), feeding
    /// [`SolverStats`](crate::SolverStats).
    ///
    /// # Errors
    ///
    /// See [`Simplex::solve_with_bounds`].
    pub fn solve_with_bounds_counted(
        &self,
        problem: &Problem,
        bounds: &[(f64, f64)],
    ) -> Result<(LpOutcome, u64), MilpError> {
        let mut pivots = 0u64;
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

        // --- Standardization -------------------------------------------
        // Column layout: for each original var, one column (or two when
        // free in both directions: x = x⁺ − x⁻); then one slack per
        // inequality row; then one artificial per row.
        let nvars = problem.num_vars();
        let m = problem.num_constraints();

        // col_of[i] = (column, optional negative-part column)
        let mut col_of: Vec<(usize, Option<usize>)> = Vec::with_capacity(nvars);
        let mut lower = Vec::new();
        let mut upper = Vec::new();
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
        let _structural = lower.len();
        // Slacks.
        let mut slack_of_row: Vec<Option<usize>> = vec![None; m];
        for (k, c) in problem.constraints.iter().enumerate() {
            if matches!(c.cmp, Cmp::Le | Cmp::Ge) {
                let col = lower.len();
                lower.push(0.0);
                upper.push(f64::INFINITY);
                slack_of_row[k] = Some(col);
            }
        }
        let art0 = lower.len();
        for _ in 0..m {
            lower.push(0.0);
            upper.push(f64::INFINITY);
        }
        let n = lower.len();

        // Dense rows.
        let mut t = vec![0.0; m * n];
        let mut b = vec![0.0; m];
        for (k, c) in problem.constraints.iter().enumerate() {
            for (v, coeff) in c.expr.iter() {
                let (pos, neg) = col_of[v.index()];
                t[k * n + pos] += coeff;
                if let Some(negc) = neg {
                    t[k * n + negc] -= coeff;
                }
            }
            if let Some(s) = slack_of_row[k] {
                t[k * n + s] = match c.cmp {
                    Cmp::Le => 1.0,
                    Cmp::Ge => -1.0,
                    Cmp::Eq => unreachable!(),
                };
            }
            b[k] = c.rhs;
        }

        // Initial non-basic placement: prefer finite lower bound.
        let mut status = vec![ColStatus::AtLower; n];
        let mut x = vec![0.0; n];
        for j in 0..art0 {
            if lower[j].is_finite() {
                status[j] = ColStatus::AtLower;
                x[j] = lower[j];
            } else {
                // upper must be finite (free vars were split).
                status[j] = ColStatus::AtUpper;
                x[j] = upper[j];
            }
        }

        // Row residuals determine artificial signs; negate rows with
        // negative residual so artificials start at non-negative values.
        let mut basis = Vec::with_capacity(m);
        for k in 0..m {
            let mut resid = b[k];
            for j in 0..art0 {
                resid -= t[k * n + j] * x[j];
            }
            if resid < 0.0 {
                for j in 0..art0 {
                    t[k * n + j] = -t[k * n + j];
                }
                resid = -resid;
            }
            let art = art0 + k;
            t[k * n + art] = 1.0;
            status[art] = ColStatus::Basic(k);
            x[art] = resid;
            basis.push(art);
        }

        let mut tab = Tableau {
            m,
            n,
            art0,
            t,
            lower,
            upper,
            status,
            basis,
            x,
            cost: vec![0.0; n],
            d: vec![0.0; n],
        };

        // --- Phase 1 ----------------------------------------------------
        for j in art0..n {
            tab.cost[j] = 1.0;
        }
        tab.refresh_reduced_costs();
        match self.run_phase(
            &mut tab,
            /*phase=*/ 1,
            /*allow_art=*/ true,
            &mut pivots,
        )? {
            PhaseResult::Unbounded => {
                // Phase-1 objective is bounded below by 0; this cannot
                // happen with exact arithmetic.
                return Err(MilpError::NumericalTrouble {
                    phase: 1,
                    iterations: self.max_iterations,
                });
            }
            PhaseResult::Converged => {}
        }
        if tab.objective() > self.tol * (1.0 + b_norm(problem)) {
            return Ok((LpOutcome::Infeasible, pivots));
        }
        // Drive basic artificials out where possible (degenerate pivots).
        for r in 0..m {
            let bcol = tab.basis[r];
            if bcol >= art0 {
                let mut pivot_col = None;
                for j in 0..art0 {
                    if !matches!(tab.status[j], ColStatus::Basic(_)) && tab.at(r, j).abs() > 1e-9 {
                        pivot_col = Some(j);
                        break;
                    }
                }
                if let Some(q) = pivot_col {
                    // Degenerate pivot (step 0): statuses swap, values stay.
                    tab.eliminate(r, q);
                    tab.status[q] = ColStatus::Basic(r);
                    tab.status[bcol] = ColStatus::AtLower;
                    tab.x[bcol] = 0.0;
                    tab.basis[r] = q;
                }
                // Otherwise the row is redundant: the artificial stays
                // basic at 0 and, having only zero coefficients against
                // non-basic structurals, never changes value.
            }
        }
        // Artificials may not re-enter: pin their range.
        for j in art0..n {
            tab.upper[j] = 0.0;
            tab.lower[j] = 0.0;
        }

        // --- Phase 2 ----------------------------------------------------
        let sign = match problem.direction() {
            Objective::Minimize => 1.0,
            Objective::Maximize => -1.0,
        };
        tab.cost = vec![0.0; n];
        for (v, coeff) in problem.objective.iter() {
            let (pos, neg) = col_of[v.index()];
            tab.cost[pos] += sign * coeff;
            if let Some(negc) = neg {
                tab.cost[negc] -= sign * coeff;
            }
        }
        tab.refresh_reduced_costs();
        match self.run_phase(&mut tab, 2, false, &mut pivots)? {
            PhaseResult::Unbounded => return Ok((LpOutcome::Unbounded, pivots)),
            PhaseResult::Converged => {}
        }

        // --- Extraction --------------------------------------------------
        let mut values = vec![0.0; nvars];
        for (i, &(pos, neg)) in col_of.iter().enumerate() {
            values[i] = tab.x[pos] - neg.map(|c| tab.x[c]).unwrap_or(0.0);
        }
        let objective = problem.objective.evaluate(&values);
        Ok((LpOutcome::Optimal(LpSolution { values, objective }), pivots))
    }

    /// Runs one simplex phase to optimality.
    fn run_phase(
        &self,
        tab: &mut Tableau,
        phase: u8,
        allow_artificial_entering: bool,
        pivots: &mut u64,
    ) -> Result<PhaseResult, MilpError> {
        let mut degenerate_run = 0usize;
        let mut use_bland = false;
        let mut last_obj = tab.objective();

        for _iter in 0..self.max_iterations {
            // --- Pricing -------------------------------------------------
            let limit = if allow_artificial_entering {
                tab.n
            } else {
                tab.art0
            };
            let mut entering: Option<(usize, f64, f64)> = None; // (col, |d|, sigma)
            for j in 0..limit {
                let eligible = match tab.status[j] {
                    ColStatus::AtLower => tab.d[j] < -self.tol,
                    ColStatus::AtUpper => tab.d[j] > self.tol,
                    ColStatus::Basic(_) => false,
                };
                if !eligible {
                    continue;
                }
                // Columns with zero range can only produce degenerate
                // bound flips; skip them.
                if tab.upper[j] - tab.lower[j] <= 0.0 {
                    continue;
                }
                let sigma = if matches!(tab.status[j], ColStatus::AtLower) {
                    1.0
                } else {
                    -1.0
                };
                if use_bland {
                    entering = Some((j, tab.d[j].abs(), sigma));
                    break;
                }
                match entering {
                    Some((_, best, _)) if tab.d[j].abs() <= best => {}
                    _ => entering = Some((j, tab.d[j].abs(), sigma)),
                }
            }
            let Some((q, _, sigma)) = entering else {
                return Ok(PhaseResult::Converged);
            };
            *pivots += 1;

            // --- Ratio test ---------------------------------------------
            // Entering variable moves by σ·t, basic values change by
            // −σ·t·T[i][q].
            let mut t_max = tab.upper[q] - tab.lower[q]; // own-range limit
            let mut leaving: Option<(usize, bool)> = None; // (row, leaves_at_upper)
            for r in 0..tab.m {
                let a = tab.at(r, q) * sigma;
                if a.abs() <= 1e-9 {
                    continue;
                }
                let bcol = tab.basis[r];
                let (limit_t, at_upper) = if a > 0.0 {
                    // Basic decreases towards its lower bound.
                    if tab.lower[bcol] == f64::NEG_INFINITY {
                        continue;
                    }
                    ((tab.x[bcol] - tab.lower[bcol]) / a, false)
                } else {
                    // Basic increases towards its upper bound.
                    if tab.upper[bcol] == f64::INFINITY {
                        continue;
                    }
                    ((tab.upper[bcol] - tab.x[bcol]) / (-a), true)
                };
                let limit_t = limit_t.max(0.0);
                if limit_t < t_max - 1e-12 {
                    t_max = limit_t;
                    leaving = Some((r, at_upper));
                } else if (limit_t - t_max).abs() <= 1e-12 {
                    // Tie-break on smallest basis column (anti-cycling aid).
                    match leaving {
                        Some((r0, _)) if tab.basis[r0] <= bcol => {}
                        _ => {
                            t_max = t_max.min(limit_t);
                            leaving = Some((r, at_upper));
                        }
                    }
                }
            }

            if t_max == f64::INFINITY {
                return Ok(PhaseResult::Unbounded);
            }

            // --- Apply step ----------------------------------------------
            let step = sigma * t_max;
            if t_max > 0.0 {
                for r in 0..tab.m {
                    let a = tab.at(r, q);
                    if a != 0.0 {
                        let bcol = tab.basis[r];
                        tab.x[bcol] -= step * a;
                    }
                }
                tab.x[q] += step;
            }

            match leaving {
                None => {
                    // Bound flip: entering variable traverses its range.
                    tab.status[q] = if sigma > 0.0 {
                        tab.x[q] = tab.upper[q];
                        ColStatus::AtUpper
                    } else {
                        tab.x[q] = tab.lower[q];
                        ColStatus::AtLower
                    };
                }
                Some((r, at_upper)) => {
                    let bcol = tab.basis[r];
                    // Snap the leaving variable exactly to its bound.
                    tab.x[bcol] = if at_upper {
                        tab.upper[bcol]
                    } else {
                        tab.lower[bcol]
                    };
                    tab.status[bcol] = if at_upper {
                        ColStatus::AtUpper
                    } else {
                        ColStatus::AtLower
                    };
                    tab.status[q] = ColStatus::Basic(r);
                    tab.basis[r] = q;
                    tab.eliminate(r, q);
                }
            }

            // --- Degeneracy bookkeeping ----------------------------------
            let obj = tab.objective();
            if obj < last_obj - self.tol {
                degenerate_run = 0;
                last_obj = obj;
            } else {
                degenerate_run += 1;
                if degenerate_run >= self.bland_trigger {
                    use_bland = true;
                }
            }
        }
        Err(MilpError::NumericalTrouble {
            phase,
            iterations: self.max_iterations,
        })
    }
}

/// Scale factor for the phase-1 infeasibility test.
fn b_norm(problem: &Problem) -> f64 {
    problem
        .constraints
        .iter()
        .map(|c| c.rhs.abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Cmp;

    fn solve(p: &Problem) -> LpOutcome {
        Simplex::new().solve(p).unwrap()
    }

    fn optimal(p: &Problem) -> LpSolution {
        match solve(p) {
            LpOutcome::Optimal(s) => s,
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn textbook_maximize() {
        // max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18 → x=2, y=6, obj=36
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
    fn minimize_with_ge_constraints() {
        // min 2x + 3y s.t. x + y >= 4, x >= 1 → x=4? no: y=0,x=4 obj 8;
        // or x=1,y=3 obj 11. Optimal x=4,y=0 → 8.
        let mut p = Problem::minimize();
        let x = p.continuous("x", 0.0, f64::INFINITY);
        let y = p.continuous("y", 0.0, f64::INFINITY);
        p.constrain(x + y, Cmp::Ge, 4.0);
        p.constrain(1.0 * x, Cmp::Ge, 1.0);
        p.set_objective(2.0 * x + 3.0 * y);
        let s = optimal(&p);
        assert!((s.objective() - 8.0).abs() < 1e-6);
    }

    #[test]
    fn equality_constraints() {
        // max x + y s.t. x + y = 5, x - y = 1 → x=3, y=2
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
        assert_eq!(solve(&p), LpOutcome::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::maximize();
        let x = p.continuous("x", 0.0, f64::INFINITY);
        p.set_objective(1.0 * x);
        assert_eq!(solve(&p), LpOutcome::Unbounded);
    }

    #[test]
    fn bounded_by_variable_upper_bounds_only() {
        let mut p = Problem::maximize();
        let x = p.continuous("x", 0.0, 3.5);
        let y = p.continuous("y", 1.0, 2.0);
        p.set_objective(x + y);
        let s = optimal(&p);
        assert!((s.objective() - 5.5).abs() < 1e-9);
    }

    #[test]
    fn negative_lower_bounds() {
        // min x s.t. x >= -3 (bound), x + 5 >= 0 → x = -3
        let mut p = Problem::minimize();
        let x = p.continuous("x", -3.0, 10.0);
        p.constrain(x + 5.0, Cmp::Ge, 0.0);
        p.set_objective(1.0 * x);
        let s = optimal(&p);
        assert!((s.value(x) + 3.0).abs() < 1e-9);
    }

    #[test]
    fn free_variable_is_split() {
        // min y s.t. y >= x - 4, y >= -x → min at x=2, y=-2
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
    fn objective_constant_carried_through() {
        let mut p = Problem::maximize();
        let x = p.continuous("x", 0.0, 2.0);
        p.set_objective(x + 10.0);
        let s = optimal(&p);
        assert!((s.objective() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degeneracy: redundant constraints through the optimum.
        let mut p = Problem::maximize();
        let x = p.continuous("x", 0.0, f64::INFINITY);
        let y = p.continuous("y", 0.0, f64::INFINITY);
        p.constrain(x + y, Cmp::Le, 1.0);
        p.constrain(2.0 * x + 2.0 * y, Cmp::Le, 2.0);
        p.constrain(x + 2.0 * y, Cmp::Le, 2.0);
        p.set_objective(x + y);
        let s = optimal(&p);
        assert!((s.objective() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn beale_cycling_example_terminates() {
        // Beale's classical cycling LP (terminates thanks to Bland fallback).
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
        // Optimum: x3=1, x4=0, x2=0, x1 bound by row 2 → x1=1, obj −0.77.
        assert!((s.objective() + 0.77).abs() < 1e-6, "obj={}", s.objective());
    }

    #[test]
    fn solve_with_bounds_overrides() {
        let mut p = Problem::maximize();
        let x = p.continuous("x", 0.0, 10.0);
        p.set_objective(1.0 * x);
        let s = match Simplex::new().solve_with_bounds(&p, &[(0.0, 3.0)]).unwrap() {
            LpOutcome::Optimal(s) => s,
            other => panic!("{other:?}"),
        };
        assert!((s.objective() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn override_bounds_validation() {
        let mut p = Problem::maximize();
        let x = p.continuous("x", 0.0, 10.0);
        p.set_objective(1.0 * x);
        assert!(Simplex::new().solve_with_bounds(&p, &[]).is_err());
        assert!(Simplex::new().solve_with_bounds(&p, &[(5.0, 1.0)]).is_err());
    }

    #[test]
    fn fixed_variables_via_equal_bounds() {
        let mut p = Problem::maximize();
        let x = p.continuous("x", 2.0, 2.0);
        let y = p.continuous("y", 0.0, 5.0);
        p.constrain(x + y, Cmp::Le, 4.0);
        p.set_objective(x + y);
        let s = optimal(&p);
        assert!((s.value(x) - 2.0).abs() < 1e-9);
        assert!((s.objective() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_equality_system() {
        let mut p = Problem::minimize();
        let x = p.continuous("x", 0.0, 10.0);
        p.constrain(1.0 * x, Cmp::Eq, 3.0);
        p.constrain(1.0 * x, Cmp::Eq, 4.0);
        p.set_objective(1.0 * x);
        assert_eq!(solve(&p), LpOutcome::Infeasible);
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
    fn solution_values_slice() {
        let mut p = Problem::maximize();
        let x = p.continuous("x", 0.0, 1.0);
        let y = p.continuous("y", 0.0, 2.0);
        p.set_objective(x + y);
        let s = optimal(&p);
        assert_eq!(s.values().len(), 2);
        assert!(p.is_feasible(s.values(), 1e-7));
    }
}
