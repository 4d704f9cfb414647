//! Exact rational linear programming: a cold two-phase primal simplex
//! on the shared kernel in `simplex.rs`.
//!
//! The kernel pivots integer rows. Each constraint enters as its own row
//! scaled by the lcm of its coefficients' denominators, so its slack (or,
//! for a negative right-hand side, its artificial) entry is that lcm, the
//! row's positive denominator. The optimum comes back as an exact
//! [`Rational`].
//!
//! Used for fast *sound* redundancy elimination on projection outputs:
//! a constraint is dropped only when the LP proves the rest of the system
//! implies it. Strict inequalities are relaxed to their closures, which
//! can only make the check more conservative (we keep a constraint we
//! might have dropped — never the reverse).
//!
//! # Performance
//!
//! The tableau and the kernel's scratch live in thread-local storage
//! (mirroring the `DinicSolver` re-solve pattern in the flow crate), so
//! repeated solves reuse one allocation. Both phases pick their pivots
//! by the kernel's one rule, Dantzig's on the exact integer row with
//! Bland's after a stall; the rule shapes the pivot path, never an
//! answer.
//!
//! There is no result cache: every call solves. The callers ask each
//! question once where they can see a repeat (the flow layer's
//! simplification keeps its answers per capacity difference, region
//! subtraction skips splits that are empty by inspection), and what
//! repeats were left cost less to solve again than a cache cost to hash
//! and compare whole systems.

use crate::bigint::BigInt;
use crate::linear::{Constraint, LinExpr};
use crate::rational::Rational;
use crate::simplex::{primal, write_row, Phase, Scratch, Tableau};
use std::cell::RefCell;

/// Outcome of an LP solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpResult {
    /// The constraint system (closure) has no solution.
    Infeasible,
    /// The objective is unbounded above.
    Unbounded,
    /// The maximum value of the objective.
    Optimal(Rational),
}

#[derive(Default)]
struct LpTls {
    tableau: Tableau,
    scratch: Scratch,
}

thread_local! {
    static LP_TLS: RefCell<LpTls> = RefCell::new(LpTls::default());
}

/// Maximizes `objective` subject to the *closures* of `constraints`
/// (each `expr >= 0` / `expr > 0` is treated as `expr >= 0`).
///
/// Variables are free (unbounded in both directions); internally each is
/// split into a difference of two non-negatives.
pub fn maximize(objective: &LinExpr, constraints: &[Constraint]) -> LpResult {
    offload_obs::tally(|t| t.lp_solves += 1);
    let _span = offload_obs::span!(
        "poly",
        "lp_maximize",
        vars = objective.nvars(),
        constraints = constraints.len(),
    );
    debug_assert!(constraints
        .iter()
        .all(|c| c.expr.nvars() == objective.nvars()));

    LP_TLS.with(|tls| {
        let tls = &mut *tls.borrow_mut();
        let mut pivots = 0u64;
        let result = solve(
            &mut tls.tableau,
            &mut tls.scratch,
            objective,
            constraints,
            &mut pivots,
        );
        offload_obs::tally(|t| t.lp_pivots += pivots);
        result
    })
}

/// The two-phase solve. Every pivot, including those that drive
/// artificials out of the basis, is added to `pivots`.
fn solve(
    t: &mut Tableau,
    sx: &mut Scratch,
    objective: &LinExpr,
    constraints: &[Constraint],
    pivots: &mut u64,
) -> LpResult {
    let n = objective.nvars();
    let m = constraints.len();

    // Columns: x+ (n), x- (n), slacks (m), then one artificial per row
    // whose right-hand side had to be negated for phase 1. Row i is
    //   L_i·(sum(-a_ij)(x+_j - x-_j) + s_i) = L_i·c_i
    // with L_i the lcm of the row's denominators, so its basic (slack or
    // artificial) entry is L_i.
    let cols = 2 * n + m;
    let negated = |c: &Constraint| c.expr.constant_term().is_negative();
    let stride = cols + constraints.iter().filter(|c| negated(c)).count();
    t.stride = stride;
    t.tab.clear();
    t.tab.resize(m * stride, BigInt::zero());
    t.b.clear();
    t.basis.clear();
    let mut art = cols;
    for (i, c) in constraints.iter().enumerate() {
        let negate = negated(c);
        let row = &mut t.tab[i * stride..(i + 1) * stride];
        let (l, k) = write_row(row, n, &c.expr, negate);
        if negate {
            row[2 * n + i] = -&l;
            row[art] = l;
            t.basis.push(art);
            art += 1;
        } else {
            row[2 * n + i] = l;
            t.basis.push(2 * n + i);
        }
        t.b.push(k);
    }

    // Phase 1: minimize the sum of artificials (maximize its negation).
    if stride > cols {
        let cost = |col: usize| {
            if col >= cols {
                Rational::from(-1)
            } else {
                Rational::zero()
            }
        };
        match primal(t, stride, cost, sx, pivots) {
            // The phase-1 objective (-Σ artificials) is bounded above by
            // zero, so this arm is unreachable in a correct tableau; if it
            // ever fires, `Unbounded` is the sound conservative answer for
            // every caller (redundancy checks keep their constraint, merge
            // checks skip their optional merge) — prefer that to a panic.
            Phase::Unbounded => return LpResult::Unbounded,
            Phase::Optimal(v) if v.is_negative() => return LpResult::Infeasible,
            Phase::Optimal(_) => {}
        }
        // Pivot any remaining artificial variables out of the basis (or
        // their rows are redundant); artificial columns are simply never
        // scanned again afterwards. The pivot entry may be negative here,
        // and the pivot negates its row.
        for i in 0..m {
            if t.basis[i] >= cols {
                if let Some(j) = (0..cols).find(|&j| !t.tab[i * stride + j].is_zero()) {
                    t.pivot(sx, cols, i, j);
                    *pivots += 1;
                }
            }
        }
    }

    // Phase 2 objective: maximize objective(x+ - x-). Columns >= cols
    // (artificials) have objective coefficient zero, including any
    // leftover artificial basis rows (redundant zero rows).
    let cost = |col: usize| -> Rational {
        if col < n {
            objective.coeff(col).clone()
        } else if col < 2 * n {
            -objective.coeff(col - n)
        } else {
            Rational::zero()
        }
    };
    match primal(t, cols, cost, sx, pivots) {
        Phase::Unbounded => LpResult::Unbounded,
        Phase::Optimal(v) => LpResult::Optimal(&v + objective.constant_term()),
    }
}

/// Minimum of `objective` over the closure of `constraints`.
pub fn minimize(objective: &LinExpr, constraints: &[Constraint]) -> LpResult {
    match maximize(&objective.scale(&Rational::from(-1)), constraints) {
        LpResult::Optimal(v) => LpResult::Optimal(-v),
        other => other,
    }
}

/// Whether the closure of `set` implies `c`: the minimum of `c.expr`
/// over `set` is non-negative (strict: positive). An infeasible `set`
/// implies everything; an unbounded minimum implies nothing.
///
/// This is the from-scratch reference for the warm-started incremental
/// check in `reduce.rs`; both must agree on every input.
pub(crate) fn implied_by(set: &[Constraint], c: &Constraint) -> bool {
    match minimize(&c.expr, set) {
        LpResult::Optimal(v) => match c.cmp {
            crate::linear::Cmp::Ge => !v.is_negative(),
            crate::linear::Cmp::Gt => v.is_positive(),
        },
        LpResult::Infeasible => true,
        LpResult::Unbounded => false,
    }
}

/// Whether the closure of `constraints` has a point.
pub(crate) fn closure_feasible(constraints: &[Constraint]) -> bool {
    let n = constraints.first().map(|c| c.expr.nvars()).unwrap_or(0);
    !matches!(
        maximize(&LinExpr::zero(n), constraints),
        LpResult::Infeasible
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64) -> Rational {
        Rational::from(n)
    }

    fn ge(nvars: usize, coeffs: &[(usize, i64)], c: i64) -> Constraint {
        let mut e = LinExpr::constant(nvars, r(c));
        for &(v, k) in coeffs {
            e = e.plus_term(v, r(k));
        }
        Constraint::ge0(e)
    }

    #[test]
    fn simple_box_maximum() {
        // 0 <= x <= 5, maximize x.
        let cs = vec![ge(1, &[(0, 1)], 0), ge(1, &[(0, -1)], 5)];
        let obj = LinExpr::var(1, 0);
        assert_eq!(maximize(&obj, &cs), LpResult::Optimal(r(5)));
        assert_eq!(minimize(&obj, &cs), LpResult::Optimal(r(0)));
    }

    #[test]
    fn two_dims_diagonal() {
        // x,y >= 0, x + y <= 4: maximize x + 2y = 8 at (0,4).
        let cs = vec![
            ge(2, &[(0, 1)], 0),
            ge(2, &[(1, 1)], 0),
            ge(2, &[(0, -1), (1, -1)], 4),
        ];
        let obj = LinExpr::zero(2).plus_term(0, r(1)).plus_term(1, r(2));
        assert_eq!(maximize(&obj, &cs), LpResult::Optimal(r(8)));
    }

    #[test]
    fn unbounded_detected() {
        let cs = vec![ge(1, &[(0, 1)], 0)];
        assert_eq!(maximize(&LinExpr::var(1, 0), &cs), LpResult::Unbounded);
    }

    #[test]
    fn infeasible_detected() {
        // x >= 3 and x <= 1.
        let cs = vec![ge(1, &[(0, 1)], -3), ge(1, &[(0, -1)], 1)];
        assert_eq!(maximize(&LinExpr::var(1, 0), &cs), LpResult::Infeasible);
        assert!(!closure_feasible(&cs));
    }

    #[test]
    fn negative_region() {
        // -10 <= x <= -2: feasibility needs phase 1; free vars handled.
        let cs = vec![ge(1, &[(0, 1)], 10), ge(1, &[(0, -1)], -2)];
        assert_eq!(maximize(&LinExpr::var(1, 0), &cs), LpResult::Optimal(r(-2)));
        assert_eq!(
            minimize(&LinExpr::var(1, 0), &cs),
            LpResult::Optimal(r(-10))
        );
    }

    #[test]
    fn rational_vertices() {
        // 2x + 3y <= 7, 3x + 2y <= 7, x,y >= 0: max x+y at (7/5, 7/5).
        let cs = vec![
            ge(2, &[(0, 1)], 0),
            ge(2, &[(1, 1)], 0),
            ge(2, &[(0, -2), (1, -3)], 7),
            ge(2, &[(0, -3), (1, -2)], 7),
        ];
        let obj = LinExpr::zero(2).plus_term(0, r(1)).plus_term(1, r(1));
        assert_eq!(maximize(&obj, &cs), LpResult::Optimal(Rational::new(14, 5)));
    }

    #[test]
    fn constant_objective() {
        let cs = vec![ge(1, &[(0, 1)], 0)];
        let obj = LinExpr::constant(1, r(42));
        assert_eq!(maximize(&obj, &cs), LpResult::Optimal(r(42)));
    }

    #[test]
    fn degenerate_cycling_guard() {
        // A classically degenerate problem; the solve must terminate.
        let cs = vec![
            ge(2, &[(0, 1)], 0),
            ge(2, &[(1, 1)], 0),
            ge(2, &[(0, -1), (1, -1)], 0), // x + y <= 0 with x,y >= 0 => origin only
        ];
        let obj = LinExpr::zero(2).plus_term(0, r(1)).plus_term(1, r(1));
        assert_eq!(maximize(&obj, &cs), LpResult::Optimal(r(0)));
    }

    #[test]
    fn cache_distinguishes_differing_systems() {
        let cs_a = vec![ge(1, &[(0, 1)], 0), ge(1, &[(0, -1)], 5)];
        let cs_b = vec![ge(1, &[(0, 1)], 0), ge(1, &[(0, -1)], 6)];
        let obj = LinExpr::var(1, 0);
        assert_eq!(maximize(&obj, &cs_a), LpResult::Optimal(r(5)));
        assert_eq!(maximize(&obj, &cs_b), LpResult::Optimal(r(6)));
        assert_eq!(maximize(&obj, &cs_a), LpResult::Optimal(r(5)));
    }

    #[test]
    fn lp_work_is_counted() {
        let cs = vec![ge(1, &[(0, 1)], 0), ge(1, &[(0, -1)], 5)];
        let (_, delta) = offload_obs::tallied(|| maximize(&LinExpr::var(1, 0), &cs));
        assert!(delta.lp_solves >= 1);
        assert!(delta.lp_pivots >= 1);
    }
}
