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
//! repeated solves reuse one allocation. Pivot search runs on the `f64`
//! shadow of the reduced-cost row; when the exact row rejects a
//! proposal, Bland's rule picks the pivot. The shadow shortens the pivot
//! path; it never changes an answer.
//!
//! On top of the solver sits a thread-local *exact* result cache:
//! the region-subtraction and redundancy-reduction loops in `polyhedron.rs`
//! re-issue many identical `(objective, constraints)` systems, which are
//! answered from the cache without re-solving. Keys are compared by full
//! structural equality (never by hash alone), so a cache hit returns
//! exactly what a fresh solve would. So that the work counters do not
//! depend on whether the cache fires, a hit still counts as an
//! `lp_solve` and adds the original solve's pivot count to `lp_pivots`;
//! the hit itself is reported separately as `lp_cache_hits`.

use crate::bigint::BigInt;
use crate::hash::{ExactMap, WordHasher};
use crate::linear::{Constraint, LinExpr};
use crate::rational::Rational;
use crate::shadow::{ShadowCounts, ShadowRed};
use crate::simplex::{primal, write_row, Phase, Rule, Scratch, Tableau};
use std::cell::RefCell;
use std::hash::{Hash, Hasher};

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

/// Upper bound on cached constraint cells (`(nvars + 1) × (rows + 1)`
/// summed over entries) per thread. When an insert would exceed it the
/// whole cache is dropped and rebuilt — an epoch scheme that bounds memory
/// without per-entry bookkeeping.
const CACHE_CELL_CAP: usize = 1_000_000;

struct CacheEntry {
    objective: LinExpr,
    constraints: Vec<Constraint>,
    result: LpResult,
    pivots: u64,
    shadow: ShadowCounts,
}

#[derive(Default)]
struct LpTls {
    tableau: Tableau,
    scratch: Scratch,
    fred: ShadowRed,
    cache: ExactMap<u64, Vec<CacheEntry>>,
    cache_cells: usize,
}

thread_local! {
    static LP_TLS: RefCell<LpTls> = RefCell::new(LpTls::default());
}

/// Drops this thread's LP result cache and frees its table (scratch
/// buffers are kept).
///
/// The parametric engine calls this at the start of every solve so runs
/// are reproducible: cached results never change *what* is computed (keys
/// are compared exactly), but clearing makes the per-run `lp_cache_hits`
/// counter and timing independent of whatever ran earlier on the thread.
/// It calls it again when the solve ends, so a thread that ran a solve
/// does not keep its cache alive until the next one.
pub fn cache_clear() {
    LP_TLS.with(|tls| {
        let tls = &mut *tls.borrow_mut();
        tls.cache = ExactMap::default();
        tls.cache_cells = 0;
    });
}

/// Constraint cells (`(nvars + 1) × (rows + 1)` per entry) this thread's
/// LP result cache holds.
pub fn cache_cells() -> usize {
    LP_TLS.with(|tls| tls.borrow().cache_cells)
}

fn key_hash(objective: &LinExpr, constraints: &[Constraint]) -> u64 {
    let mut h = WordHasher::default();
    objective.hash(&mut h);
    constraints.hash(&mut h);
    h.finish()
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
        let h = key_hash(objective, constraints);
        if let Some(bucket) = tls.cache.get(&h) {
            for e in bucket {
                if e.objective == *objective && e.constraints == constraints {
                    // A fresh solve of the same system would perform the
                    // same pivots and shadow proposals, so account for
                    // them: lp_solves/lp_pivots and the shadow counters
                    // stay independent of whether the cache fires.
                    offload_obs::tally(|t| {
                        t.lp_pivots += e.pivots;
                        t.lp_cache_hits += 1;
                    });
                    e.shadow.flush();
                    return e.result.clone();
                }
            }
        }
        let mut pivots = 0u64;
        let result = solve(
            &mut tls.tableau,
            &mut tls.scratch,
            Some(&mut tls.fred),
            objective,
            constraints,
            &mut pivots,
        );
        let sc = std::mem::take(&mut tls.fred.counts);
        offload_obs::tally(|t| t.lp_pivots += pivots);
        sc.flush();

        let cells = (objective.nvars() + 1) * (constraints.len() + 1);
        if tls.cache_cells + cells > CACHE_CELL_CAP {
            tls.cache.clear();
            tls.cache_cells = 0;
        }
        tls.cache_cells += cells;
        tls.cache.entry(h).or_default().push(CacheEntry {
            objective: objective.clone(),
            constraints: constraints.to_vec(),
            result: result.clone(),
            pivots,
            shadow: sc,
        });
        result
    })
}

/// [`maximize`] by Bland's rule throughout, on the same kernel with no
/// `f64` shadow and no result cache: the pivot path the shadow is
/// measured against. It adds its pivots to `lp_pivots` and counts
/// nothing else, so a test can compare its path with a reference solver.
pub fn maximize_bland(objective: &LinExpr, constraints: &[Constraint]) -> LpResult {
    let (mut t, mut sx) = (Tableau::default(), Scratch::default());
    let mut pivots = 0;
    let result = solve(&mut t, &mut sx, None, objective, constraints, &mut pivots);
    offload_obs::tally(|t| t.lp_pivots += pivots);
    result
}

/// The two-phase solve. Every pivot, including those that drive
/// artificials out of the basis, is added to `pivots`.
fn solve(
    t: &mut Tableau,
    sx: &mut Scratch,
    mut shadow: Option<&mut ShadowRed>,
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
        match primal(
            t,
            stride,
            cost,
            sx,
            shadow.as_deref_mut(),
            Rule::Bland,
            pivots,
        ) {
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
    match primal(t, cols, cost, sx, shadow, Rule::Bland, pivots) {
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

/// A helper for feasibility of the closure.
pub fn closure_feasible(constraints: &[Constraint]) -> bool {
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
        // A classically degenerate problem; Bland's rule must terminate.
        let cs = vec![
            ge(2, &[(0, 1)], 0),
            ge(2, &[(1, 1)], 0),
            ge(2, &[(0, -1), (1, -1)], 0), // x + y <= 0 with x,y >= 0 => origin only
        ];
        let obj = LinExpr::zero(2).plus_term(0, r(1)).plus_term(1, r(1));
        assert_eq!(maximize(&obj, &cs), LpResult::Optimal(r(0)));
    }

    #[test]
    fn cache_hit_returns_identical_result_and_counts() {
        cache_clear();
        let cs = vec![
            ge(2, &[(0, 1)], 0),
            ge(2, &[(1, 1)], 0),
            ge(2, &[(0, -2), (1, -3)], 7),
            ge(2, &[(0, -3), (1, -2)], 7),
        ];
        let obj = LinExpr::zero(2).plus_term(0, r(1)).plus_term(1, r(1));
        let (first, fresh) = offload_obs::tallied(|| maximize(&obj, &cs));
        let (second, hit) = offload_obs::tallied(|| maximize(&obj, &cs));
        assert_eq!(first, second);
        assert_eq!(hit.lp_cache_hits, fresh.lp_cache_hits + 1);
        // Stored-pivot accounting: a hit reports the same solve/pivot and
        // shadow work as the original solve did.
        assert_eq!(hit.lp_solves, fresh.lp_solves);
        assert_eq!(hit.lp_pivots, fresh.lp_pivots);
        assert_eq!(hit.shadow_proposals, fresh.shadow_proposals);
        assert_eq!(hit.shadow_certified, fresh.shadow_certified);
        assert_eq!(hit.shadow_fallbacks, fresh.shadow_fallbacks);
    }

    #[test]
    fn cache_distinguishes_differing_systems() {
        cache_clear();
        let cs_a = vec![ge(1, &[(0, 1)], 0), ge(1, &[(0, -1)], 5)];
        let cs_b = vec![ge(1, &[(0, 1)], 0), ge(1, &[(0, -1)], 6)];
        let obj = LinExpr::var(1, 0);
        assert_eq!(maximize(&obj, &cs_a), LpResult::Optimal(r(5)));
        assert_eq!(maximize(&obj, &cs_b), LpResult::Optimal(r(6)));
        assert_eq!(maximize(&obj, &cs_a), LpResult::Optimal(r(5)));
    }

    #[test]
    fn lp_work_is_counted() {
        cache_clear();
        let cs = vec![ge(1, &[(0, 1)], 0), ge(1, &[(0, -1)], 5)];
        let (_, delta) = offload_obs::tallied(|| maximize(&LinExpr::var(1, 0), &cs));
        assert!(delta.lp_solves >= 1);
        assert!(delta.lp_pivots >= 1);
    }

    #[test]
    fn cache_clear_resets_hits() {
        cache_clear();
        let cs = vec![ge(1, &[(0, 1)], 0), ge(1, &[(0, -1)], 5)];
        let obj = LinExpr::var(1, 0);
        let _ = maximize(&obj, &cs);
        cache_clear();
        let (_, delta) = offload_obs::tallied(|| maximize(&obj, &cs));
        assert_eq!(delta.lp_cache_hits, 0);
    }
}
