//! Exact rational linear programming (two-phase primal simplex with
//! Bland's rule).
//!
//! Used for fast *sound* redundancy elimination on projection outputs:
//! a constraint is dropped only when the LP proves the rest of the system
//! implies it. Strict inequalities are relaxed to their closures, which
//! can only make the check more conservative (we keep a constraint we
//! might have dropped — never the reverse).
//!
//! # Performance
//!
//! The solver works on a single flat row-major tableau held in
//! thread-local scratch (mirroring the `DinicSolver` re-solve pattern in
//! the flow crate), so repeated solves reuse one allocation. Reduced costs
//! are maintained incrementally across pivots instead of being recomputed
//! from the basis each iteration — in exact arithmetic the maintained row
//! equals the recomputed one, so the pivot rule sees the identical row
//! either way and results are bit-for-bit unchanged. Pivots touch only
//! the nonzero columns of the pivot row.
//!
//! Pivot *search* runs on the `f64` shadow of the reduced-cost row
//! ([`crate::shadow`]): the shadow proposes a Dantzig entering column,
//! the exact row certifies it (falling back to Bland's rule when
//! certification fails, and unconditionally during long degenerate
//! stalls so the anti-cycling termination proof still applies), and the
//! pivot itself is replayed in exact rationals. The shadow shortens the
//! pivot path; it never changes an answer.
//!
//! On top of the scratch solver sits a thread-local *exact* result cache:
//! the region-subtraction and redundancy-reduction loops in `polyhedron.rs`
//! re-issue many identical `(objective, constraints)` systems, which are
//! answered from the cache without re-solving. Keys are compared by full
//! structural equality (never by hash alone), so a cache hit returns
//! exactly what a fresh solve would. To keep the work counters
//! scheduling-independent, a hit still counts as an `lp_solve` and adds
//! the original solve's pivot count to `lp_pivots`; the hit itself is
//! reported separately as `lp_cache_hits`.

use crate::linear::{Constraint, LinExpr};
use crate::rational::Rational;
use crate::shadow::{self, ShadowCounts, ShadowRed, STALL_LIMIT};
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::time::Instant;

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
    scratch: Scratch,
    cache: HashMap<u64, Vec<CacheEntry>>,
    cache_cells: usize,
}

thread_local! {
    static LP_TLS: RefCell<LpTls> = RefCell::new(LpTls::default());
}

/// Drops this thread's LP result cache (scratch buffers are kept).
///
/// The parametric engine calls this at the start of every solve so runs
/// are reproducible: cached results never change *what* is computed (keys
/// are compared exactly), but clearing makes the per-run `lp_cache_hits`
/// counter and timing independent of whatever ran earlier on the thread.
pub fn cache_clear() {
    LP_TLS.with(|tls| {
        let tls = &mut *tls.borrow_mut();
        tls.cache.clear();
        tls.cache_cells = 0;
    });
}

fn key_hash(objective: &LinExpr, constraints: &[Constraint]) -> u64 {
    let mut h = DefaultHasher::new();
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
                    // stay independent of cache (and thread) scheduling.
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
        let mut sc = ShadowCounts::default();
        let result = solve(
            &mut tls.scratch,
            objective,
            constraints,
            &mut pivots,
            &mut sc,
        );
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

/// Reusable solver state: one flat row-major tableau plus the vectors the
/// simplex needs, all retained across solves so steady-state solving does
/// not allocate tableau storage.
#[derive(Default)]
struct Scratch {
    /// `rows × stride` tableau, row-major.
    tab: Vec<Rational>,
    /// Right-hand sides, one per row.
    b: Vec<Rational>,
    /// Maintained reduced-cost row (length = active column count).
    red: Vec<Rational>,
    /// Basic column per row.
    basis: Vec<usize>,
    /// Nonzero column indices of the normalized pivot row.
    nz: Vec<usize>,
    /// Cloned values of the normalized pivot row at `nz` positions.
    prow: Vec<Rational>,
    /// Rows whose initial basic variable is artificial.
    art_rows: Vec<usize>,
    /// `f64` shadow of the reduced-cost row (pivot-search front-end).
    fred: ShadowRed,
}

enum Phase {
    Optimal(Rational),
    Unbounded,
}

fn solve(
    scr: &mut Scratch,
    objective: &LinExpr,
    constraints: &[Constraint],
    pivots: &mut u64,
    sc: &mut ShadowCounts,
) -> LpResult {
    let n = objective.nvars();
    let m = constraints.len();

    // Columns: x+ (n), x- (n), slacks (m), then one artificial per row
    // whose right-hand side had to be negated for phase 1. Rows are
    //   sum(-a_ij)(x+_j - x-_j) + s_i = c_i.
    let cols = 2 * n + m;
    scr.art_rows.clear();
    for (i, c) in constraints.iter().enumerate() {
        if c.expr.constant_term().is_negative() {
            scr.art_rows.push(i);
        }
    }
    let na = scr.art_rows.len();
    let stride = cols + na;

    scr.tab.clear();
    scr.tab.resize(m * stride, Rational::zero());
    scr.b.clear();
    scr.basis.clear();
    {
        let mut art = 0usize;
        for (i, c) in constraints.iter().enumerate() {
            let negate = c.expr.constant_term().is_negative();
            let row = &mut scr.tab[i * stride..(i + 1) * stride];
            for j in 0..n {
                let aij = c.expr.coeff(j);
                if !aij.is_zero() {
                    if negate {
                        row[j] = aij.clone();
                        row[n + j] = -aij;
                    } else {
                        row[j] = -aij;
                        row[n + j] = aij.clone();
                    }
                }
            }
            row[2 * n + i] = if negate {
                -Rational::one()
            } else {
                Rational::one()
            };
            if negate {
                row[cols + art] = Rational::one();
                scr.basis.push(cols + art);
                scr.b.push(-c.expr.constant_term());
                art += 1;
            } else {
                scr.basis.push(2 * n + i);
                scr.b.push(c.expr.constant_term().clone());
            }
        }
    }

    // Phase 1: minimize the sum of artificials (maximize its negation).
    if na > 0 {
        // Initial reduced costs for c = -1 on artificial columns with the
        // artificials basic: red_j = c_j + Σ_{artificial rows} a_ij, and
        // the objective value starts at -Σ b_i over those rows.
        scr.red.clear();
        scr.red.resize(stride, Rational::zero());
        let mut z = Rational::zero();
        for k in 0..na {
            scr.red[cols + k] = Rational::from(-1);
        }
        for &i in &scr.art_rows {
            for j in 0..stride {
                let a = &scr.tab[i * stride + j];
                if !a.is_zero() {
                    scr.red[j] += a;
                }
            }
            z -= &scr.b[i];
        }
        match run_simplex(scr, m, stride, stride, z, pivots, sc) {
            // The phase-1 objective (-Σ artificials) is bounded above by
            // zero, so this arm is unreachable in a correct tableau; if it
            // ever fires, `Unbounded` is the sound conservative answer for
            // every caller (redundancy checks keep their constraint, merge
            // checks skip their optional merge) — prefer that to a panic.
            Phase::Unbounded => return LpResult::Unbounded,
            Phase::Optimal(v) => {
                if v.is_negative() {
                    return LpResult::Infeasible;
                }
            }
        }
        // Pivot any remaining artificial variables out of the basis (or
        // their rows are redundant); artificial columns are simply never
        // scanned again afterwards.
        for i in 0..m {
            if scr.basis[i] >= cols {
                if let Some(j) = (0..cols).find(|&j| !scr.tab[i * stride + j].is_zero()) {
                    pivot(scr, m, stride, cols, i, j, pivots);
                }
            }
        }
    }

    // Phase 2 objective: maximize objective(x+ - x-). Columns >= cols
    // (artificials) have objective coefficient zero, including any
    // leftover artificial basis rows (redundant zero rows).
    let obj_of = |col: usize| -> Rational {
        if col < n {
            objective.coeff(col).clone()
        } else if col < 2 * n {
            -objective.coeff(col - n)
        } else {
            Rational::zero()
        }
    };
    scr.red.clear();
    scr.red.resize(cols, Rational::zero());
    for (j, r) in scr.red.iter_mut().enumerate() {
        *r = obj_of(j);
    }
    let mut z = Rational::zero();
    for i in 0..m {
        let cb = obj_of(scr.basis[i]);
        if cb.is_zero() {
            continue;
        }
        for j in 0..cols {
            let a = &scr.tab[i * stride + j];
            if !a.is_zero() {
                scr.red[j] -= &(&cb * a);
            }
        }
        z += &(&cb * &scr.b[i]);
    }
    match run_simplex(scr, m, stride, cols, z, pivots, sc) {
        Phase::Unbounded => LpResult::Unbounded,
        Phase::Optimal(v) => LpResult::Optimal(&v + objective.constant_term()),
    }
}

/// Primal simplex on the scratch tableau; `width` is the number of
/// active (scannable) columns and `z` the current objective value, both
/// kept in lockstep with the maintained reduced-cost row.
///
/// Entering columns come from the `f64` shadow (Dantzig proposal,
/// certified against the exact row) when the shadow is enabled, from
/// Bland's rule otherwise — and always from Bland's rule once a long
/// degenerate stall demands the anti-cycling guarantee. Every applied
/// pivot has an exactly-positive reduced cost either way, so the optimum
/// (and the Infeasible/Unbounded verdicts) never depend on the rule.
fn run_simplex(
    scr: &mut Scratch,
    m: usize,
    stride: usize,
    width: usize,
    mut z: Rational,
    pivots: &mut u64,
    sc: &mut ShadowCounts,
) -> Phase {
    let shadowed = shadow::enabled();
    let t0 = shadowed.then(Instant::now);
    if shadowed {
        scr.fred.sync(&scr.red[..width]);
    }
    let mut stall = 0usize;
    let res = loop {
        let entering = if shadowed && stall < STALL_LIMIT {
            // Shadow proposes; the exact row certifies. A rejected pivot
            // proposal *or* a premature optimality claim falls back to
            // Bland's rule on the exact row and resynchronizes the
            // drifted shadow.
            sc.proposals += 1;
            let prop = scr.fred.propose(width);
            match prop {
                Some(p) if scr.red[p].is_positive() => {
                    sc.certified += 1;
                    Some(p)
                }
                _ => {
                    let bland = (0..width).find(|&j| scr.red[j].is_positive());
                    if prop.is_none() && bland.is_none() {
                        sc.certified += 1; // optimality claim confirmed
                    } else {
                        sc.fallbacks += 1;
                        scr.fred.sync(&scr.red[..width]);
                    }
                    bland
                }
            }
        } else {
            // Bland: smallest index with positive reduced cost. Basic
            // columns have an exactly-zero reduced cost, so they are
            // skipped naturally.
            (0..width).find(|&j| scr.red[j].is_positive())
        };
        let Some(j) = entering else {
            break Phase::Optimal(z);
        };
        // Ratio test (Bland: smallest basis index on ties). Ratios are
        // compared by cross-multiplication to avoid forming quotients.
        let mut leave: Option<usize> = None;
        for i in 0..m {
            if !scr.tab[i * stride + j].is_positive() {
                continue;
            }
            match leave {
                None => leave = Some(i),
                Some(li) => {
                    // b_i / a_ij ? b_li / a_lij  <=>  b_i·a_lij ? b_li·a_ij
                    let lhs = &scr.b[i] * &scr.tab[li * stride + j];
                    let rhs = &scr.b[li] * &scr.tab[i * stride + j];
                    if lhs < rhs || (lhs == rhs && scr.basis[i] < scr.basis[li]) {
                        leave = Some(i);
                    }
                }
            }
        }
        let Some(i) = leave else {
            break Phase::Unbounded;
        };
        if scr.b[i].is_zero() {
            stall += 1;
        } else {
            stall = 0;
        }
        let rj = scr.red[j].clone();
        pivot(scr, m, stride, width, i, j, pivots);
        // Reduced-cost and objective update: the pivot row (normalized) is
        // in scr.nz/scr.prow. red -= red_j_old · row_i sets red[j] to an
        // exact zero; z grows by red_j_old · (new basic value).
        for (&k, v) in scr.nz.iter().zip(&scr.prow) {
            if k < width {
                scr.red[k] -= &(&rj * v);
            }
        }
        if shadowed {
            scr.fred.pivot_update(rj.to_f64(), &scr.nz, &scr.prow, j);
        }
        z += &(&rj * &scr.b[i]);
    };
    if let Some(t0) = t0 {
        offload_obs::tally(|t| t.certify_micros += t0.elapsed().as_micros() as u64);
    }
    res
}

/// Pivots on `(i, j)`: normalizes the pivot row, eliminates column `j`
/// from every other row touching only the pivot row's nonzero columns,
/// and leaves the normalized pivot row in `scr.nz`/`scr.prow`. Columns at
/// `width` and beyond are dead (dropped artificials) and skipped.
fn pivot(
    scr: &mut Scratch,
    m: usize,
    stride: usize,
    width: usize,
    i: usize,
    j: usize,
    pivots: &mut u64,
) {
    *pivots += 1;
    let piv = scr.tab[i * stride + j].clone();
    debug_assert!(!piv.is_zero());
    let inv = piv.recip();
    scr.nz.clear();
    scr.prow.clear();
    for k in 0..width {
        let v = &mut scr.tab[i * stride + k];
        if !v.is_zero() {
            *v *= &inv;
            scr.nz.push(k);
            scr.prow.push(v.clone());
        }
    }
    scr.b[i] *= &inv;
    for r in 0..m {
        if r == i {
            continue;
        }
        let factor = scr.tab[r * stride + j].clone();
        if factor.is_zero() {
            continue;
        }
        for (&k, v) in scr.nz.iter().zip(&scr.prow) {
            let t = &factor * v;
            scr.tab[r * stride + k] -= &t;
        }
        if !scr.b[i].is_zero() {
            let t = &factor * &scr.b[i];
            scr.b[r] -= &t;
        }
    }
    scr.basis[i] = j;
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
