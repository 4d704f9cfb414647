//! Warm-started incremental redundancy elimination — the hot inner loop
//! of every polyhedral projection.
//!
//! [`filter_implied`] reproduces, constraint for constraint, the result
//! of the classic sequential filter ("keep a candidate iff the already
//! kept set does not imply it", checked with an exact LP), but gets there
//! very differently:
//!
//! 1. **Pre-filter ladder.** Syntactically identical constraints and
//!    weaker parallel half-spaces never reach this module (the canonical
//!    dedup / dominance sweep runs in `polyhedron.rs` and is counted
//!    there). Here, *interval propagation* maintains the bounding box
//!    implied by the kept single-variable constraints; any candidate
//!    whose infimum over that box is already non-negative is implied by
//!    transitivity and skips the LP entirely. Symmetrically, a bounded
//!    ring of *witness points* — vertices of the kept region recorded
//!    after each push — disproves implication without an LP: a candidate
//!    whose expression is negative at any feasible point of the kept set
//!    has a negative minimum there, full stop.
//!
//! 2. **Warm-started incremental LP.** One [`IncLp`] instance lives for
//!    the whole call. Kept constraints are *pushed* one at a time — the
//!    new row enters with its own slack basic, and a handful of
//!    dual-simplex pivots (Bland's rule, provably terminating) restore
//!    primal feasibility from the previous basis. An implication check
//!    runs the shared primal kernel (`simplex.rs`) from the current
//!    basis: phase 2 only, with no phase 1 and no tableau rebuilt from
//!    scratch.
//!
//! The kept tableau is the kernel's: integer rows, each a positive
//! multiple of its true row, with the multiple in its basic column. A
//! pushed row enters scaled by the lcm of its denominators (its slack
//! entry), and the basic columns are eliminated from it by the kernel's
//! row operation. A dual pivot's entry is negative, so the pivot negates
//! its row first. Witness points are read off as exact `Rational`s,
//! `b_i / a_i,basic`.

use crate::bigint::BigInt;
use crate::linear::{Cmp, Constraint};
use crate::rational::Rational;
use crate::shadow::ShadowRed;
use crate::simplex::{primal, write_row, Phase, Rule, Scratch, Tableau};
use std::time::Instant;

/// How many witness vertices the incremental LP remembers. Each kept
/// constraint's post-push vertex lands here; older vertices age out.
const WITNESS_CAP: usize = 8;

/// The bounding box implied by the kept single-variable constraints
/// (closure semantics — strictness is ignored, exactly as the LP relaxes
/// strict inequalities to their closures).
struct IntervalBox {
    lo: Vec<Option<Rational>>,
    hi: Vec<Option<Rational>>,
    /// Some kept pair `x >= a`, `x <= b` with `a > b`: the closure of the
    /// kept set is empty and every candidate is implied.
    empty: bool,
}

impl IntervalBox {
    fn new(nvars: usize) -> IntervalBox {
        IntervalBox {
            lo: vec![None; nvars],
            hi: vec![None; nvars],
            empty: false,
        }
    }

    /// Folds a kept constraint into the box (only single-variable
    /// constraints contribute).
    fn absorb(&mut self, c: &Constraint) {
        let mut support = c.expr.support();
        let (Some(v), None) = (support.next(), support.next()) else {
            return;
        };
        let a = c.expr.coeff(v);
        let bound = &(-c.expr.constant_term()) / a;
        if a.is_positive() {
            // x >= bound.
            if self
                .lo
                .get(v)
                .and_then(|b| b.as_ref())
                .is_none_or(|b| bound > *b)
            {
                self.lo[v] = Some(bound);
            }
        } else if self
            .hi
            .get(v)
            .and_then(|b| b.as_ref())
            .is_none_or(|b| bound < *b)
        {
            // x <= bound.
            self.hi[v] = Some(bound);
        }
        if let (Some(lo), Some(hi)) = (&self.lo[v], &self.hi[v]) {
            if lo > hi {
                self.empty = true;
            }
        }
    }

    /// Sound implication test by interval arithmetic: the infimum of the
    /// candidate's expression over the box bounds its LP minimum over the
    /// kept set from below, so a non-negative (strict: positive) infimum
    /// proves the exact LP would answer "implied" too. Restricted to
    /// candidates with ≥ 2 support variables — single-variable candidates
    /// are the box's own inputs and are already minimal after the
    /// syntactic dominance sweep.
    fn implies(&self, c: &Constraint) -> bool {
        if self.empty {
            return true;
        }
        if c.expr.support().take(2).count() < 2 {
            return false;
        }
        let mut inf = c.expr.constant_term().clone();
        for (v, a) in c.expr.terms() {
            let bound = if a.is_positive() {
                &self.lo[v]
            } else {
                &self.hi[v]
            };
            match bound {
                Some(b) => inf += &(a * b),
                None => return false, // unbounded direction: inf = -∞
            }
        }
        match c.cmp {
            Cmp::Ge => !inf.is_negative(),
            Cmp::Gt => inf.is_positive(),
        }
    }
}

/// The warm-started incremental LP over the kept constraint set.
///
/// The `i`-th pushed constraint `expr ≥ 0` becomes the tableau row
/// `L·(Σ(−a_j)(x⁺_j − x⁻_j) + s_i) = L·c_i` with slack column `2n + i`
/// and `L` the lcm of its denominators. The
/// basis is kept primal-feasible at all times, so implication checks are
/// phase 2 only. Each check enters by the `f64` shadow's proposal, or by
/// exact Dantzig when the exact row rejects it; a push restores
/// feasibility by the dual simplex.
struct IncLp {
    n: usize,
    /// Row stride is `2n` plus the reserved slack columns, doubled on
    /// demand as constraints are pushed. Kept close to the *kept* row
    /// count — not the candidate count — because every pivot sweeps
    /// `rows × stride` entries.
    t: Tableau,
    /// The closure of the kept set is empty; every candidate is implied.
    infeasible: bool,
    /// Recently visited vertices of the kept region (original variable
    /// space), used to disprove implication without running the LP.
    points: Vec<Vec<Rational>>,
}

/// Per-check scratch, reused across checks so steady-state checking does
/// not allocate.
#[derive(Default)]
struct Work {
    sx: Scratch,
    /// `f64` shadow of the reduced-cost row (pivot-search front-end).
    fred: ShadowRed,
}

impl IncLp {
    fn new(nvars: usize, capacity_hint: usize) -> IncLp {
        IncLp {
            n: nvars,
            t: Tableau {
                stride: 2 * nvars + capacity_hint.clamp(1, 32),
                ..Tableau::default()
            },
            infeasible: false,
            points: Vec::new(),
        }
    }

    /// Active column count.
    fn width(&self) -> usize {
        2 * self.n + self.t.rows()
    }

    /// Doubles the reserved slack capacity, re-laying the tableau out at
    /// the wider stride. Slack column *indices* (`2n + row`) are below
    /// the old capacity bound, so basis entries stay valid verbatim.
    fn grow(&mut self) {
        let old_stride = self.t.stride;
        let new_stride = 2 * old_stride - 2 * self.n;
        let mut tab = vec![BigInt::zero(); self.t.rows() * new_stride];
        for i in 0..self.t.rows() {
            for j in 0..old_stride {
                let v = &mut self.t.tab[i * old_stride + j];
                if !v.is_zero() {
                    tab[i * new_stride + j] = std::mem::take(v);
                }
            }
        }
        self.t.tab = tab;
        self.t.stride = new_stride;
    }

    /// The basic solution of the current tableau as a point in the
    /// original `n`-dimensional space (`x = x⁺ − x⁻`, non-basic columns
    /// zero). Always a feasible point of the kept closure.
    fn basic_point(&self) -> Vec<Rational> {
        let mut p = vec![Rational::zero(); self.n];
        for (i, &col) in self.t.basis.iter().enumerate() {
            if col < 2 * self.n && !self.t.b[i].is_zero() {
                let v = self.t.value(i);
                if col < self.n {
                    p[col] += &v;
                } else {
                    p[col - self.n] -= &v;
                }
            }
        }
        p
    }

    /// Records the current vertex in the witness ring (oldest out).
    fn remember_point(&mut self) {
        if self.infeasible {
            return;
        }
        if self.points.len() == WITNESS_CAP {
            self.points.remove(0);
        }
        self.points.push(self.basic_point());
    }

    /// Sound disproof of implication: the candidate's expression is
    /// negative (strict: non-positive) at a known feasible point of the
    /// kept closure, so its exact minimum there is too.
    fn witness_rejects(&self, c: &Constraint) -> bool {
        self.points.iter().any(|p| match c.cmp {
            Cmp::Ge => eval_at(c, p).is_negative(),
            Cmp::Gt => !eval_at(c, p).is_positive(),
        })
    }

    /// Checks whether the kept set implies `c` and, if not, pushes it:
    /// witness points first, then the primal kernel from the current
    /// feasible basis, pivoting the kept tableau in place (any
    /// primal-feasible basis is a valid base, so the candidate's
    /// minimizing basis is simply kept). From the minimizer the new row
    /// enters with a negative right-hand side, so the dual simplex
    /// restores feasibility along the textbook warm-start cycle.
    fn check_and_push(&mut self, c: &Constraint, work: &mut Work) -> bool {
        if self.infeasible {
            return true;
        }
        if self.witness_rejects(c) {
            offload_obs::tally(|t| t.prefilter_witness += 1);
        } else if implies(
            self.n,
            self.width(),
            &mut self.t,
            c,
            &mut work.sx,
            &mut work.fred,
        ) {
            return true;
        }
        self.push(c, work);
        false
    }

    /// Pushes `expr ≥ 0` into the base: appends the row with its own
    /// slack basic, eliminates the currently basic columns from it, and
    /// dual-simplex-pivots until the basis is primal-feasible again (or
    /// the system is proven infeasible).
    fn push(&mut self, c: &Constraint, work: &mut Work) {
        if self.infeasible {
            return;
        }
        if self.width() == self.t.stride {
            self.grow();
        }
        // The row `L·(Σ(−a_j)(x⁺_j − x⁻_j) + s_r) = L·c`, with its slack
        // basic and `L` the lcm of its denominators.
        let n = self.n;
        let t = &mut self.t;
        let stride = t.stride;
        let r = t.rows();
        t.tab.resize((r + 1) * stride, BigInt::zero());
        let row = &mut t.tab[r * stride..(r + 1) * stride];
        let (l, k) = write_row(row, n, &c.expr, false);
        row[2 * n + r] = l;
        t.b.push(k);
        t.basis.push(2 * n + r);
        t.express_last(2 * n + r + 1);
        self.dual_restore(work);
        // Witness points must stay feasible for the *whole* kept set:
        // evict any recorded vertex the new constraint's closure cuts
        // off, then record the restored vertex (feasible by
        // construction for everything pushed so far).
        self.points.retain(|p| !eval_at(c, p).is_negative());
        self.remember_point();
    }

    /// Dual simplex with Bland's rule: leaving row = the infeasible row
    /// whose basic variable has the smallest index; entering column = the
    /// smallest-index column with a negative pivot-row entry. A zero
    /// objective row stays zero under pivoting, so dual feasibility is
    /// trivial and Bland's anti-cycling argument gives termination.
    fn dual_restore(&mut self, work: &mut Work) {
        let width = self.width();
        let t = &mut self.t;
        loop {
            let leave = (0..t.rows())
                .filter(|&i| t.b[i].is_negative())
                .min_by_key(|&i| t.basis[i]);
            let Some(i) = leave else {
                return;
            };
            let row = &t.tab[i * t.stride..i * t.stride + width];
            let Some(j) = row.iter().position(BigInt::is_negative) else {
                // A row asserting (non-negative combination) = negative:
                // the kept closure is empty.
                self.infeasible = true;
                return;
            };
            offload_obs::tally(|t| t.dual_pivots += 1);
            t.pivot(&mut work.sx, width, i, j);
        }
    }
}

/// Whether the rows of `t` imply `c`: primal phase 2 maximizes
/// `−(c.expr − c₀)` from the tableau's feasible basis, so the exact
/// minimum of `c.expr` over their closure is `c₀` minus that maximum.
fn implies(
    n: usize,
    width: usize,
    t: &mut Tableau,
    c: &Constraint,
    sx: &mut Scratch,
    fred: &mut ShadowRed,
) -> bool {
    offload_obs::tally(|t| t.lp_warm_starts += 1);
    let cost = |col: usize| -> Rational {
        if col < n {
            -c.expr.coeff(col)
        } else if col < 2 * n {
            c.expr.coeff(col - n).clone()
        } else {
            Rational::zero()
        }
    };
    let mut pivots = 0;
    let phase = primal(
        t,
        width,
        cost,
        sx,
        Some(&mut *fred),
        Rule::Dantzig,
        &mut pivots,
    );
    offload_obs::tally(|t| t.lp_pivots += pivots);
    std::mem::take(&mut fred.counts).flush();
    match phase {
        Phase::Unbounded => false,
        Phase::Optimal(z) => {
            let min = c.expr.constant_term() - &z;
            match c.cmp {
                Cmp::Ge => !min.is_negative(),
                Cmp::Gt => min.is_positive(),
            }
        }
    }
}

/// The value of `c.expr` at point `p`.
fn eval_at(c: &Constraint, p: &[Rational]) -> Rational {
    let mut v = c.expr.constant_term().clone();
    for (j, a) in c.expr.terms() {
        if !p[j].is_zero() {
            v += &(a * &p[j]);
        }
    }
    v
}

/// The incremental redundancy filter: returns the (ascending) indices of
/// the candidates that survive "keep iff not implied by the already kept
/// set", walking `ordered` front to back: the interval pre-filter first,
/// then the warm-started LP against the live basis.
pub(crate) fn filter_implied(ordered: &[Constraint]) -> Vec<usize> {
    if ordered.is_empty() {
        return Vec::new();
    }
    let t0 = Instant::now();
    let nvars = ordered[0].expr.nvars();
    let mut lp = IncLp::new(nvars, ordered.len());
    let mut bounds = IntervalBox::new(nvars);
    let mut kept: Vec<usize> = Vec::new();
    let mut work = Work::default();
    for (i, c) in ordered.iter().enumerate() {
        if lp.infeasible {
            break; // everything after an infeasible kept set is implied
        }
        if bounds.implies(c) {
            offload_obs::tally(|t| t.prefilter_interval += 1);
            continue;
        }
        if lp.check_and_push(c, &mut work) {
            continue;
        }
        bounds.absorb(c);
        kept.push(i);
    }
    offload_obs::tally(|t| t.prune_micros += t0.elapsed().as_micros() as u64);
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinExpr;

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

    /// The sequential reference: from-scratch LP per check.
    fn reference_filter(ordered: &[Constraint]) -> Vec<usize> {
        let mut kept: Vec<Constraint> = Vec::new();
        let mut out = Vec::new();
        for (i, c) in ordered.iter().enumerate() {
            if kept.is_empty() || !crate::lp::implied_by(&kept, c) {
                kept.push(c.clone());
                out.push(i);
            }
        }
        out
    }

    #[test]
    fn matches_reference_on_redundant_wedge() {
        // x >= 0, y >= 0, x + y <= 10, plus redundant supports.
        let mut cs = vec![
            ge(2, &[(0, 1)], 0),
            ge(2, &[(1, 1)], 0),
            ge(2, &[(0, -1), (1, -1)], 10),
        ];
        for k in 1..30 {
            cs.push(ge(2, &[(0, 1), (1, 1)], k)); // implied by x,y >= 0
            cs.push(ge(2, &[(0, -1), (1, -2)], 20 + k)); // implied by the wedge
        }
        assert_eq!(filter_implied(&cs), reference_filter(&cs));
    }

    #[test]
    fn infeasible_prefix_drops_the_tail() {
        // x >= 5 and x <= 2 make the kept closure empty: everything after
        // the contradiction is implied, exactly as the reference says.
        let cs = vec![
            ge(1, &[(0, 1)], -5),
            ge(1, &[(0, -1)], 2),
            ge(1, &[(0, 1)], -100),
            ge(1, &[(0, -1)], 200),
        ];
        let got = filter_implied(&cs);
        assert_eq!(got, reference_filter(&cs));
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    fn interval_filter_skips_lp_for_box_implied_rows() {
        // Bounds 0 <= x <= 4, 0 <= y <= 4 (support 1, establish the box),
        // then box-implied two-variable rows: x + y >= -k.
        let mut cs = vec![
            ge(2, &[(0, 1)], 0),
            ge(2, &[(0, -1)], 4),
            ge(2, &[(1, 1)], 0),
            ge(2, &[(1, -1)], 4),
        ];
        for k in 1..10 {
            cs.push(ge(2, &[(0, 1), (1, 1)], k));
        }
        let (got, delta) = offload_obs::tallied(|| filter_implied(&cs));
        assert_eq!(got, reference_filter(&cs));
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert!(delta.prefilter_interval > 0, "interval filter must fire");
    }

    #[test]
    fn strict_candidates_follow_closure_semantics() {
        // Kept: x >= 1. Candidate x > 0 has closure-minimum 1 > 0 over
        // the kept set: implied. Candidate x > 1 has minimum 1, not
        // strictly positive: kept.
        let cs = vec![
            ge(1, &[(0, 1)], -1),
            Constraint::gt0(LinExpr::var(1, 0)),
            Constraint::gt0(LinExpr::var(1, 0).plus_constant(r(-1))),
        ];
        let got = filter_implied(&cs);
        assert_eq!(got, reference_filter(&cs));
        assert_eq!(got, vec![0, 2]);
    }
}
