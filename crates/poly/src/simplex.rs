//! The exact primal simplex kernel behind every LP in this crate: the
//! cold two-phase solver in `lp.rs` and the warm-started incremental LP
//! in `reduce.rs` both run [`primal`] on a [`Tableau`].
//!
//! A tableau is one flat row-major block of integers in the
//! standard-form convention both solvers share: each free variable splits
//! into `x⁺ − x⁻` (columns `0..n` and `n..2n`), each constraint row
//! `expr ≥ 0` gets its own slack column, and the cold solver appends the
//! artificial columns its phase 1 needs.
//!
//! **Integer rows.** Each stored row is a positive integer multiple of
//! the true (rational) row, and its entry in its basic column *is* that
//! multiple: the row's positive denominator, so no scale is stored
//! beside it. A row enters scaled by the lcm of its coefficients'
//! denominators ([`write_row`]). A pivot on `(i, j)` leaves row `i` as it
//! is (negated first if `a_ij < 0`, so that its new basic entry is
//! positive) and replaces every other row `r` touching column `j` by
//! `(a_ij/g)·row_r − (a_rj/g)·row_i` with `g = gcd(a_ij, a_rj)`, then
//! divides out the row's content. The ratio test compares `b_i·a_lj`
//! with `b_l·a_ij`, in which the row scales cancel. Cells are
//! [`BigInt`]s, whose inline `i64` arm carries nearly every value and
//! promotes exactly, so no width can overflow.
//!
//! **Reduced costs.** [`primal`] keeps the reduced-cost row as integer
//! numerators over one positive denominator, with the objective's
//! numerator beside them, seeds it from the basis and then updates it by
//! the same row operation as the tableau. In exact arithmetic the
//! maintained row equals the recomputed one, and a common positive
//! denominator leaves signs and order intact, so the pivot rules compare
//! integers and see what they would see on rationals.
//!
//! **Pivot rule.** The entering column is Dantzig's: the largest
//! reduced cost, the smallest index on ties, read straight off the
//! integer row. After [`STALL_LIMIT`] consecutive degenerate pivots
//! Bland's rule takes over, so its anti-cycling argument bounds the run.
//! Every applied pivot has an exactly positive reduced cost, so optima
//! and the Infeasible/Unbounded verdicts never depend on the rule; the
//! rule decides only the pivot path, and with it the pivot count.

use crate::bigint::BigInt;
use crate::linear::LinExpr;
use crate::rational::{cmp_fractions, Rational};
use std::cmp::Ordering;

/// Consecutive degenerate (zero-progress) pivots tolerated before the
/// loop switches to Bland's rule on the exact row, whose anti-cycling
/// guarantee restores the termination proof.
const STALL_LIMIT: usize = 24;

/// A flat simplex tableau of integer rows: per constraint row, `stride`
/// coefficients, a right-hand side and a basic column. Row `i` is the
/// true row times its entry in column `basis[i]`, which is positive.
#[derive(Default)]
pub(crate) struct Tableau {
    /// `rows × stride` coefficients, row-major.
    pub tab: Vec<BigInt>,
    /// Right-hand sides, one per row, on the same scale as the row.
    pub b: Vec<BigInt>,
    /// Basic column per row.
    pub basis: Vec<usize>,
    /// Row length. Columns past a run's `width` are dead or reserved and
    /// never scanned.
    pub stride: usize,
}

/// Scratch one solver reuses across runs, so steady-state solving does
/// not allocate.
#[derive(Default)]
pub(crate) struct Scratch {
    /// Reduced-cost numerators over the run's active columns.
    red: Vec<BigInt>,
    /// The objective value's numerator, negated, so that `(red, neg_z)`
    /// updates exactly like a tableau row and its right-hand side.
    neg_z: BigInt,
    /// Positive common denominator of `red` and `neg_z`.
    den: BigInt,
    /// Nonzero columns of the last pivot row.
    nz: Vec<usize>,
    /// Values of the last pivot row at `nz`.
    prow: Vec<BigInt>,
}

/// Outcome of a primal run.
pub(crate) enum Phase {
    /// The maximum of the run's objective.
    Optimal(Rational),
    Unbounded,
}

/// Writes `expr ≥ 0` into `row` as `L·Σ(−a_j)(x⁺_j − x⁻_j)`: columns
/// `j` and `n + j`, with `L` the lcm of the denominators of `expr`'s
/// coefficients and constant, so every cell is an integer. Negated
/// throughout when `negate`. Returns `L` and the right-hand side `L·c`
/// (negated likewise); the caller places the row's slack.
pub(crate) fn write_row(
    row: &mut [BigInt],
    n: usize,
    expr: &LinExpr,
    negate: bool,
) -> (BigInt, BigInt) {
    let k = expr.constant_term();
    let mut l = BigInt::one();
    for a in expr.terms().map(|(_, a)| a).chain(std::iter::once(k)) {
        if !a.is_integer() {
            l = l.lcm(a.denom());
        }
    }
    let scaled = |a: &Rational| {
        let v = if a.is_integer() {
            a.numer() * &l
        } else {
            a.numer() * &(&l / a.denom())
        };
        if negate {
            -v
        } else {
            v
        }
    };
    for (j, a) in expr.terms() {
        let v = scaled(a);
        row[j] = -&v;
        row[n + j] = v;
    }
    let rhs = scaled(k);
    (l, rhs)
}

/// `row ← α·row − β·src` and `rhs ← α·rhs − β·src_rhs`, with `src`
/// given by its nonzero columns, ascending, and their values. With
/// `α = 1` only the cells at `src` change, and `None` is returned. Any
/// other `α` rewrites every nonzero cell, so that one pass also takes
/// the gcd of the new cells and `rhs` and returns it.
fn combine<'a>(
    row: &mut [BigInt],
    rhs: &mut BigInt,
    alpha: &BigInt,
    beta: &BigInt,
    src: impl Iterator<Item = (usize, &'a BigInt)>,
    src_rhs: &BigInt,
) -> Option<BigInt> {
    let scaling = !alpha.is_one();
    if scaling {
        *rhs *= alpha;
    }
    if !src_rhs.is_zero() {
        rhs.sub_mul(beta, src_rhs);
    }
    if !scaling {
        for (k, s) in src {
            row[k].sub_mul(beta, s);
        }
        return None;
    }
    let mut g = rhs.abs();
    let mut src = src.peekable();
    for (k, v) in row.iter_mut().enumerate() {
        match src.peek() {
            Some(&(c, s)) if c == k => {
                *v *= alpha;
                v.sub_mul(beta, s);
                src.next();
            }
            _ if v.is_zero() => continue,
            _ => *v *= alpha,
        }
        if !g.is_one() && !v.is_zero() {
            g = g.gcd(v);
        }
    }
    Some(g)
}

/// `(a/g, b/g)` with `g = gcd(a, b)`.
fn coprime(a: &BigInt, b: &BigInt) -> (BigInt, BigInt) {
    let g = a.gcd(b);
    if g.is_one() {
        (a.clone(), b.clone())
    } else {
        (a / &g, b / &g)
    }
}

/// The gcd of `first`, `rhs` and the cells of `row`. `first` is a
/// positive entry of the row or its denominator, taken first because it
/// is usually one, which ends the pass at once.
fn content(first: &BigInt, row: &[BigInt], rhs: &BigInt) -> BigInt {
    if first.is_one() {
        return BigInt::one();
    }
    let mut g = first.gcd(rhs);
    for v in row.iter().filter(|v| !v.is_zero()) {
        if g.is_one() {
            break;
        }
        g = g.gcd(v);
    }
    g
}

/// Divides `row` and `rhs` by `g`, unless `g` is zero or one; returns
/// whether it did.
fn divide(row: &mut [BigInt], rhs: &mut BigInt, g: &BigInt) -> bool {
    if g.is_zero() || g.is_one() {
        return false;
    }
    for v in row.iter_mut().filter(|v| !v.is_zero()) {
        *v = &*v / g;
    }
    *rhs = &*rhs / g;
    true
}

impl Tableau {
    /// Number of constraint rows.
    pub fn rows(&self) -> usize {
        self.basis.len()
    }

    /// Row `i`'s scale: its entry in its basic column (positive).
    fn scale(&self, i: usize) -> &BigInt {
        &self.tab[i * self.stride + self.basis[i]]
    }

    /// The value of row `i`'s basic variable.
    pub fn value(&self, i: usize) -> Rational {
        Rational::from_bigints(self.b[i].clone(), self.scale(i).clone())
    }

    /// Divides row `r`'s cells below `width` and its right-hand side by
    /// their content, which keeps the basic entry positive. `known` is
    /// the content when [`combine`] already took it.
    fn normalize(&mut self, r: usize, width: usize, known: Option<BigInt>) {
        let start = r * self.stride;
        let row = &mut self.tab[start..start + width];
        let g = known.unwrap_or_else(|| {
            // A row whose basic column the run no longer scans (an
            // artificial after phase 1) has no positive entry to start
            // from.
            let zero = BigInt::zero();
            content(row.get(self.basis[r]).unwrap_or(&zero), row, &self.b[r])
        });
        divide(row, &mut self.b[r], &g);
    }

    /// Ratio test for entering column `j`: the row minimizing `b_i / a_ij`
    /// over `a_ij > 0`, the smallest basic column on ties (Bland). Ratios
    /// are compared by cross-multiplication, `b_i·a_lj ? b_l·a_ij`, in
    /// which the rows' scales cancel. `None` means the objective is
    /// unbounded along column `j`.
    fn leaving(&self, j: usize) -> Option<usize> {
        let a = |i: usize| &self.tab[i * self.stride + j];
        let mut leave: Option<usize> = None;
        for i in (0..self.rows()).filter(|&i| a(i).is_positive()) {
            leave = match leave {
                Some(li) => {
                    let ord = cmp_fractions(&self.b[i], a(i), &self.b[li], a(li));
                    let better = ord == Ordering::Less
                        || (ord == Ordering::Equal && self.basis[i] < self.basis[li]);
                    Some(if better { i } else { li })
                }
                None => Some(i),
            };
        }
        leave
    }

    /// Pivots on `(i, j)`: negates row `i` if `a_ij < 0`, records its
    /// nonzero columns in `sx`, and eliminates column `j` from every other
    /// row, each ending up content-free. Columns at `width` and beyond
    /// are skipped.
    pub fn pivot(&mut self, sx: &mut Scratch, width: usize, i: usize, j: usize) {
        let stride = self.stride;
        let start = i * stride;
        if self.tab[start + j].is_negative() {
            for v in self.tab[start..start + width].iter_mut() {
                if !v.is_zero() {
                    *v = -std::mem::take(v);
                }
            }
            self.b[i] = -std::mem::take(&mut self.b[i]);
        }
        sx.nz.clear();
        sx.prow.clear();
        for (k, v) in self.tab[start..start + width].iter().enumerate() {
            if !v.is_zero() {
                sx.nz.push(k);
                sx.prow.push(v.clone());
            }
        }
        let aij = self.tab[start + j].clone();
        let bi = self.b[i].clone();
        self.basis[i] = j;
        for r in (0..self.rows()).filter(|&r| r != i) {
            let arj = &self.tab[r * stride + j];
            if arj.is_zero() {
                continue;
            }
            let (alpha, beta) = coprime(&aij, arj);
            let row = &mut self.tab[r * stride..r * stride + width];
            let src = sx.nz.iter().copied().zip(&sx.prow);
            let known = combine(row, &mut self.b[r], &alpha, &beta, src, &bi);
            self.normalize(r, width, known);
        }
    }

    /// Expresses the last row in the basis of the others: eliminates
    /// every other row's basic column from it (each such row is zero in
    /// every other basic column, so one sweep suffices).
    pub fn express_last(&mut self, width: usize) {
        let stride = self.stride;
        let r = self.rows() - 1;
        let (head, tail) = self.tab.split_at_mut(r * stride);
        let (bhead, btail) = self.b.split_at_mut(r);
        let (row, rhs) = (&mut tail[..width], &mut btail[0]);
        for (i, &basic) in self.basis[..r].iter().enumerate() {
            let factor = &row[basic];
            if factor.is_zero() {
                continue;
            }
            let src = &head[i * stride..i * stride + width];
            let (alpha, beta) = coprime(&src[basic], factor);
            let nonzero = src.iter().enumerate().filter(|(_, v)| !v.is_zero());
            combine(row, rhs, &alpha, &beta, nonzero, &bhead[i]);
        }
        self.normalize(r, width, None);
    }
}

/// The entering column, or `None` when no reduced cost is positive (the
/// run is optimal): Dantzig's rule (largest reduced cost, smallest index
/// on ties), or Bland's (first positive) once the run has `stalled`.
/// `red` holds numerators over one positive denominator, so signs and
/// order are the reduced costs'.
fn entering(red: &[BigInt], stalled: bool) -> Option<usize> {
    if stalled {
        return red.iter().position(BigInt::is_positive);
    }
    let mut best: Option<usize> = None;
    for (j, r) in red.iter().enumerate() {
        if r.is_positive() && best.is_none_or(|b| *r > red[b]) {
            best = Some(j);
        }
    }
    best
}

impl Scratch {
    /// Seeds the reduced-cost row `cost − Σ cost(basic)·row/scale` and
    /// the objective value at the tableau's basis, touching only the rows
    /// whose basic column has a nonzero cost.
    fn price(&mut self, t: &Tableau, width: usize, cost: impl Fn(usize) -> Rational) {
        let mut den = BigInt::one();
        for j in 0..width {
            let c = cost(j);
            if !c.is_integer() {
                den = den.lcm(c.denom());
            }
        }
        self.red.clear();
        self.red.extend((0..width).map(|j| {
            let c = cost(j);
            c.numer() * &(&den / c.denom())
        }));
        self.neg_z = BigInt::zero();
        self.den = den;
        for i in 0..t.rows() {
            let cb = cost(t.basis[i]);
            if cb.is_zero() {
                continue;
            }
            // red/den − (p/q)·row/s = (α·red − β·row) / (α·den) with
            // (α, β) = (q·s, p·den) over their gcd.
            let (alpha, beta) = coprime(&(cb.denom() * t.scale(i)), &(cb.numer() * &self.den));
            let row = &t.tab[i * t.stride..i * t.stride + width];
            let nonzero = row.iter().enumerate().filter(|(_, v)| !v.is_zero());
            let known = combine(
                &mut self.red,
                &mut self.neg_z,
                &alpha,
                &beta,
                nonzero,
                &t.b[i],
            );
            self.den *= &alpha;
            self.normalize(known);
        }
    }

    /// Applies the pivot just made on `(i, j)` (pivot row in `nz`/`prow`,
    /// entry `aij`, right-hand side `bi`) to the reduced-cost row: the
    /// same row operation as on a tableau row, which zeroes column `j`.
    fn reprice(&mut self, aij: &BigInt, bi: &BigInt, j: usize) {
        let (alpha, beta) = coprime(aij, &self.red[j]);
        let src = self.nz.iter().copied().zip(&self.prow);
        let known = combine(&mut self.red, &mut self.neg_z, &alpha, &beta, src, bi);
        self.den *= &alpha;
        self.normalize(known);
    }

    /// Divides the reduced-cost row, the objective and their denominator
    /// by their content (`known`: that of the row and the objective,
    /// when [`combine`] took it).
    fn normalize(&mut self, known: Option<BigInt>) {
        let g = match known {
            Some(g) => g.gcd(&self.den),
            None => content(&self.den, &self.red, &self.neg_z),
        };
        if divide(&mut self.red, &mut self.neg_z, &g) {
            self.den = &self.den / &g;
        }
    }

    /// The objective value at the current basis.
    fn objective(&self) -> Rational {
        Rational::from_bigints(-&self.neg_z, self.den.clone())
    }
}

/// Primal simplex: maximizes `Σ cost(j)·x_j` over the first `width`
/// columns of a primal-feasible tableau, pivoting it in place from its
/// basis, and adds every pivot it makes to `pivots`. Dantzig's rule
/// picks each entering column until [`STALL_LIMIT`] degenerate pivots
/// have run in a row, and Bland's rule from then on.
pub(crate) fn primal(
    t: &mut Tableau,
    width: usize,
    cost: impl Fn(usize) -> Rational,
    sx: &mut Scratch,
    pivots: &mut u64,
) -> Phase {
    sx.price(t, width, cost);
    let mut stall = 0usize;
    loop {
        let Some(j) = entering(&sx.red, stall >= STALL_LIMIT) else {
            return Phase::Optimal(sx.objective());
        };
        let Some(i) = t.leaving(j) else {
            return Phase::Unbounded;
        };
        if t.b[i].is_zero() {
            stall += 1;
        } else {
            stall = 0;
        }
        t.pivot(sx, width, i, j);
        *pivots += 1;
        sx.reprice(&t.tab[i * t.stride + j], &t.b[i], j);
    }
}
