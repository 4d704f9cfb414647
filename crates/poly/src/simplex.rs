//! The exact primal simplex kernel behind every LP in this crate: the
//! cold two-phase solver in `lp.rs` and the warm-started incremental LP
//! in `reduce.rs` both run [`primal`] on a [`Tableau`].
//!
//! A tableau is one flat row-major block of exact rationals in the
//! standard-form convention both solvers share: each free variable splits
//! into `x⁺ − x⁻` (columns `0..n` and `n..2n`), each constraint row
//! `expr ≥ 0` gets its own slack column, and the cold solver appends the
//! artificial columns its phase 1 needs. [`primal`] seeds the reduced-cost
//! row from the basis, then maintains it across pivots instead of
//! recomputing it: in exact arithmetic the maintained row equals the
//! recomputed one, so the pivot rule sees the identical row either way.
//! Pivots touch only the nonzero columns of the pivot row.
//!
//! Pivot *search* runs on the `f64` shadow of the reduced-cost row
//! (`shadow.rs`) when the caller passes one: the shadow proposes a
//! Dantzig column and the exact row certifies it. A failed certification
//! falls back to the caller's exact [`Rule`], and after [`STALL_LIMIT`]
//! consecutive degenerate pivots Bland's rule takes over, so its
//! anti-cycling argument bounds the run. Every applied pivot has an
//! exactly positive reduced cost, so optima and the Infeasible/Unbounded
//! verdicts never depend on the rule; the rule decides only the pivot
//! path, and with it the pivot and shadow counts.

use crate::rational::Rational;
use crate::shadow::ShadowRed;

/// Consecutive degenerate (zero-progress) pivots tolerated before the
/// loop switches to Bland's rule on the exact row, whose anti-cycling
/// guarantee restores the termination proof.
const STALL_LIMIT: usize = 24;

/// A flat simplex tableau: per constraint row, `stride` coefficients, a
/// right-hand side and a basic column.
#[derive(Default)]
pub(crate) struct Tableau {
    /// `rows × stride` coefficients, row-major.
    pub tab: Vec<Rational>,
    /// Right-hand sides, one per row.
    pub b: Vec<Rational>,
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
    /// Maintained reduced-cost row over the run's active columns.
    red: Vec<Rational>,
    /// Nonzero columns of the last normalized pivot row.
    nz: Vec<usize>,
    /// Values of the last normalized pivot row at `nz`.
    prow: Vec<Rational>,
}

/// Exact entering-column rule.
#[derive(Clone, Copy)]
pub(crate) enum Rule {
    /// First column with a positive reduced cost (anti-cycling).
    Bland,
    /// Largest positive reduced cost, smallest index on ties.
    Dantzig,
}

/// Outcome of a primal run.
pub(crate) enum Phase {
    /// The maximum of the run's objective.
    Optimal(Rational),
    Unbounded,
}

impl Tableau {
    /// Number of constraint rows.
    pub fn rows(&self) -> usize {
        self.basis.len()
    }

    /// Ratio test for entering column `j`: the row minimizing `b_i / a_ij`
    /// over `a_ij > 0`, the smallest basic column on ties (Bland). Ratios
    /// are compared by cross-multiplication, forming no quotients. `None`
    /// means the objective is unbounded along column `j`.
    fn leaving(&self, j: usize) -> Option<usize> {
        let a = |i: usize| &self.tab[i * self.stride + j];
        let mut leave: Option<usize> = None;
        for i in (0..self.rows()).filter(|&i| a(i).is_positive()) {
            leave = match leave {
                // b_i / a_ij ? b_li / a_lij  <=>  b_i·a_lij ? b_li·a_ij
                Some(li) => {
                    let lhs = &self.b[i] * a(li);
                    let rhs = &self.b[li] * a(i);
                    let better = lhs < rhs || (lhs == rhs && self.basis[i] < self.basis[li]);
                    Some(if better { i } else { li })
                }
                None => Some(i),
            };
        }
        leave
    }

    /// Pivots on `(i, j)`: normalizes the pivot row, eliminates column `j`
    /// from every other row touching only the pivot row's nonzero columns,
    /// and leaves the normalized pivot row in `sx`. Columns at `width` and
    /// beyond are skipped.
    pub fn pivot(&mut self, sx: &mut Scratch, width: usize, i: usize, j: usize) {
        let stride = self.stride;
        let inv = self.tab[i * stride + j].recip();
        sx.nz.clear();
        sx.prow.clear();
        for k in 0..width {
            let v = &mut self.tab[i * stride + k];
            if !v.is_zero() {
                *v *= &inv;
                sx.nz.push(k);
                sx.prow.push(v.clone());
            }
        }
        self.b[i] *= &inv;
        for r in (0..self.rows()).filter(|&r| r != i) {
            let factor = self.tab[r * stride + j].clone();
            if factor.is_zero() {
                continue;
            }
            for (&k, v) in sx.nz.iter().zip(&sx.prow) {
                self.tab[r * stride + k] -= &(&factor * v);
            }
            if !self.b[i].is_zero() {
                let t = &factor * &self.b[i];
                self.b[r] -= &t;
            }
        }
        self.basis[i] = j;
    }
}

impl Rule {
    /// The entering column by this rule, or `None` when no reduced cost
    /// is positive (the run is optimal).
    fn choose(self, red: &[Rational]) -> Option<usize> {
        match self {
            Rule::Bland => red.iter().position(Rational::is_positive),
            Rule::Dantzig => {
                let mut best: Option<usize> = None;
                for (j, r) in red.iter().enumerate() {
                    if r.is_positive() && best.is_none_or(|b| *r > red[b]) {
                        best = Some(j);
                    }
                }
                best
            }
        }
    }
}

/// Primal simplex: maximizes `Σ cost(j)·x_j` over the first `width`
/// columns of a primal-feasible tableau, pivoting it in place from its
/// basis, and adds every pivot it makes to `pivots`.
///
/// With a `shadow`, the shadow proposes each entering column and `rule`
/// decides only when certification fails; without one, `rule` decides
/// every column. Either way Bland's rule decides once [`STALL_LIMIT`]
/// degenerate pivots have run in a row.
pub(crate) fn primal(
    t: &mut Tableau,
    width: usize,
    cost: impl Fn(usize) -> Rational,
    sx: &mut Scratch,
    mut shadow: Option<&mut ShadowRed>,
    rule: Rule,
    pivots: &mut u64,
) -> Phase {
    // Reduced costs at the starting basis, touching only the rows whose
    // basic column has a nonzero cost.
    sx.red.clear();
    sx.red.extend((0..width).map(&cost));
    let mut z = Rational::zero();
    for i in 0..t.rows() {
        let cb = cost(t.basis[i]);
        if cb.is_zero() {
            continue;
        }
        let row = &t.tab[i * t.stride..i * t.stride + width];
        for (r, a) in sx.red.iter_mut().zip(row) {
            if !a.is_zero() {
                *r -= &(&cb * a);
            }
        }
        z += &(&cb * &t.b[i]);
    }
    if let Some(fred) = shadow.as_deref_mut() {
        fred.sync(&sx.red);
    }
    let mut stall = 0usize;
    loop {
        let entering = match shadow.as_deref_mut() {
            Some(fred) if stall < STALL_LIMIT => fred.certify(&sx.red, || rule.choose(&sx.red)),
            _ if stall < STALL_LIMIT => rule.choose(&sx.red),
            _ => Rule::Bland.choose(&sx.red),
        };
        let Some(j) = entering else {
            return Phase::Optimal(z);
        };
        let Some(i) = t.leaving(j) else {
            return Phase::Unbounded;
        };
        if t.b[i].is_zero() {
            stall += 1;
        } else {
            stall = 0;
        }
        // red -= red_j · (normalized pivot row) sets red_j to an exact
        // zero; z grows by red_j times the entering column's new value.
        let rj = sx.red[j].clone();
        t.pivot(sx, width, i, j);
        *pivots += 1;
        for (&k, v) in sx.nz.iter().zip(&sx.prow) {
            sx.red[k] -= &(&rj * v);
        }
        if let Some(fred) = shadow.as_deref_mut() {
            fred.pivot_update(rj.to_f64(), &sx.nz, &sx.prow, j);
        }
        z += &(&rj * &t.b[i]);
    }
}
