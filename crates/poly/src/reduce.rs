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
//!    clones the current basis and runs primal phase-2 only; there is no
//!    phase-1 and no tableau rebuilt from scratch.
//!
//! 3. **Deterministic intra-call parallelism.** Candidates are walked in
//!    a *fixed* block schedule (independent of the thread count). Each
//!    block's checks run against the basis frozen at the block start —
//!    across as many worker threads as the caller granted — and a
//!    sequential integration pass then confirms survivors against the
//!    live basis. A candidate implied by the frozen (smaller) kept set is
//!    implied by every later kept set, so a parallel "implied" verdict is
//!    final; a "not implied" verdict is re-validated sequentially before
//!    the candidate is accepted. The survivor set — and every counter —
//!    is therefore identical for every thread count, including 1.

use crate::fanout::{fan_out, hardware_threads};
use crate::linear::{Cmp, Constraint};
use crate::rational::Rational;
use crate::shadow::{self, ShadowCounts, ShadowRed, STALL_LIMIT};
use std::time::Instant;

/// Upper bound on a block of candidate checks that run against one
/// frozen basis. Early blocks are small (survivors cluster at the front,
/// and each survivor in a block forces a sequential re-check), growing
/// geometrically to this cap once drops dominate.
const MAX_BLOCK: usize = 64;

/// Minimum block length worth spawning scoped worker threads for.
const PAR_THRESHOLD: usize = 4;

/// Minimum estimated block work — block length × live basis rows — worth
/// spawning scoped worker threads for. Each verdict solves an LP over
/// the kept basis, so `bs × kept` tracks the block's real cost where
/// block length alone does not: the G.721 decoder's reduce calls have
/// the same block shapes as the encoder's but bases roughly half the
/// size, and spawning for those cheap blocks cost more than it saved
/// (the rawdaudio parallel regression).
const PAR_MIN_WORK: usize = 1500;

/// How many witness vertices the incremental LP remembers. Each kept
/// constraint's post-push vertex lands here; older vertices age out.
const WITNESS_CAP: usize = 8;

/// The fixed candidate block schedule for `n` candidates: 1, 2, 4, …,
/// [`MAX_BLOCK`], then [`MAX_BLOCK`] repeated. Never depends on the
/// thread count — the schedule decides which basis each check runs
/// against, so it must be part of the deterministic algorithm, not of
/// the execution strategy.
fn block_sizes(n: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut covered = 0usize;
    let mut size = 1usize;
    while covered < n {
        let b = size.min(n - covered);
        out.push(b);
        covered += b;
        if size < MAX_BLOCK {
            size *= 2;
        }
    }
    out
}

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
/// Standard-form tableau in the same column convention as `lp.rs`: each
/// free variable splits into `x⁺ − x⁻` (columns `0..n` and `n..2n`), and
/// the `i`-th pushed constraint `expr ≥ 0` becomes the row
/// `Σ(−a_j)(x⁺_j − x⁻_j) + s_i = c_i` with slack column `2n + i`. The
/// basis is kept primal-feasible at all times, so implication checks are
/// phase-2 only.
struct IncLp {
    n: usize,
    /// Reserved slack columns (row stride = `2n + slack_cap`); doubled on
    /// demand as constraints are pushed. Kept close to the *kept* row
    /// count — not the candidate count — because every implication check
    /// that pivots copies the tableau, and clone cost is `rows × stride`.
    slack_cap: usize,
    rows: usize,
    tab: Vec<Rational>,
    b: Vec<Rational>,
    basis: Vec<usize>,
    /// The closure of the kept set is empty; every candidate is implied.
    infeasible: bool,
    /// Recently visited vertices of the kept region (original variable
    /// space), used to disprove implication without running the LP.
    points: Vec<Vec<Rational>>,
}

/// Per-check scratch: a disposable copy of the basis state plus the
/// reduced-cost row. `clone_from` keeps the allocations alive across
/// checks, so steady-state checking does not allocate.
#[derive(Default, Clone)]
struct Work {
    tab: Vec<Rational>,
    b: Vec<Rational>,
    basis: Vec<usize>,
    red: Vec<Rational>,
    nz: Vec<usize>,
    prow: Vec<Rational>,
    /// `f64` shadow of `red` (pivot-search front-end, see `shadow.rs`).
    fred: ShadowRed,
}

/// Outcome of one phase-2 run.
enum Phase {
    Optimal(Rational),
    Unbounded,
}

impl IncLp {
    fn new(nvars: usize, capacity_hint: usize) -> IncLp {
        IncLp {
            n: nvars,
            slack_cap: capacity_hint.clamp(1, 32),
            rows: 0,
            tab: Vec::new(),
            b: Vec::new(),
            basis: Vec::new(),
            infeasible: false,
            points: Vec::new(),
        }
    }

    /// Row stride (dead columns beyond `2n + rows` are reserved slack
    /// slots for future pushes).
    fn stride(&self) -> usize {
        2 * self.n + self.slack_cap
    }

    /// Active column count.
    fn width(&self) -> usize {
        2 * self.n + self.rows
    }

    /// Doubles the reserved slack capacity, re-laying the tableau out at
    /// the wider stride. Slack column *indices* (`2n + row`) are below
    /// the old capacity bound, so basis entries stay valid verbatim.
    fn grow(&mut self) {
        let old_stride = self.stride();
        self.slack_cap *= 2;
        let new_stride = self.stride();
        let mut tab = vec![Rational::zero(); self.rows * new_stride];
        for i in 0..self.rows {
            for j in 0..old_stride {
                let v = &mut self.tab[i * old_stride + j];
                if !v.is_zero() {
                    tab[i * new_stride + j] = std::mem::take(v);
                }
            }
        }
        self.tab = tab;
    }

    /// The basic solution of the current tableau as a point in the
    /// original `n`-dimensional space (`x = x⁺ − x⁻`, non-basic columns
    /// zero). Always a feasible point of the kept closure.
    fn basic_point(&self) -> Vec<Rational> {
        let mut p = vec![Rational::zero(); self.n];
        for i in 0..self.rows {
            let col = self.basis[i];
            if col < self.n {
                p[col] += &self.b[i];
            } else if col < 2 * self.n {
                p[col - self.n] -= &self.b[i];
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

    /// Checks whether the kept set implies `c` (minimum of `c.expr` over
    /// the kept closure is non-negative / positive): witness points
    /// first, then warm-started primal phase-2 from the current feasible
    /// basis on a scratch copy.
    fn check(&self, c: &Constraint, work: &mut Work) -> bool {
        if self.infeasible {
            return true;
        }
        if self.witness_rejects(c) {
            offload_obs::tally(|t| t.prefilter_witness += 1);
            return false;
        }
        offload_obs::tally(|t| t.lp_warm_starts += 1);
        match self.phase2(c, work).0 {
            Phase::Unbounded => false,
            Phase::Optimal(z) => {
                // Objective was `maximize −(expr − c₀)`, so the exact
                // minimum of `expr` over the kept closure is `c₀ − z`.
                let min = c.expr.constant_term() - &z;
                match c.cmp {
                    Cmp::Ge => !min.is_negative(),
                    Cmp::Gt => min.is_positive(),
                }
            }
        }
    }

    /// Like [`IncLp::check`], but runs phase-2 *in place* on the base
    /// state (any primal-feasible basis is a valid base, so the
    /// candidate's minimizing basis is simply kept) and, on a non-implied
    /// verdict, pushes `c`. From the minimizer the new row enters with a
    /// negative right-hand side, so the dual simplex restores feasibility
    /// along the textbook warm-start cycle. Only the sequential
    /// integration pass calls this, so the mutation is deterministic.
    fn check_and_push(&mut self, c: &Constraint, work: &mut Work) -> bool {
        if self.infeasible {
            return true;
        }
        if self.witness_rejects(c) {
            offload_obs::tally(|t| t.prefilter_witness += 1);
            self.push(c, work);
            return false;
        }
        offload_obs::tally(|t| t.lp_warm_starts += 1);
        let implied = match self.phase2_mut(c, work) {
            Phase::Unbounded => false,
            Phase::Optimal(z) => {
                let min = c.expr.constant_term() - &z;
                match c.cmp {
                    Cmp::Ge => !min.is_negative(),
                    Cmp::Gt => min.is_positive(),
                }
            }
        };
        if implied {
            return true;
        }
        self.push(c, work);
        false
    }

    /// Primal phase-2: maximize `−(c.expr − c₀)`, entering by Dantzig's
    /// rule (largest reduced cost, smallest index on ties) and falling
    /// back to Bland's rule after a long degenerate stall so termination
    /// stays guaranteed. Both rules are deterministic, and the optimum is
    /// exact either way, so the verdict never depends on the rule.
    ///
    /// Runs *read-only* against the base state for as long as possible:
    /// the reduced-cost row is computed straight off the base tableau
    /// (touching only the ≤ 2·support basis rows with a non-zero
    /// objective coefficient), and the tableau is copied into `work` only
    /// when a pivot is actually required. Checks that are optimal at the
    /// current vertex — the common case for redundant candidates — cost
    /// no allocation and no copy at all. The returned flag says whether
    /// `work` now holds the (pivoted) final state.
    fn phase2(&self, c: &Constraint, work: &mut Work) -> (Phase, bool) {
        let width = self.width();
        let stride = self.stride();
        let mut red = std::mem::take(&mut work.red);
        let mut z = self.reduced_costs(c, &mut red);
        work.red = red;
        let shadowed = shadow::enabled();
        let mut sc = ShadowCounts::default();
        if shadowed {
            work.fred.sync(&work.red);
        }
        let mut pivoted = false;
        let mut stall = 0usize;
        let res = loop {
            let Some(j) = entering_shadowed(&mut work.fred, &work.red, stall, shadowed, &mut sc)
            else {
                break (Phase::Optimal(z), pivoted);
            };
            if !pivoted {
                work.tab.clone_from(&self.tab);
                work.b.clone_from(&self.b);
                work.basis.clone_from(&self.basis);
                pivoted = true;
            }
            let mut leave: Option<usize> = None;
            for i in 0..self.rows {
                if !work.tab[i * stride + j].is_positive() {
                    continue;
                }
                match leave {
                    None => leave = Some(i),
                    Some(li) => {
                        let lhs = &work.b[i] * &work.tab[li * stride + j];
                        let rhs = &work.b[li] * &work.tab[i * stride + j];
                        if lhs < rhs || (lhs == rhs && work.basis[i] < work.basis[li]) {
                            leave = Some(i);
                        }
                    }
                }
            }
            let Some(i) = leave else {
                break (Phase::Unbounded, pivoted);
            };
            if work.b[i].is_zero() {
                stall += 1;
            } else {
                stall = 0;
            }
            let rj = work.red[j].clone();
            offload_obs::tally(|t| t.lp_pivots += 1);
            pivot(
                &mut work.tab,
                &mut work.b,
                &mut work.basis,
                &mut work.nz,
                &mut work.prow,
                self.rows,
                stride,
                width,
                i,
                j,
            );
            for (&k, v) in work.nz.iter().zip(&work.prow) {
                work.red[k] -= &(&rj * v);
            }
            if shadowed {
                work.fred.pivot_update(rj.to_f64(), &work.nz, &work.prow, j);
            }
            z += &(&rj * &work.b[i]);
        };
        sc.flush();
        res
    }

    /// Seeds `red` with the reduced costs of `maximize −(c.expr − c₀)`
    /// at the current basis (touching only the basis rows with a
    /// non-zero objective coefficient — at most 2·support of them) and
    /// returns the objective value there.
    fn reduced_costs(&self, c: &Constraint, red: &mut Vec<Rational>) -> Rational {
        let n = self.n;
        let width = self.width();
        let stride = self.stride();
        let obj = |col: usize| -> Rational {
            if col < n {
                -c.expr.coeff(col)
            } else if col < 2 * n {
                c.expr.coeff(col - n).clone()
            } else {
                Rational::zero()
            }
        };
        red.clear();
        red.resize(width, Rational::zero());
        for (j, r) in red.iter_mut().enumerate() {
            *r = obj(j);
        }
        let mut z = Rational::zero();
        for i in 0..self.rows {
            let cb = obj(self.basis[i]);
            if cb.is_zero() {
                continue;
            }
            for (j, r) in red.iter_mut().enumerate().take(width) {
                let a = &self.tab[i * stride + j];
                if !a.is_zero() {
                    *r -= &(&cb * a);
                }
            }
            z += &(&cb * &self.b[i]);
        }
        z
    }

    /// In-place primal phase-2 for the integration path: identical pivot
    /// selection to [`IncLp::phase2`], but pivots the base tableau
    /// directly instead of a scratch copy — every basis it can reach is
    /// primal-feasible for the same pushed set, so no state is lost and
    /// no clone is paid.
    fn phase2_mut(&mut self, c: &Constraint, work: &mut Work) -> Phase {
        let width = self.width();
        let stride = self.stride();
        let mut red = std::mem::take(&mut work.red);
        let mut z = self.reduced_costs(c, &mut red);
        let shadowed = shadow::enabled();
        let mut sc = ShadowCounts::default();
        if shadowed {
            work.fred.sync(&red);
        }
        let mut stall = 0usize;
        let res = loop {
            let Some(j) = entering_shadowed(&mut work.fred, &red, stall, shadowed, &mut sc) else {
                break Phase::Optimal(z);
            };
            let mut leave: Option<usize> = None;
            for i in 0..self.rows {
                if !self.tab[i * stride + j].is_positive() {
                    continue;
                }
                match leave {
                    None => leave = Some(i),
                    Some(li) => {
                        let lhs = &self.b[i] * &self.tab[li * stride + j];
                        let rhs = &self.b[li] * &self.tab[i * stride + j];
                        if lhs < rhs || (lhs == rhs && self.basis[i] < self.basis[li]) {
                            leave = Some(i);
                        }
                    }
                }
            }
            let Some(i) = leave else {
                break Phase::Unbounded;
            };
            if self.b[i].is_zero() {
                stall += 1;
            } else {
                stall = 0;
            }
            let rj = red[j].clone();
            offload_obs::tally(|t| t.lp_pivots += 1);
            pivot(
                &mut self.tab,
                &mut self.b,
                &mut self.basis,
                &mut work.nz,
                &mut work.prow,
                self.rows,
                stride,
                width,
                i,
                j,
            );
            for (&k, v) in work.nz.iter().zip(&work.prow) {
                red[k] -= &(&rj * v);
            }
            if shadowed {
                work.fred.pivot_update(rj.to_f64(), &work.nz, &work.prow, j);
            }
            z += &(&rj * &self.b[i]);
        };
        sc.flush();
        work.red = red;
        res
    }

    /// Pushes `expr ≥ 0` into the base: appends the row with its own
    /// slack basic, eliminates the currently basic columns from it, and
    /// dual-simplex-pivots until the basis is primal-feasible again (or
    /// the system is proven infeasible).
    fn push(&mut self, c: &Constraint, work: &mut Work) {
        if self.infeasible {
            return;
        }
        if self.rows == self.slack_cap {
            self.grow();
        }
        let n = self.n;
        let stride = self.stride();
        let r = self.rows;
        self.tab.resize((r + 1) * stride, Rational::zero());
        {
            let row = &mut self.tab[r * stride..(r + 1) * stride];
            for j in 0..n {
                let aj = c.expr.coeff(j);
                if !aj.is_zero() {
                    row[j] = -aj;
                    row[n + j] = aj.clone();
                }
            }
            row[2 * n + r] = Rational::one();
        }
        self.b.push(c.expr.constant_term().clone());
        // Express the new row in the current basis: subtract
        // `factor × row_i` for each basic column with a non-zero entry
        // (row_i has 1 in its basic column and 0 in every other, so one
        // sweep suffices).
        for i in 0..r {
            let bi = self.basis[i];
            let factor = self.tab[r * stride + bi].clone();
            if factor.is_zero() {
                continue;
            }
            let width = 2 * n + r;
            for k in 0..width {
                let v = self.tab[i * stride + k].clone();
                if !v.is_zero() {
                    let t = &factor * &v;
                    self.tab[r * stride + k] -= &t;
                }
            }
            let t = &factor * &self.b[i];
            self.b[r] -= &t;
        }
        self.basis.push(2 * n + r);
        self.rows = r + 1;
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
        let stride = self.stride();
        loop {
            let width = self.width();
            let leave = (0..self.rows)
                .filter(|&i| self.b[i].is_negative())
                .min_by_key(|&i| self.basis[i]);
            let Some(i) = leave else {
                return;
            };
            let Some(j) = (0..width).find(|&j| self.tab[i * stride + j].is_negative()) else {
                // A row asserting (non-negative combination) = negative:
                // the kept closure is empty.
                self.infeasible = true;
                return;
            };
            offload_obs::tally(|t| t.dual_pivots += 1);
            pivot(
                &mut self.tab,
                &mut self.b,
                &mut self.basis,
                &mut work.nz,
                &mut work.prow,
                self.rows,
                stride,
                width,
                i,
                j,
            );
        }
    }
}

/// Shadow-certified entering-column choice: the `f64` shadow proposes a
/// Dantzig column at float cost and the exact row certifies it (strictly
/// positive reduced cost, or a confirmed optimality claim). On a failed
/// certification the choice falls back to the exact [`entering`] rule
/// and the shadow is resynchronized; with the shadow disabled, or once a
/// degenerate stall demands Bland's anti-cycling rule, the exact rule
/// runs directly. Every path is a pure function of the exact row (plus
/// the deterministically-maintained shadow), so the column choice never
/// depends on thread scheduling.
fn entering_shadowed(
    fred: &mut ShadowRed,
    red: &[Rational],
    stall: usize,
    shadowed: bool,
    sc: &mut ShadowCounts,
) -> Option<usize> {
    if !shadowed || stall >= STALL_LIMIT {
        return entering(red, stall >= STALL_LIMIT);
    }
    sc.proposals += 1;
    let prop = fred.propose(red.len());
    match prop {
        Some(p) if red[p].is_positive() => {
            sc.certified += 1;
            Some(p)
        }
        _ => {
            let exact = entering(red, false);
            if prop.is_none() && exact.is_none() {
                sc.certified += 1; // optimality claim confirmed
            } else {
                sc.fallbacks += 1;
                fred.sync(red);
            }
            exact
        }
    }
}

/// Entering-column choice for primal phase-2: Dantzig's rule (largest
/// positive reduced cost, smallest index on ties) normally; Bland's rule
/// (first positive) once a degenerate stall demands anti-cycling.
fn entering(red: &[Rational], bland: bool) -> Option<usize> {
    if bland {
        return red.iter().position(|r| r.is_positive());
    }
    let mut best: Option<usize> = None;
    for (j, r) in red.iter().enumerate() {
        if r.is_positive() && best.is_none_or(|b| *r > red[b]) {
            best = Some(j);
        }
    }
    best
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

/// Pivot on `(i, j)`: normalize the pivot row, eliminate column `j` from
/// every other row touching only the pivot row's non-zero columns, and
/// leave the normalized pivot row in `nz`/`prow` (for the caller's
/// reduced-cost update). Identical arithmetic to `lp::pivot`.
#[allow(clippy::too_many_arguments)]
fn pivot(
    tab: &mut [Rational],
    b: &mut [Rational],
    basis: &mut [usize],
    nz: &mut Vec<usize>,
    prow: &mut Vec<Rational>,
    rows: usize,
    stride: usize,
    width: usize,
    i: usize,
    j: usize,
) {
    let piv = tab[i * stride + j].clone();
    debug_assert!(!piv.is_zero());
    let inv = piv.recip();
    nz.clear();
    prow.clear();
    for k in 0..width {
        let v = &mut tab[i * stride + k];
        if !v.is_zero() {
            *v *= &inv;
            nz.push(k);
            prow.push(v.clone());
        }
    }
    b[i] *= &inv;
    for r in 0..rows {
        if r == i {
            continue;
        }
        let factor = tab[r * stride + j].clone();
        if factor.is_zero() {
            continue;
        }
        for (&k, v) in nz.iter().zip(prow.iter()) {
            let t = &factor * v;
            tab[r * stride + k] -= &t;
        }
        if !b[i].is_zero() {
            let t = &factor * &b[i];
            b[r] -= &t;
        }
    }
    basis[i] = j;
}

/// One candidate's implication check against a frozen state: the
/// interval pre-filter first, then the warm-started LP.
fn check_one(lp: &IncLp, bounds: &IntervalBox, c: &Constraint, work: &mut Work) -> bool {
    if lp.infeasible {
        return true;
    }
    if bounds.implies(c) {
        offload_obs::tally(|t| t.prefilter_interval += 1);
        return true;
    }
    lp.check(c, work)
}

/// The incremental redundancy filter: returns the (ascending) indices of
/// the candidates that survive "keep iff not implied by the already kept
/// set", walking `ordered` front to back. The survivor set is exactly
/// the sequential filter's — see the module docs for the argument — and
/// both it and every counter are independent of `threads`.
pub(crate) fn filter_implied(ordered: &[Constraint], threads: usize) -> Vec<usize> {
    if ordered.is_empty() {
        return Vec::new();
    }
    let t0 = Instant::now();
    let nvars = ordered[0].expr.nvars();
    let mut lp = IncLp::new(nvars, ordered.len());
    let mut bounds = IntervalBox::new(nvars);
    let mut kept: Vec<usize> = Vec::new();
    let mut work = Work::default();
    let mut start = 0usize;
    for bs in block_sizes(ordered.len()) {
        let block = start..start + bs;
        start += bs;
        if lp.infeasible {
            continue; // everything after an infeasible kept set is implied
        }
        // Verdicts against the basis frozen at block start. "Implied" is
        // final (implication is monotone in the kept set); "not implied"
        // is re-validated during sequential integration below.
        let spawn = threads.min(hardware_threads()) >= 2
            && bs >= PAR_THRESHOLD
            && bs * (kept.len() + 1) >= PAR_MIN_WORK;
        let verdicts: Vec<bool> = if spawn {
            // Each check is a pure function of the frozen `(lp, bounds)`
            // state and its candidate, so which worker computes it never
            // matters.
            let workers = threads.min(bs).min(hardware_threads());
            fan_out(bs, workers, Work::default, |work, k| {
                check_one(&lp, &bounds, &ordered[block.start + k], work)
            })
            .0
        } else {
            block
                .clone()
                .map(|i| check_one(&lp, &bounds, &ordered[i], &mut work))
                .collect()
        };
        for (k, i) in block.enumerate() {
            if lp.infeasible || verdicts[k] {
                continue;
            }
            // Confirm against the live basis (the kept set may have grown
            // within this block) and, on survival, adopt + push.
            if bounds.implies(&ordered[i]) {
                offload_obs::tally(|t| t.prefilter_interval += 1);
                continue;
            }
            if lp.check_and_push(&ordered[i], &mut work) {
                continue;
            }
            bounds.absorb(&ordered[i]);
            kept.push(i);
        }
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
    fn block_schedule_is_fixed_and_covers() {
        assert_eq!(block_sizes(0), Vec::<usize>::new());
        assert_eq!(block_sizes(1), vec![1]);
        assert_eq!(block_sizes(10), vec![1, 2, 4, 3]);
        let total: usize = block_sizes(1000).iter().sum();
        assert_eq!(total, 1000);
        assert!(block_sizes(1000).iter().all(|&b| b <= MAX_BLOCK));
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
        for threads in [1, 3] {
            assert_eq!(filter_implied(&cs, threads), reference_filter(&cs));
        }
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
        let got = filter_implied(&cs, 2);
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
        let (got, delta) = offload_obs::tallied(|| filter_implied(&cs, 1));
        assert_eq!(got, reference_filter(&cs));
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert!(delta.prefilter_interval > 0, "interval filter must fire");
    }

    #[test]
    fn counters_are_thread_count_independent() {
        let mut cs = vec![
            ge(3, &[(0, 1)], 0),
            ge(3, &[(1, 1)], 0),
            ge(3, &[(2, 1)], 0),
            ge(3, &[(0, -1), (1, -1), (2, -1)], 30),
        ];
        for k in 1..40 {
            cs.push(ge(3, &[(0, k % 5 + 1), (1, 1)], 10 * k));
            cs.push(ge(3, &[(1, -1), (2, -(k % 3) - 1)], 90 + k));
        }
        let (seq, d_seq) = offload_obs::tallied(|| filter_implied(&cs, 1));
        let (par, d_par) = offload_obs::tallied(|| filter_implied(&cs, 4));
        assert_eq!(seq, par);
        assert_eq!(d_seq.lp_warm_starts, d_par.lp_warm_starts);
        assert_eq!(d_seq.dual_pivots, d_par.dual_pivots);
        assert_eq!(d_seq.lp_pivots, d_par.lp_pivots);
        assert_eq!(d_seq.prefilter_interval, d_par.prefilter_interval);
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
        let got = filter_implied(&cs, 1);
        assert_eq!(got, reference_filter(&cs));
        assert_eq!(got, vec![0, 2]);
    }
}
