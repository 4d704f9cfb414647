//! Differential property tests for the exact simplex kernel.
//!
//! Every LP in the crate runs on one kernel (`simplex.rs`) with one
//! pivot rule: Dantzig's on the integer reduced-cost row, Bland's after
//! a run of degenerate pivots. A bug in the kernel's row arithmetic or in
//! the rule would change which basis the simplex walks, and with it
//! optima, pivot counts or termination.
//!
//! [`reference`] checks both: a small dense two-phase simplex on
//! `Rational` cells with the kernel's conventions (split free variables,
//! one slack per row, an artificial per negative right-hand side,
//! artificials driven out between the phases) and the kernel's rule, but
//! none of its code. It recomputes the reduced costs from the basis at
//! every step. On every seeded family `lp_maximize` and `lp_minimize`
//! must return its result in its pivot count.
//!
//! Randomized with a local xorshift generator instead of `proptest` (the
//! offline build environment cannot fetch crates), so every run draws the
//! same deterministic case set.

use offload_poly::{lp_maximize, lp_minimize, Constraint, LinExpr, LpResult, Rational};

/// Consecutive degenerate pivots after which the kernel switches from
/// Dantzig's rule to Bland's (`simplex.rs`).
const STALL_LIMIT: usize = 24;

/// A reference solve: its result, its pivot count (phase 1, driving
/// artificials out, phase 2) and whether a phase reached the stall
/// switch.
struct Solved {
    result: LpResult,
    pivots: u64,
    stalled: bool,
}

/// The reference maximum of `obj` over the closures of `cs`.
fn reference(obj: &LinExpr, cs: &[Constraint]) -> Solved {
    let (n, m) = (obj.nvars(), cs.len());
    let cols = 2 * n + m;
    let arts = cs
        .iter()
        .filter(|c| c.expr.constant_term().is_negative())
        .count();
    let width = cols + arts;
    let zero = Rational::zero();
    let mut tab = vec![vec![zero.clone(); width]; m];
    let mut b = vec![zero.clone(); m];
    let mut basis = vec![0; m];
    let mut art = cols;
    for (i, c) in cs.iter().enumerate() {
        // sum(-a_j)(x+_j - x-_j) + s_i = c_i, negated when c_i < 0.
        let sign = if c.expr.constant_term().is_negative() {
            Rational::from(-1)
        } else {
            Rational::one()
        };
        for j in 0..n {
            let a = c.expr.coeff(j);
            tab[i][j] = &(-a) * &sign;
            tab[i][n + j] = a * &sign;
        }
        tab[i][2 * n + i] = sign.clone();
        b[i] = c.expr.constant_term() * &sign;
        if sign.is_negative() {
            tab[i][art] = Rational::one();
            basis[i] = art;
            art += 1;
        } else {
            basis[i] = 2 * n + i;
        }
    }
    // A phase that ends unbounded leaves the result as it starts.
    let mut out = Solved {
        result: LpResult::Unbounded,
        pivots: 0,
        stalled: false,
    };
    if arts > 0 {
        let phase1 = |j: usize| {
            if j >= cols {
                Rational::from(-1)
            } else {
                Rational::zero()
            }
        };
        match run(&mut tab, &mut b, &mut basis, width, &phase1, &mut out) {
            None => return out,
            Some(v) if v.is_negative() => {
                out.result = LpResult::Infeasible;
                return out;
            }
            Some(_) => {}
        }
        for i in 0..m {
            if basis[i] >= cols {
                if let Some(j) = (0..cols).find(|&j| !tab[i][j].is_zero()) {
                    pivot(&mut tab, &mut b, i, j);
                    basis[i] = j;
                    out.pivots += 1;
                }
            }
        }
    }
    let phase2 = |j: usize| {
        if j < n {
            obj.coeff(j).clone()
        } else if j < 2 * n {
            -obj.coeff(j - n)
        } else {
            Rational::zero()
        }
    };
    if let Some(v) = run(&mut tab, &mut b, &mut basis, cols, &phase2, &mut out) {
        out.result = LpResult::Optimal(&v + obj.constant_term());
    }
    out
}

/// Normalizes row `i` on column `j` and eliminates `j` from the others.
fn pivot(tab: &mut [Vec<Rational>], b: &mut [Rational], i: usize, j: usize) {
    let inv = tab[i][j].recip();
    for v in tab[i].iter_mut() {
        *v = &*v * &inv;
    }
    b[i] = &b[i] * &inv;
    for r in (0..tab.len()).filter(|&r| r != i) {
        let f = tab[r][j].clone();
        if f.is_zero() {
            continue;
        }
        for k in 0..tab[r].len() {
            let d = &f * &tab[i][k];
            tab[r][k] = &tab[r][k] - &d;
        }
        b[r] = &b[r] - &(&f * &b[i]);
    }
}

/// Maximizes `cost` over the first `w` columns from the tableau's
/// basis by the kernel's rule, adding its pivots to `out`: the optimum,
/// or `None` if unbounded. The stall count starts at zero on each call,
/// as it does on each run of the kernel.
fn run(
    tab: &mut [Vec<Rational>],
    b: &mut [Rational],
    basis: &mut [usize],
    w: usize,
    cost: &dyn Fn(usize) -> Rational,
    out: &mut Solved,
) -> Option<Rational> {
    let mut stall = 0;
    loop {
        let red: Vec<Rational> = (0..w)
            .map(|j| {
                let mut r = cost(j);
                for (i, &bi) in basis.iter().enumerate() {
                    r = &r - &(&cost(bi) * &tab[i][j]);
                }
                r
            })
            .collect();
        let entering = if stall >= STALL_LIMIT {
            // Bland: the first positive reduced cost.
            out.stalled = true;
            (0..w).find(|&j| red[j].is_positive())
        } else {
            // Dantzig: the largest, the smallest index on ties.
            let mut best: Option<usize> = None;
            for j in (0..w).filter(|&j| red[j].is_positive()) {
                if best.is_none_or(|k| red[j] > red[k]) {
                    best = Some(j);
                }
            }
            best
        };
        let Some(j) = entering else {
            let mut z = Rational::zero();
            for (i, &bi) in basis.iter().enumerate() {
                z = &z + &(&cost(bi) * &b[i]);
            }
            return Some(z);
        };
        let mut leave: Option<usize> = None;
        for i in (0..tab.len()).filter(|&i| tab[i][j].is_positive()) {
            let better = match leave {
                None => true,
                Some(l) => {
                    let (ri, rl) = (&b[i] / &tab[i][j], &b[l] / &tab[l][j]);
                    ri < rl || (ri == rl && basis[i] < basis[l])
                }
            };
            if better {
                leave = Some(i);
            }
        }
        let i = leave?;
        if b[i].is_zero() {
            stall += 1;
        } else {
            stall = 0;
        }
        pivot(tab, b, i, j);
        basis[i] = j;
        out.pivots += 1;
    }
}

/// `lp_maximize` and `lp_minimize` against [`reference`]: the same
/// result in the same number of pivots. Returns whether a reference run
/// reached the stall switch.
fn assert_matches_reference(obj: &LinExpr, cs: &[Constraint], what: &str) -> bool {
    let want = reference(obj, cs);
    let (got, tally) = offload_obs::tallied(|| lp_maximize(obj, cs));
    assert_eq!(got, want.result, "{what}: maximum vs reference");
    assert_eq!(tally.lp_pivots, want.pivots, "{what}: maximize pivots");
    // The minimum is the negated maximum of the negated objective.
    let mut below = reference(&obj.scale(&Rational::from(-1)), cs);
    if let LpResult::Optimal(v) = below.result {
        below.result = LpResult::Optimal(-v);
    }
    let (got, tally) = offload_obs::tallied(|| lp_minimize(obj, cs));
    assert_eq!(got, below.result, "{what}: minimum vs reference");
    assert_eq!(tally.lp_pivots, below.pivots, "{what}: minimize pivots");
    want.stalled || below.stalled
}

/// Deterministic xorshift64* generator for the property loops.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[lo, hi]` (inclusive).
    fn i64_in(&mut self, lo: i64, hi: i64) -> i64 {
        let span = (hi - lo) as u64 + 1;
        lo + (self.next() % span) as i64
    }

    fn usize(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// A random LP: bounded box plus extra random half-spaces (some strict),
/// and a random objective. Small coefficients with overlapping support,
/// so many cases are degenerate.
fn arb_lp(rng: &mut Rng, nvars: usize, rows: usize) -> (LinExpr, Vec<Constraint>) {
    let mut cs: Vec<Constraint> = Vec::new();
    for v in 0..nvars {
        // 0 <= x_v <= bound keeps most cases bounded; the unbounded /
        // infeasible tests below drop or contradict these on purpose.
        cs.push(Constraint::ge0(LinExpr::var(nvars, v)));
        let bound = Rational::from(rng.i64_in(1, 12));
        cs.push(Constraint::ge0(
            LinExpr::constant(nvars, bound).sub(&LinExpr::var(nvars, v)),
        ));
    }
    for _ in 0..rows {
        let mut e = LinExpr::zero(nvars);
        for v in 0..nvars {
            if rng.usize(3) != 0 {
                e.set_coeff(v, Rational::from(rng.i64_in(-3, 3)));
            }
        }
        e.set_constant(Rational::from(rng.i64_in(0, 9)));
        if rng.usize(6) == 0 {
            cs.push(Constraint::gt0(e));
        } else {
            cs.push(Constraint::ge0(e));
        }
    }
    let mut obj = LinExpr::zero(nvars);
    for v in 0..nvars {
        obj.set_coeff(v, Rational::from(rng.i64_in(-5, 5)));
    }
    (obj, cs)
}

#[test]
fn matches_the_reference_on_random_lps() {
    let mut rng = Rng::new(0x5AD0_11E5);
    for case in 0..120 {
        let nvars = 1 + rng.usize(4);
        let rows = rng.usize(7);
        let (obj, cs) = arb_lp(&mut rng, nvars, rows);
        assert_matches_reference(&obj, &cs, &format!("case {case}"));
    }
}

#[test]
fn matches_the_reference_on_degenerate_lps() {
    // Highly degenerate vertices (many tight constraints through the
    // origin) force ties in the ratio test and zero-progress pivots.
    let mut rng = Rng::new(0xDE6E_0001);
    for case in 0..60 {
        let nvars = 2 + rng.usize(3);
        let mut cs: Vec<Constraint> = Vec::new();
        for v in 0..nvars {
            cs.push(Constraint::ge0(LinExpr::var(nvars, v)));
        }
        // Rows with zero constant term: every one is tight at the origin.
        for _ in 0..(3 + rng.usize(5)) {
            let mut e = LinExpr::zero(nvars);
            for v in 0..nvars {
                e.set_coeff(v, Rational::from(rng.i64_in(-2, 0)));
            }
            cs.push(Constraint::ge0(e));
        }
        // A cap so the maximum exists.
        let mut cap = LinExpr::constant(nvars, Rational::from(10));
        for v in 0..nvars {
            cap = cap.sub(&LinExpr::var(nvars, v));
        }
        cs.push(Constraint::ge0(cap));
        let mut obj = LinExpr::zero(nvars);
        for v in 0..nvars {
            obj.set_coeff(v, Rational::from(rng.i64_in(0, 3)));
        }
        assert_matches_reference(&obj, &cs, &format!("degenerate case {case}"));
    }
}

#[test]
fn matches_the_reference_past_the_stall_limit() {
    // Ten variables, forty rows through the origin with coefficients in
    // [-2, 1] and a cap: long runs of zero-progress pivots, some longer
    // than the stall limit, where Bland's rule takes over. The same
    // systems as `pivot_path.rs`'s degenerate cold solves.
    let mut rng = Rng::new(0xDE6E_57A1);
    let mut stalled = 0;
    for case in 0..4 {
        let n = 10;
        let mut cs = Vec::new();
        for v in 0..n {
            cs.push(Constraint::ge0(LinExpr::var(n, v)));
        }
        for _ in 0..40 {
            let mut e = LinExpr::zero(n);
            for v in 0..n {
                e.set_coeff(v, Rational::from(rng.i64_in(-2, 1)));
            }
            cs.push(Constraint::ge0(e));
        }
        let mut cap = LinExpr::constant(n, Rational::from(10));
        for v in 0..n {
            cap.set_coeff(v, Rational::from(-1));
        }
        cs.push(Constraint::ge0(cap));
        let mut obj = LinExpr::zero(n);
        for v in 0..n {
            obj.set_coeff(v, Rational::from(rng.i64_in(0, 3)));
        }
        if assert_matches_reference(&obj, &cs, &format!("stall case {case}")) {
            stalled += 1;
        }
    }
    assert!(stalled > 0, "no case reached the stall switch");
}

#[test]
fn matches_the_reference_through_phase_one() {
    // Negative right-hand sides and fractional coefficients: phase 1
    // runs, rows enter scaled by their denominators, and some systems
    // are infeasible.
    let mut rng = Rng::new(0xB1A4_D001);
    for case in 0..80 {
        let nvars = 1 + rng.usize(4);
        let rows = rng.usize(5);
        let (obj, mut cs) = arb_lp(&mut rng, nvars, rows);
        for _ in 0..1 + rng.usize(4) {
            let mut e = LinExpr::zero(nvars);
            for v in 0..nvars {
                if rng.usize(2) == 0 {
                    e.set_coeff(v, Rational::new(rng.i64_in(-5, 5), rng.i64_in(1, 4)));
                }
            }
            e.set_constant(Rational::new(rng.i64_in(-12, 3), rng.i64_in(1, 3)));
            cs.push(Constraint::ge0(e));
        }
        assert_matches_reference(&obj, &cs, &format!("phase-1 case {case}"));
    }
}

#[test]
fn matches_the_reference_on_unbounded_and_infeasible_lps() {
    // Unbounded: maximize x with only x >= 0.
    let nv = 2;
    let obj = LinExpr::var(nv, 0);
    let open = vec![
        Constraint::ge0(LinExpr::var(nv, 0)),
        Constraint::ge0(LinExpr::var(nv, 1)),
    ];
    assert_matches_reference(&obj, &open, "unbounded");
    assert_eq!(lp_maximize(&obj, &open), LpResult::Unbounded);

    // Infeasible: x >= 1 and -x >= 0.
    let contradiction = vec![
        Constraint::ge0(LinExpr::var(nv, 0).plus_constant(Rational::from(-1))),
        Constraint::ge0(LinExpr::zero(nv).sub(&LinExpr::var(nv, 0))),
    ];
    assert_matches_reference(&obj, &contradiction, "infeasible");
    assert_eq!(lp_maximize(&obj, &contradiction), LpResult::Infeasible);
}

#[test]
fn matches_the_reference_on_coefficients_near_2_pow_63() {
    // Coefficients at ±2^63 and 2^63 - 1: past `i64`, so the kernel's
    // cells promote to heap limbs.
    let huge: Rational = "9223372036854775808".parse().unwrap(); // 2^63
    let huge_m1: Rational = "9223372036854775807".parse().unwrap(); // 2^63 - 1
    let neg_huge: Rational = "-9223372036854775808".parse().unwrap();
    let nv = 2;
    // huge*x + (huge-1)*y <= huge, x,y >= 0; maximize huge*x - huge*y.
    let mut row = LinExpr::constant(nv, huge.clone());
    row.set_coeff(0, neg_huge.clone());
    row.set_coeff(1, -&huge_m1);
    let cs = vec![
        Constraint::ge0(LinExpr::var(nv, 0)),
        Constraint::ge0(LinExpr::var(nv, 1)),
        Constraint::ge0(row),
    ];
    let mut obj = LinExpr::zero(nv);
    obj.set_coeff(0, huge.clone());
    obj.set_coeff(1, neg_huge.clone());
    assert_matches_reference(&obj, &cs, "2^63 coefficients");
    // x = 1, y = 0 is the maximum: objective value 2^63.
    assert_eq!(lp_maximize(&obj, &cs), LpResult::Optimal(huge));
}
