//! Differential property tests for the float-shadowed simplex.
//!
//! The shadow lets an f64 mirror of the reduced-cost row propose Dantzig
//! entering columns that the exact kernel then certifies pivot by pivot;
//! a bug in the proposal, certification, or fallback path would silently
//! change which basis the simplex walks — and with it optima, pivot
//! counts, or termination. These tests pit the shadow-guided solver
//! (`lp_maximize` / `lp_minimize`) against the same kernel under Bland's
//! rule alone (`lp_maximize_bland`) on the same random LPs and require
//! identical [`LpResult`]s, and they pin the shadow's own counters as
//! deterministic (run-to-run equal and
//! `proposals = certified + fallbacks`).
//!
//! Both solvers share the kernel's integer-row arithmetic, so neither
//! can check it. [`reference`] can: a small dense two-phase simplex on
//! `Rational` cells with the kernel's conventions (split free variables,
//! one slack per row, an artificial per negative right-hand side,
//! Bland's rule in both phases, artificials driven out between them)
//! but none of its code. On the seeded LPs, `lp_maximize_bland` must
//! return its results in its pivot counts, and `lp_maximize` its results.
//!
//! Randomized with a local xorshift generator instead of `proptest` (the
//! offline build environment cannot fetch crates), so every run draws the
//! same deterministic case set.

use offload_poly::{
    lp_maximize, lp_maximize_bland, lp_minimize, Constraint, LinExpr, LpResult, Rational,
};

/// The pure-exact reference minimum: the Bland maximum of `−obj`, negated.
fn minimize_bland(obj: &LinExpr, cs: &[Constraint]) -> LpResult {
    match lp_maximize_bland(&obj.scale(&Rational::from(-1)), cs) {
        LpResult::Optimal(v) => LpResult::Optimal(-v),
        other => other,
    }
}

/// The reference solve: Bland's rule on a dense `Rational` tableau,
/// reduced costs recomputed from the basis at every step. Returns the
/// result and the pivot count (phase 1, driving artificials out, phase
/// 2), which the kernel's Bland path must match.
fn reference(obj: &LinExpr, cs: &[Constraint]) -> (LpResult, u64) {
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
    let mut pivots = 0;
    if arts > 0 {
        let phase1 = |j: usize| {
            if j >= cols {
                Rational::from(-1)
            } else {
                Rational::zero()
            }
        };
        match run(&mut tab, &mut b, &mut basis, width, &phase1, &mut pivots) {
            None => return (LpResult::Unbounded, pivots),
            Some(v) if v.is_negative() => return (LpResult::Infeasible, pivots),
            Some(_) => {}
        }
        for i in 0..m {
            if basis[i] >= cols {
                if let Some(j) = (0..cols).find(|&j| !tab[i][j].is_zero()) {
                    pivot(&mut tab, &mut b, i, j);
                    basis[i] = j;
                    pivots += 1;
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
    let result = match run(&mut tab, &mut b, &mut basis, cols, &phase2, &mut pivots) {
        None => LpResult::Unbounded,
        Some(v) => LpResult::Optimal(&v + obj.constant_term()),
    };
    (result, pivots)
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

/// Maximizes `cost` over the first `w` columns by Bland's rule from the
/// tableau's basis: the optimum, or `None` if unbounded.
fn run(
    tab: &mut [Vec<Rational>],
    b: &mut [Rational],
    basis: &mut [usize],
    w: usize,
    cost: &dyn Fn(usize) -> Rational,
    pivots: &mut u64,
) -> Option<Rational> {
    loop {
        let red = |j: usize| {
            let mut r = cost(j);
            for (i, &bi) in basis.iter().enumerate() {
                r = &r - &(&cost(bi) * &tab[i][j]);
            }
            r
        };
        let Some(j) = (0..w).find(|&j| red(j).is_positive()) else {
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
        pivot(tab, b, i, j);
        basis[i] = j;
        *pivots += 1;
    }
}

/// `lp_maximize_bland` against [`reference`]: the same result in the
/// same number of pivots; `lp_maximize` the same result.
fn assert_matches_reference(obj: &LinExpr, cs: &[Constraint], what: &str) {
    let (want, want_pivots) = reference(obj, cs);
    let (bland, tally) = offload_obs::tallied(|| lp_maximize_bland(obj, cs));
    assert_same(&bland, &want, &format!("{what}: Bland vs reference"));
    assert_eq!(
        tally.lp_pivots, want_pivots,
        "{what}: Bland pivot count vs reference"
    );
    assert_same(
        &lp_maximize(obj, cs),
        &want,
        &format!("{what}: shadowed vs reference"),
    );
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
/// so many cases are degenerate enough to exercise the stall ladder.
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

fn assert_same(shadowed: &LpResult, pure: &LpResult, what: &str) {
    match (shadowed, pure) {
        (LpResult::Optimal(a), LpResult::Optimal(b)) => {
            assert_eq!(a, b, "{what}: optima diverged")
        }
        (LpResult::Infeasible, LpResult::Infeasible)
        | (LpResult::Unbounded, LpResult::Unbounded) => {}
        (a, b) => panic!("{what}: shadow={a:?} pure={b:?}"),
    }
}

#[test]
fn shadow_matches_pure_exact_on_random_lps() {
    let mut rng = Rng::new(0x5AD0_11E5);
    for case in 0..120 {
        let nvars = 1 + rng.usize(4);
        let rows = rng.usize(7);
        let (obj, cs) = arb_lp(&mut rng, nvars, rows);
        assert_matches_reference(&obj, &cs, &format!("case {case}"));
        let max = lp_maximize(&obj, &cs);
        assert_same(
            &max,
            &lp_maximize_bland(&obj, &cs),
            &format!("case {case} max"),
        );
        let min = lp_minimize(&obj, &cs);
        assert_same(
            &min,
            &minimize_bland(&obj, &cs),
            &format!("case {case} min"),
        );
    }
}

#[test]
fn shadow_matches_pure_exact_on_degenerate_lps() {
    // Highly degenerate vertices (many tight constraints through the
    // origin) force ties in the ratio test and zero-progress pivots —
    // the regime where the stall ladder hands control back to Bland.
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
        let on = lp_maximize(&obj, &cs);
        let off = lp_maximize_bland(&obj, &cs);
        assert_same(&on, &off, &format!("degenerate case {case}"));
    }
}

#[test]
fn bland_matches_the_reference_through_phase_one() {
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
fn shadow_agrees_on_unbounded_and_infeasible_lps() {
    // Unbounded: maximize x with only x >= 0.
    let nv = 2;
    let obj = LinExpr::var(nv, 0);
    let open = vec![
        Constraint::ge0(LinExpr::var(nv, 0)),
        Constraint::ge0(LinExpr::var(nv, 1)),
    ];
    assert_matches_reference(&obj, &open, "unbounded");
    let on = lp_maximize(&obj, &open);
    let off = lp_maximize_bland(&obj, &open);
    assert_same(&on, &off, "unbounded");
    assert!(matches!(on, LpResult::Unbounded));

    // Infeasible: x >= 1 and -x >= 0.
    let contradiction = vec![
        Constraint::ge0(LinExpr::var(nv, 0).plus_constant(Rational::from(-1))),
        Constraint::ge0(LinExpr::zero(nv).sub(&LinExpr::var(nv, 0))),
    ];
    assert_matches_reference(&obj, &contradiction, "infeasible");
    let on = lp_maximize(&obj, &contradiction);
    let off = lp_maximize_bland(&obj, &contradiction);
    assert_same(&on, &off, "infeasible");
    assert!(matches!(on, LpResult::Infeasible));
}

#[test]
fn shadow_survives_coefficients_beyond_f64_precision() {
    // Coefficients near ±2^63 collapse to the same f64, so the shadow's
    // proposals are low-information at best and wrong at worst — exact
    // certification has to carry the solve regardless.
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
    let on = lp_maximize(&obj, &cs);
    let off = lp_maximize_bland(&obj, &cs);
    assert_same(&on, &off, "2^63 coefficients");
    // x = 1, y = 0 is the maximum: objective value 2^63.
    assert_eq!(on, LpResult::Optimal(huge));
}

#[test]
fn shadow_counters_are_run_to_run_identical_and_balanced() {
    let mut rng = Rng::new(0xC0FF_EE00);
    let (obj, cs) = arb_lp(&mut rng, 3, 5);
    let run = || offload_obs::tallied(|| lp_maximize(&obj, &cs));
    let (r1, d1) = run();
    let (r2, d2) = run();
    assert_eq!(r1, r2);
    assert!(d1.shadow_proposals > 0, "the shadow actually ran");
    assert_eq!(
        d1.shadow_proposals,
        d1.shadow_certified + d1.shadow_fallbacks,
        "every proposal is either certified or falls back"
    );
    assert_eq!(d1.shadow_proposals, d2.shadow_proposals);
    assert_eq!(d1.shadow_certified, d2.shadow_certified);
    assert_eq!(d1.shadow_fallbacks, d2.shadow_fallbacks);
}
