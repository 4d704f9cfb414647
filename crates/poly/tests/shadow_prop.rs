//! Differential property tests for the float-shadowed simplex.
//!
//! The shadow lets an f64 mirror of the reduced-cost row propose Dantzig
//! entering columns that the exact kernel then certifies pivot by pivot;
//! a bug in the proposal, certification, or fallback path would silently
//! change which basis the simplex walks — and with it optima, pivot
//! counts, or termination. These tests pit the shadow-guided solver
//! (`lp_maximize` / `lp_minimize`) against the pure-exact Bland solve
//! (`lp_maximize_bland`) on the same random LPs and require identical
//! [`LpResult`]s, and they pin the shadow's own counters as
//! deterministic (run-to-run equal and
//! `proposals = certified + fallbacks`).
//!
//! Randomized with a local xorshift generator instead of `proptest` (the
//! offline build environment cannot fetch crates), so every run draws the
//! same deterministic case set.

use offload_poly::{
    lp_cache_clear, lp_maximize, lp_maximize_bland, lp_minimize, Constraint, LinExpr, LpResult,
    Rational,
};

/// The pure-exact reference minimum: the Bland maximum of `−obj`, negated.
fn minimize_bland(obj: &LinExpr, cs: &[Constraint]) -> LpResult {
    match lp_maximize_bland(&obj.scale(&Rational::from(-1)), cs) {
        LpResult::Optimal(v) => LpResult::Optimal(-v),
        other => other,
    }
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
        let on = lp_maximize(&obj, &cs);
        let off = lp_maximize_bland(&obj, &cs);
        assert_same(&on, &off, &format!("degenerate case {case}"));
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
    let on = lp_maximize(&obj, &open);
    let off = lp_maximize_bland(&obj, &open);
    assert_same(&on, &off, "unbounded");
    assert!(matches!(on, LpResult::Unbounded));

    // Infeasible: x >= 1 and -x >= 0.
    let contradiction = vec![
        Constraint::ge0(LinExpr::var(nv, 0).plus_constant(Rational::from(-1))),
        Constraint::ge0(LinExpr::zero(nv).sub(&LinExpr::var(nv, 0))),
    ];
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
    // Two fresh solves: the second must not be answered from the cache.
    let run = || {
        lp_cache_clear();
        offload_obs::tallied(|| lp_maximize(&obj, &cs))
    };
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

#[test]
fn cached_solves_replay_shadow_counters() {
    let mut rng = Rng::new(0xCAC4_ED00);
    let (obj, cs) = arb_lp(&mut rng, 3, 4);
    lp_cache_clear();
    let (fresh, fresh_delta) = offload_obs::tallied(|| lp_maximize(&obj, &cs));
    let (hit, hit_delta) = offload_obs::tallied(|| lp_maximize(&obj, &cs));
    assert_eq!(fresh, hit);
    assert_eq!(hit_delta.lp_cache_hits, 1);
    // The hit replays the stored shadow counts, so totals stay
    // scheduling-independent even when caches are warm.
    assert_eq!(fresh_delta.shadow_proposals, hit_delta.shadow_proposals);
    assert_eq!(fresh_delta.shadow_certified, hit_delta.shadow_certified);
    assert_eq!(fresh_delta.shadow_fallbacks, hit_delta.shadow_fallbacks);
}
