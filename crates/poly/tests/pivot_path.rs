//! The exact simplex kernel's pivot path, pinned.
//!
//! Every LP in the crate runs on one kernel (`simplex.rs`). Its answers
//! are exact whatever the pivot rule, but the pivot path (which
//! entering column, which leaving row, when the `f64` shadow's proposal
//! is certified) decides the work counters, and those are part of the
//! determinism contract: a change to the kernel's arithmetic that keeps
//! every answer but moves one pivot shows up here.
//!
//! Two families of fixed systems:
//! - cold solves through `lp_maximize`, with the result cache cleared
//!   first, pinning the result, `lp_pivots` and the three shadow
//!   counters;
//! - `Polyhedron::reduce_redundancy`, which runs the warm-started
//!   incremental LP (`reduce.rs`) and then cold solves, pinning the
//!   output rows (count and digest) and the same counters plus
//!   `dual_pivots`, `lp_warm_starts` and `prefilter_witness`.
//!
//! The list covers coefficients past `i64`, values past 2^53 that reach
//! the shadow (where `f64` stops being exact), strict rows, fractional
//! coefficients, infeasible and unbounded systems, a degenerate system
//! that runs into the stall limit, artificials left basic by phase 1, an
//! incremental LP that has to grow its tableau, and seeded random
//! systems.
//!
//! Each case runs on a helper thread under a deadline: nothing bounds the
//! pivot count of one `primal` run, so a kernel that cycles (a reversed
//! Bland tie-break does) would otherwise hang the test instead of failing
//! it.

use offload_poly::{
    lp_cache_clear, lp_maximize, Constraint, LinExpr, LpResult, Polyhedron, Rational,
};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// How long one case may run. Every case finishes in milliseconds, even
/// in a debug build on a loaded host.
const DEADLINE: Duration = Duration::from_secs(60);

/// Runs `case` on a helper thread, with a cleared LP cache and its own
/// work counters, and returns its result and counters. Fails the test if
/// the case panics or runs past [`DEADLINE`]; a case that overran is left
/// running, and ends with the test process.
fn within_deadline<T: Send + 'static>(
    name: &str,
    case: impl FnOnce() -> T + Send + 'static,
) -> (T, offload_obs::PipelineStats) {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        lp_cache_clear();
        // The receiver is gone only if the deadline already failed the
        // test.
        let _ = tx.send(offload_obs::tallied(case));
    });
    match rx.recv_timeout(DEADLINE) {
        Ok(done) => {
            worker.join().expect("the case's thread sent its result");
            done
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("case {name} ran past {DEADLINE:?}: the simplex kernel may be cycling")
        }
        Err(RecvTimeoutError::Disconnected) => match worker.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the case's thread returned without sending"),
        },
    }
}

/// Deterministic xorshift64* generator.
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

fn q(s: &str) -> Rational {
    s.parse().expect("a rational literal")
}

/// `Σ coeffs[v]·x_v + k ≥ 0` (strict when `strict`).
fn row(coeffs: &[&str], k: &str, strict: bool) -> Constraint {
    let mut e = LinExpr::constant(coeffs.len(), q(k));
    for (v, a) in coeffs.iter().enumerate() {
        e.set_coeff(v, q(a));
    }
    if strict {
        Constraint::gt0(e)
    } else {
        Constraint::ge0(e)
    }
}

fn ge(coeffs: &[&str], k: &str) -> Constraint {
    row(coeffs, k, false)
}

fn objective(coeffs: &[&str]) -> LinExpr {
    let mut e = LinExpr::zero(coeffs.len());
    for (v, a) in coeffs.iter().enumerate() {
        e.set_coeff(v, q(a));
    }
    e
}

/// FNV-1a over a rendering, for outputs too long to pin as text.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn show(r: &LpResult) -> String {
    match r {
        LpResult::Optimal(v) => v.to_string(),
        LpResult::Infeasible => "infeasible".into(),
        LpResult::Unbounded => "unbounded".into(),
    }
}

/// A random LP with negative constants (phase 1 runs), some strict
/// rows, and a box that keeps most cases bounded.
fn seeded_lp(rng: &mut Rng, nvars: usize, rows: usize) -> (LinExpr, Vec<Constraint>) {
    let mut cs = Vec::new();
    for v in 0..nvars {
        let mut lo = LinExpr::var(nvars, v);
        lo.set_constant(Rational::from(rng.i64_in(-2, 6)));
        cs.push(Constraint::ge0(lo));
        if rng.usize(5) != 0 {
            let mut hi = LinExpr::zero(nvars);
            hi.set_coeff(v, Rational::from(-1));
            hi.set_constant(Rational::from(rng.i64_in(1, 15)));
            cs.push(Constraint::ge0(hi));
        }
    }
    for _ in 0..rows {
        let mut e = LinExpr::zero(nvars);
        for v in 0..nvars {
            if rng.usize(3) != 0 {
                let a = Rational::new(rng.i64_in(-6, 6), rng.i64_in(1, 3));
                e.set_coeff(v, a);
            }
        }
        e.set_constant(Rational::from(rng.i64_in(-8, 20)));
        cs.push(if rng.usize(5) == 0 {
            Constraint::gt0(e)
        } else {
            Constraint::ge0(e)
        });
    }
    let mut obj = LinExpr::zero(nvars);
    for v in 0..nvars {
        obj.set_coeff(v, Rational::from(rng.i64_in(-7, 7)));
    }
    (obj, cs)
}

/// `x ≥ 0`, `rows` random rows through the origin and a cap `Σx ≤ 10`:
/// a vertex shared by most rows, and a non-negative objective.
fn degenerate(rng: &mut Rng, n: usize, rows: usize) -> (LinExpr, Vec<Constraint>) {
    let mut cs = Vec::new();
    for v in 0..n {
        cs.push(Constraint::ge0(LinExpr::var(n, v)));
    }
    for _ in 0..rows {
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
    (obj, cs)
}

/// The fixed cold-solve systems, by name.
fn lp_cases() -> Vec<(String, LinExpr, Vec<Constraint>)> {
    let mut cases: Vec<(String, LinExpr, Vec<Constraint>)> = vec![
        (
            "box".into(),
            objective(&["1", "2"]),
            vec![
                ge(&["1", "0"], "0"),
                ge(&["0", "1"], "0"),
                ge(&["-1", "-1"], "4"),
            ],
        ),
        (
            "fractional vertex".into(),
            objective(&["1", "1"]),
            vec![
                ge(&["1", "0"], "0"),
                ge(&["0", "1"], "0"),
                ge(&["-2/3", "-3/5"], "7/2"),
                ge(&["-3/7", "-2"], "11/3"),
            ],
        ),
        (
            "strict rows".into(),
            objective(&["3", "-1", "2"]),
            vec![
                row(&["1", "0", "0"], "0", true),
                row(&["0", "1", "0"], "-1", true),
                ge(&["0", "0", "1"], "2"),
                row(&["-1", "-1", "-1"], "9", true),
                ge(&["-2", "1", "0"], "5"),
                ge(&["0", "0", "-1"], "4"),
            ],
        ),
        (
            "infeasible".into(),
            objective(&["1", "1"]),
            vec![
                ge(&["1", "1"], "-5"),
                ge(&["-1", "0"], "1"),
                ge(&["0", "-1"], "2"),
            ],
        ),
        (
            "unbounded".into(),
            objective(&["1", "-1"]),
            vec![
                ge(&["1", "0"], "-3"),
                ge(&["1", "-1"], "0"),
                ge(&["0", "1"], "1"),
            ],
        ),
        (
            // An equality stated three times: phase 1 ends with
            // artificials basic at zero, and driving them out pivots on
            // negative entries.
            "artificials driven out".into(),
            objective(&["2", "1"]),
            vec![
                ge(&["1", "1"], "-3"),
                ge(&["-1", "-1"], "3"),
                ge(&["2", "2"], "-6"),
                ge(&["1", "-1"], "-1"),
                ge(&["-1", "0"], "5"),
            ],
        ),
        (
            "coefficients past i64".into(),
            objective(&["9223372036854775808", "-9223372036854775808"]),
            vec![
                ge(&["1", "0"], "0"),
                ge(&["0", "1"], "0"),
                ge(
                    &["-9223372036854775808", "-9223372036854775807"],
                    "9223372036854775808",
                ),
            ],
        ),
        (
            "wide fractions past i64".into(),
            objective(&["1", "1", "1"]),
            vec![
                ge(&["1", "0", "0"], "-1/3"),
                ge(&["0", "1", "0"], "0"),
                ge(&["0", "0", "1"], "0"),
                ge(
                    &["-1180591620717411303424", "-3", "-1/18446744073709551617"],
                    "36893488147419103232",
                ),
                ge(
                    &["-1", "-170141183460469231731687303715884105727", "0"],
                    "5",
                ),
                ge(&["0", "-1", "-1"], "12"),
            ],
        ),
        (
            // Entries between 2^53 and 2^63: inline integers that an
            // `f64` no longer holds exactly, in the objective (the
            // reduced costs) and in the rows (the pivot rows).
            "values past 2^53".into(),
            objective(&[
                "36028797018963971",
                "-9007199254740993",
                "27021597764222979",
            ]),
            vec![
                ge(&["1", "0", "0"], "0"),
                ge(&["0", "1", "0"], "0"),
                ge(&["0", "0", "1"], "0"),
                ge(
                    &["-9007199254740995", "-3", "-4503599627370497"],
                    "18014398509481985",
                ),
                ge(&["-1", "-1", "-1"], "9007199254740993"),
                ge(&["-5", "18014398509481987", "-7"], "1"),
                ge(&["-50031545098999707", "0", "-2"], "3"),
            ],
        ),
    ];
    // Degenerate: many rows through the origin under a cap, so the walk
    // makes long runs of zero-progress pivots; cases 1 and 3 reach the
    // stall limit, where Bland's rule takes over.
    let mut rng = Rng::new(0xDE6E_57A1);
    for k in 0..4 {
        let (obj, cs) = degenerate(&mut rng, 10, 40);
        cases.push((format!("degenerate {k}"), obj, cs));
    }
    let mut rng = Rng::new(0x91B0_7A75);
    for k in 0..16 {
        let nvars = 2 + rng.usize(5);
        let rows = 2 + rng.usize(10);
        let (obj, cs) = seeded_lp(&mut rng, nvars, rows);
        cases.push((format!("seeded {k}"), obj, cs));
    }
    cases
}

/// Cold solves: result, then `[lp_pivots, shadow_proposals,
/// shadow_certified, shadow_fallbacks]`.
const LP_GOLDENS: &[(&str, [u64; 4])] = &[
    ("8", [2, 3, 3, 0]),                   // box
    ("3619/678", [2, 3, 3, 0]),            // fractional vertex
    ("49/3", [4, 6, 6, 0]),                // strict rows
    ("infeasible", [2, 3, 3, 0]),          // infeasible
    ("unbounded", [2, 4, 4, 0]),           // unbounded
    ("8", [7, 7, 7, 0]),                   // artificials driven out
    ("9223372036854775808", [2, 3, 3, 0]), // coefficients past i64
    ("infeasible", [3, 4, 2, 2]),          // wide fractions past i64
    (
        "730166745731460252355691357929476/18014398509481987",
        [4, 5, 5, 0],
    ), // values past 2^53
    ("0", [10, 11, 11, 0]),                // degenerate 0
    ("0", [26, 24, 24, 0]),                // degenerate 1
    ("0", [11, 12, 12, 0]),                // degenerate 2
    ("0", [34, 24, 24, 0]),                // degenerate 3
    ("145/2", [6, 7, 7, 0]),               // seeded 0
    ("infeasible", [4, 5, 5, 0]),          // seeded 1
    ("infeasible", [5, 6, 6, 0]),          // seeded 2
    ("infeasible", [5, 6, 6, 0]),          // seeded 3
    ("-113/3", [16, 18, 18, 0]),           // seeded 4
    ("infeasible", [5, 6, 6, 0]),          // seeded 5
    ("271/18", [9, 11, 11, 0]),            // seeded 6
    ("1323/44", [10, 12, 12, 0]),          // seeded 7
    ("2683/35", [12, 14, 14, 0]),          // seeded 8
    ("1225/18", [6, 8, 8, 0]),             // seeded 9
    ("infeasible", [1, 2, 2, 0]),          // seeded 10
    ("721/8", [8, 10, 10, 0]),             // seeded 11
    ("unbounded", [2, 4, 4, 0]),           // seeded 12
    ("4481/114", [3, 4, 4, 0]),            // seeded 13
    ("infeasible", [6, 7, 7, 0]),          // seeded 14
    ("infeasible", [1, 2, 2, 0]),          // seeded 15
];

#[test]
fn cold_solves_keep_their_pivot_path() {
    let mut got = Vec::new();
    for (name, obj, cs) in lp_cases() {
        let (r, t) = within_deadline(&name, move || lp_maximize(&obj, &cs));
        let counts = [
            t.lp_pivots,
            t.shadow_proposals,
            t.shadow_certified,
            t.shadow_fallbacks,
        ];
        got.push((name, show(&r), counts));
    }
    let rendered: Vec<String> = got
        .iter()
        .map(|(name, r, c)| format!("    (\"{r}\", {c:?}), // {name}"))
        .collect();
    let pinned: Vec<(String, [u64; 4])> = LP_GOLDENS
        .iter()
        .map(|(r, c)| (r.to_string(), *c))
        .collect();
    let actual: Vec<(String, [u64; 4])> = got.iter().map(|(_, r, c)| (r.clone(), *c)).collect();
    assert_eq!(
        actual,
        pinned,
        "cold pivot paths moved; now:\n{}",
        rendered.join("\n")
    );
}

/// A polygon with `sides` facets: the tangents `y ≥ 2t·x − t²` of the
/// parabola `y = x²` at `t = −sides/2 … sides/2 − 1`, capped by `y ≤
/// cap`. Every tangent is a facet, so the incremental LP keeps all of
/// them and has to widen its tableau past 32 rows.
fn parabola(sides: i64, cap: i64) -> Polyhedron {
    let mut cs = Vec::new();
    for t in -sides / 2..sides - sides / 2 {
        let e = LinExpr::zero(2)
            .plus_term(0, Rational::from(-2 * t))
            .plus_term(1, Rational::from(1))
            .plus_constant(Rational::from(t * t));
        cs.push(Constraint::ge0(e));
    }
    cs.push(Constraint::ge0(
        LinExpr::constant(2, Rational::from(cap)).plus_term(1, Rational::from(-1)),
    ));
    Polyhedron::from_constraints(2, cs)
}

/// A random polyhedron with redundant rows: near-duplicates, parallel
/// shifts and sums of earlier rows.
fn seeded_polyhedron(rng: &mut Rng, nvars: usize, rows: usize, wide: bool) -> Polyhedron {
    let mut made: Vec<Constraint> = Vec::new();
    for v in 0..nvars {
        let mut lo = LinExpr::var(nvars, v);
        lo.set_constant(Rational::from(rng.i64_in(0, 4)));
        made.push(Constraint::ge0(lo));
    }
    for _ in 0..rows {
        let c = if made.len() > 2 && rng.usize(4) == 0 {
            let a = &made[rng.usize(made.len())];
            let b = &made[rng.usize(made.len())];
            let mut e = a.expr.add(&b.expr);
            e.set_constant(e.constant_term() + &Rational::from(rng.i64_in(0, 5)));
            Constraint::ge0(e)
        } else {
            let mut e = LinExpr::zero(nvars);
            for v in 0..nvars {
                if rng.usize(3) != 0 {
                    let a = if wide && rng.usize(4) == 0 {
                        let big: Rational = "4611686018427387904".parse().unwrap();
                        &big * &Rational::from(rng.i64_in(-3, 3))
                    } else {
                        Rational::from(rng.i64_in(-4, 4))
                    };
                    e.set_coeff(v, a);
                }
            }
            e.set_constant(Rational::from(rng.i64_in(-2, 30)));
            if rng.usize(6) == 0 {
                Constraint::gt0(e)
            } else {
                Constraint::ge0(e)
            }
        };
        made.push(c);
    }
    Polyhedron::from_constraints(nvars, made)
}

fn reduce_cases() -> Vec<(String, Polyhedron)> {
    let mut cases = vec![
        ("parabola 40".to_string(), parabola(40, 500)),
        ("parabola 70".to_string(), parabola(70, 2000)),
        (
            "infeasible".to_string(),
            Polyhedron::from_constraints(
                2,
                vec![
                    ge(&["1", "0"], "0"),
                    ge(&["0", "1"], "0"),
                    ge(&["1", "1"], "-3"),
                    ge(&["-1", "-2"], "2"),
                    ge(&["-1", "0"], "9"),
                ],
            ),
        ),
        (
            "values past 2^53".to_string(),
            Polyhedron::from_constraints(
                3,
                vec![
                    ge(&["1", "0", "0"], "0"),
                    ge(&["0", "1", "0"], "0"),
                    ge(&["0", "0", "1"], "0"),
                    ge(&["-9007199254740995", "-1", "-3"], "27021597764222979"),
                    ge(&["-1", "-18014398509481987", "0"], "36028797018963971"),
                    ge(&["-3", "-5", "-4503599627370497"], "9007199254740993"),
                    ge(&["-1", "-1", "-1"], "90071992547409931"),
                    ge(&["-2", "-2", "-2"], "180143985094819863"),
                ],
            ),
        ),
    ];
    // The incremental LP's Dantzig walk reaches the stall limit here.
    let (_, cs) = degenerate(&mut Rng::new(0xDE6E_57A1), 12, 50);
    cases.push((
        "degenerate".to_string(),
        Polyhedron::from_constraints(12, cs),
    ));
    let mut rng = Rng::new(0x2ED0_C0DE);
    for k in 0..10 {
        let nvars = 2 + rng.usize(4);
        let rows = 6 + rng.usize(24);
        let wide = k % 4 == 3;
        let p = seeded_polyhedron(&mut rng, nvars, rows, wide);
        cases.push((format!("seeded {k}"), p));
    }
    cases
}

/// `reduce_redundancy`: output rows and digest, then `[lp_pivots,
/// shadow_proposals, shadow_certified, shadow_fallbacks, dual_pivots,
/// lp_warm_starts, prefilter_witness]`.
const REDUCE_GOLDENS: &[(usize, u64, [u64; 7])] = &[
    (41, 0x3110e9970faebc8b, [465, 548, 548, 0, 56, 41, 0]), // parabola 40
    (71, 0xc4493a179b795be6, [1335, 1478, 1478, 0, 101, 71, 0]), // parabola 70
    (1, 0x247f8e256d4a7e91, [12, 23, 23, 0, 2, 3, 2]),       // infeasible
    (6, 0x34833e8b3eacf3bb, [18, 32, 31, 1, 5, 7, 0]),       // values past 2^53
    (13, 0xf77f3d4a6fddbc8a, [657, 716, 716, 0, 0, 63, 0]),  // degenerate
    (13, 0xdffed0dd176baa8d, [118, 148, 148, 0, 24, 14, 4]), // seeded 0
    (9, 0xbe1cd069ac6cc5db, [34, 57, 57, 0, 13, 12, 0]),     // seeded 1
    (10, 0xab22372302677bf9, [90, 132, 132, 0, 8, 17, 2]),   // seeded 2
    (4, 0xc6549bae7d2e9f3b, [15, 33, 33, 0, 3, 5, 1]),       // seeded 3
    (14, 0x0fc013229bbf18e3, [160, 214, 214, 0, 13, 21, 3]), // seeded 4
    (8, 0xdea263d302a17d3f, [47, 72, 72, 0, 6, 15, 1]),      // seeded 5
    (12, 0x62fd6621dd063eda, [90, 120, 120, 0, 20, 15, 4]),  // seeded 6
    (1, 0x247f8e256d4a7e91, [11, 22, 17, 5, 2, 3, 2]),       // seeded 7
    (7, 0x640e4cd2a4690ee6, [37, 58, 58, 0, 15, 10, 2]),     // seeded 8
    (6, 0xe7690d23495b69aa, [29, 45, 45, 0, 5, 8, 0]),       // seeded 9
];

#[test]
fn redundancy_filter_keeps_its_pivot_path() {
    let mut got = Vec::new();
    for (name, p) in reduce_cases() {
        let (out, t) = within_deadline(&name, move || p.reduce_redundancy());
        let text: Vec<String> = out.constraints().iter().map(|c| c.to_string()).collect();
        let counts = [
            t.lp_pivots,
            t.shadow_proposals,
            t.shadow_certified,
            t.shadow_fallbacks,
            t.dual_pivots,
            t.lp_warm_starts,
            t.prefilter_witness,
        ];
        got.push((
            name,
            out.constraints().len(),
            fnv1a(&text.join("\n")),
            counts,
        ));
    }
    let rendered: Vec<String> = got
        .iter()
        .map(|(name, n, d, c)| format!("    ({n}, {d:#018x}, {c:?}), // {name}"))
        .collect();
    let actual: Vec<(usize, u64, [u64; 7])> = got.iter().map(|(_, n, d, c)| (*n, *d, *c)).collect();
    assert_eq!(
        actual,
        REDUCE_GOLDENS.to_vec(),
        "redundancy-filter pivot paths moved; now:\n{}",
        rendered.join("\n")
    );
}
