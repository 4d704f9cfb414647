//! Differential property tests for the redundancy-elimination pipeline
//! and the projection it serves.
//!
//! The production path (`reduce_redundancy`) stacks syntactic
//! pre-filters, witness-point rejection, and a warm-started incremental
//! LP; a bug in any layer silently changes which constraints survive.
//! These tests pit it against a brute-force O(n²) reference that knows
//! none of those tricks — each constraint is tested against all the
//! others through the independent emptiness oracle (`is_empty`, the
//! ε-method batch simplex) — and require the two descriptions to carve
//! out exactly the same set. A staleness bug in the witness-point cache
//! (a vertex recorded before a later push can lie outside the final
//! region) is precisely the kind of defect this net catches.
//!
//! The projection (`try_eliminate_vars`: equality substitution, then
//! Fourier–Motzkin on integer rows) is checked against successive dense
//! one-variable eliminations, and its output rows and counters are pinned
//! on fixed seeded systems.
//!
//! Randomized with a local xorshift generator instead of `proptest` (the
//! offline build environment cannot fetch crates), so every run draws the
//! same deterministic case set.

use offload_poly::{BigInt, Cmp, Constraint, LinExpr, Polyhedron, Rational};

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

/// A random polyhedron in `nvars` dimensions: small integer coefficients
/// (many zero, so constraints overlap in support), a mix of strict and
/// non-strict rows, and deliberate near-duplicates to exercise the
/// dedup/dominance pre-filters.
fn arb_polyhedron(rng: &mut Rng, nvars: usize, rows: usize) -> Polyhedron {
    let mut p = Polyhedron::universe(nvars);
    let mut made: Vec<Constraint> = Vec::new();
    for _ in 0..rows {
        // One row in four echoes an earlier row with a shifted constant:
        // a parallel half-space the dominance sweep should collapse.
        let c = if !made.is_empty() && rng.usize(4) == 0 {
            let base = &made[rng.usize(made.len())];
            let mut e = base.expr.clone();
            e.set_constant(e.constant_term() + &Rational::from(rng.i64_in(0, 3)));
            Constraint {
                expr: e,
                cmp: base.cmp,
            }
        } else {
            let mut e = LinExpr::zero(nvars);
            for v in 0..nvars {
                if rng.usize(3) != 0 {
                    e.set_coeff(v, Rational::from(rng.i64_in(-3, 3)));
                }
            }
            e.set_constant(Rational::from(rng.i64_in(-4, 8)));
            if rng.usize(5) == 0 {
                Constraint::gt0(e)
            } else {
                Constraint::ge0(e)
            }
        };
        made.push(c.clone());
        p.add(c);
    }
    p
}

/// Independent implication oracle: `sys` implies `c` iff `sys ∧ ¬c` is
/// empty. The negation flips strictness (`¬(e ≥ 0)` is `-e > 0`), and
/// `is_empty` runs the ε-method batch simplex — none of the incremental
/// machinery under test.
fn implies(nvars: usize, sys: &[Constraint], c: &Constraint) -> bool {
    let neg = c.expr.scale(&Rational::from(-1));
    let negated = match c.cmp {
        Cmp::Ge => Constraint::gt0(neg),
        Cmp::Gt => Constraint::ge0(neg),
    };
    let mut p = Polyhedron::universe(nvars);
    for s in sys {
        p.add(s.clone());
    }
    p.add(negated);
    p.is_empty()
}

/// Brute-force O(n²) redundancy elimination: drop each constraint that
/// the remaining ones imply, re-scanning until a fixpoint.
fn brute_force_reduce(p: &Polyhedron) -> Vec<Constraint> {
    let mut kept: Vec<Constraint> = p.constraints().to_vec();
    let mut i = 0;
    while i < kept.len() {
        let rest: Vec<Constraint> = kept
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, c)| c.clone())
            .collect();
        if !rest.is_empty() && implies(p.nvars(), &rest, &kept[i]) {
            kept.remove(i);
        } else {
            i += 1;
        }
    }
    kept
}

/// Both systems describe the same point set: each one's constraints are
/// implied by the other system.
fn same_set(nvars: usize, a: &[Constraint], b: &[Constraint]) -> bool {
    a.iter().all(|c| implies(nvars, b, c)) && b.iter().all(|c| implies(nvars, a, c))
}

const CASES: usize = 60;

#[test]
fn reduce_redundancy_matches_brute_force_reference() {
    let mut rng = Rng::new(0x9E3C_0FF1);
    for case in 0..CASES {
        let nvars = 2 + rng.usize(3);
        let rows = 6 + rng.usize(9);
        let p = arb_polyhedron(&mut rng, nvars, rows);
        let reduced = p.reduce_redundancy();
        let brute = brute_force_reduce(&p);
        if p.is_empty() {
            assert!(
                reduced.is_empty(),
                "case {case}: reduction resurrected an empty polyhedron"
            );
            continue;
        }
        assert!(
            same_set(nvars, reduced.constraints(), p.constraints()),
            "case {case}: reduced system describes a different set than the input\n\
             input: {p}\nreduced: {reduced}"
        );
        assert!(
            same_set(nvars, reduced.constraints(), &brute),
            "case {case}: reduced system disagrees with the brute-force reference"
        );
        // The pipeline must never keep a constraint the brute-force
        // reference proves redundant *and* still present verbatim.
        assert!(
            reduced.constraints().len() <= p.constraints().len(),
            "case {case}: reduction grew the system"
        );
    }
}

#[test]
fn projection_is_sound_and_thread_count_independent() {
    let mut rng = Rng::new(0x51AB_7001);
    for case in 0..40 {
        let nvars = 3 + rng.usize(2);
        let rows = 5 + rng.usize(7);
        let p = arb_polyhedron(&mut rng, nvars, rows);
        let k = 1 + rng.usize(nvars - 1);
        let proj = p.project_to_first(k);
        // Soundness: the shadow of any point of `p` lies in the
        // projection.
        if let Some(point) = p.sample() {
            assert!(
                proj.contains(&point[..k]),
                "case {case}: projection excludes the shadow of a feasible point\n\
                 input: {p}\nprojection: {proj}"
            );
        }
    }
}

/// Shape of a seeded projection system: `params` kept variables followed
/// by `flows` variables to eliminate, like Lemma 1's optimality systems,
/// where most rows bound the parameters alone.
#[derive(Clone, Copy)]
struct Shape {
    params: usize,
    flows: usize,
    /// Rows over the parameters only.
    param_rows: usize,
    /// Rows that mention one or two flow variables.
    flow_rows: usize,
    /// Equality pairs (`e >= 0` and `-e >= 0`) that mention a flow
    /// variable, for the substitution phase.
    equalities: usize,
    /// One row in four gets coefficients past `i64`, so that combining
    /// it promotes `BigInt`s to their heap arm.
    wide: bool,
    /// Adds two flow rows that contradict each other, so the system is
    /// empty.
    empty: bool,
}

impl Shape {
    fn new(
        params: usize,
        flows: usize,
        param_rows: usize,
        flow_rows: usize,
        equalities: usize,
    ) -> Self {
        Shape {
            params,
            flows,
            param_rows,
            flow_rows,
            equalities,
            wide: false,
            empty: false,
        }
    }

    fn wide(self) -> Self {
        Shape { wide: true, ..self }
    }

    fn empty(self) -> Self {
        Shape {
            empty: true,
            ..self
        }
    }
}

/// One coefficient: small, or for wide rows a value past `i64`.
fn coeff(rng: &mut Rng, lo: i64, hi: i64, wide: bool) -> BigInt {
    let small = rng.i64_in(lo, hi);
    if wide && small != 0 {
        return BigInt::from(small as i128 * (1i128 << 62) + rng.i64_in(-99, 99) as i128);
    }
    BigInt::from(small)
}

/// A seeded system of [`Shape`], feasible (unless `empty`) because every
/// row holds at one integer point: parameter rows first, then flow rows,
/// then equality pairs, so the flow rows' history bits sit past the
/// first 64 when there are enough parameter rows. A mix of strict rows,
/// and of rows whose variable coefficients share a factor the constant
/// lacks (their canonical constant is a fraction).
fn arb_system(rng: &mut Rng, s: Shape) -> Polyhedron {
    let nvars = s.params + s.flows;
    let point: Vec<BigInt> = (0..nvars)
        .map(|_| BigInt::from(rng.i64_in(-3, 3)))
        .collect();
    // Sets the constant so that the row holds at `point` with a slack of
    // `slack`, and wraps it as a constraint.
    let row = |coeffs: Vec<BigInt>, slack: i64, strict: bool| {
        let mut at = BigInt::zero();
        let mut e = LinExpr::zero(nvars);
        for (v, a) in coeffs.into_iter().enumerate() {
            at += &(&a * &point[v]);
            e.set_coeff(v, Rational::from(a));
        }
        e.set_constant(Rational::from(&BigInt::from(slack) - &at));
        if strict {
            Constraint::gt0(e)
        } else {
            Constraint::ge0(e)
        }
    };
    // Slack 0..=8, at least 1 on strict rows (one in six). One row in
    // five doubles its coefficients and takes an odd slack, so its
    // canonical constant is a fraction.
    let inequality = |rng: &mut Rng, mut coeffs: Vec<BigInt>| {
        let mut slack = rng.i64_in(0, 8);
        if rng.usize(5) == 0 {
            for a in &mut coeffs {
                *a = &*a * &BigInt::from(2);
            }
            slack = 2 * rng.i64_in(0, 3) + 1;
        }
        let strict = rng.usize(6) == 0;
        row(coeffs, slack.max(strict as i64), strict)
    };
    let mut p = Polyhedron::universe(nvars);
    for _ in 0..s.param_rows {
        let wide = s.wide && rng.usize(4) == 0;
        let mut coeffs = vec![BigInt::zero(); nvars];
        for a in coeffs.iter_mut().take(s.params) {
            if rng.usize(3) != 0 {
                *a = coeff(rng, -4, 4, wide);
            }
        }
        let c = inequality(rng, coeffs);
        p.add(c);
    }
    for _ in 0..s.flow_rows {
        let wide = s.wide && rng.usize(4) == 0;
        let mut coeffs = vec![BigInt::zero(); nvars];
        for a in coeffs.iter_mut().take(s.params) {
            if rng.usize(2) == 0 {
                *a = coeff(rng, -3, 3, wide);
            }
        }
        for _ in 0..1 + rng.usize(2) {
            let k = rng.i64_in(1, 3) * if rng.usize(2) == 0 { 1 } else { -1 };
            coeffs[s.params + rng.usize(s.flows)] = BigInt::from(k);
        }
        let c = inequality(rng, coeffs);
        p.add(c);
    }
    for _ in 0..s.equalities {
        let mut coeffs: Vec<BigInt> = (0..nvars)
            .map(|_| BigInt::from(rng.i64_in(-2, 2)))
            .collect();
        coeffs[s.params + rng.usize(s.flows)] = BigInt::from(rng.i64_in(1, 2));
        let neg = coeffs.iter().map(|a| -a).collect();
        p.add(row(neg, 0, false));
        p.add(row(coeffs, 0, false));
    }
    if s.empty {
        // f >= point + 1 and f <= point.
        let f = s.params + rng.usize(s.flows);
        let mut up = vec![BigInt::zero(); nvars];
        up[f] = BigInt::from(1);
        let down = up.iter().map(|a| -a).collect();
        p.add(row(up, -1, false));
        p.add(row(down, 0, false));
    }
    p
}

/// `c` truncated to its first `k` variables (the rest must be zero).
fn truncate(c: &Constraint, k: usize) -> Constraint {
    let mut e = LinExpr::constant(k, c.expr.constant_term().clone());
    for v in 0..c.expr.nvars() {
        let a = c.expr.coeff(v);
        if v < k {
            e.set_coeff(v, a.clone());
        } else {
            assert!(a.is_zero(), "eliminated variable {v} survives in {c}");
        }
    }
    Constraint {
        expr: e,
        cmp: c.cmp,
    }
}

#[test]
fn projection_matches_one_variable_at_a_time_reference() {
    // The reference is the dense one-variable `eliminate_var`, applied
    // to each eliminated variable in turn: no equality substitution, no
    // Imbert or Chernikov rule, no LP filter.
    let mut rng = Rng::new(0x1E44_A001);
    for case in 0..36 {
        let nvars = 3 + rng.usize(4);
        let flows = 1 + rng.usize((nvars - 1).min(3));
        let params = nvars - flows;
        // Exact LPs on coefficients past `i64` are slow in debug builds:
        // wide systems stay small.
        let wide = case % 6 == 1;
        let rows = 5 + rng.usize(if wide { 8 } else { 36 });
        let equalities = rng.usize(3).min(rows / 4);
        let flow_rows = (2 + rng.usize(8)).min(rows - 2 * equalities);
        let mut shape = Shape::new(
            params,
            flows,
            rows - 2 * equalities - flow_rows,
            flow_rows,
            equalities,
        );
        shape.wide = wide;
        shape.empty = case % 6 == 4;
        let p = arb_system(&mut rng, shape);
        let proj = p.project_to_first(params);
        let mut reference = p.clone();
        for v in params..nvars {
            reference = reference.eliminate_var(v);
        }
        let reference: Vec<Constraint> = reference
            .constraints()
            .iter()
            .map(|c| truncate(c, params))
            .collect();
        assert_eq!(proj.nvars(), params);
        assert!(
            same_set(params, proj.constraints(), &reference),
            "case {case}: projection differs from the reference\ninput: {p}\n\
             projection: {proj}\nreference: {}",
            Polyhedron::from_constraints(params, reference.clone())
        );
        if shape.empty {
            assert!(
                proj.is_empty(),
                "case {case}: an empty system projects to {proj}"
            );
        }
    }
}

/// FNV-1a over the rendering, for goldens too long to pin as text.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn projection_output_and_counters_are_pinned() {
    // `try_eliminate_vars` on fixed seeded systems: the output rows in
    // order (pinned by count and digest of their `Display`) and the work
    // counters the projection tallies. Any change to row arithmetic,
    // pruning, tie-breaking or row order moves a digest. The list
    // covers equality substitution, strict rows, fractional canonical
    // constants, coefficients past `i64`, an empty system, more than 64
    // phase-2 input rows (histories past one word), more than 64 rows
    // after a round (Chernikov's rule) and more than 150 (the LP
    // filter).
    let cases = [
        (
            0x5A11,
            Shape::new(2, 2, 4, 6, 1),
            10,
            0x035d_c1ea_6c8f_ad4b,
            [2, 9, 0, 0],
        ),
        (
            0x3D40,
            Shape::new(2, 3, 6, 8, 2).wide(),
            15,
            0xa57b_762b_4648_ac6d,
            [3, 12, 0, 0],
        ),
        (
            0xE350,
            Shape::new(2, 3, 6, 8, 1).empty(),
            1,
            0x247f_8e25_6d4a_7e91,
            [3, 23, 0, 0],
        ),
        (
            0xA100,
            Shape::new(4, 3, 72, 12, 1),
            119,
            0xb866_ec43_9257_e234,
            [3, 69, 0, 0],
        ),
        (
            0xC020,
            Shape::new(3, 3, 24, 18, 0),
            75,
            0xc03d_a463_6a2f_f7b2,
            [3, 94, 0, 0],
        ),
        (
            0xB2,
            Shape::new(3, 3, 30, 24, 0),
            15,
            0xf547_20e5_d48f_915b,
            [3, 378, 0, 140],
        ),
    ];
    for (seed, shape, rows, digest, counters) in cases {
        let mut rng = Rng::new(seed);
        let p = arb_system(&mut rng, shape);
        let flows: Vec<usize> = (shape.params..shape.params + shape.flows).collect();
        let mut budget = u64::MAX;
        let (out, tally) = offload_obs::tallied(|| p.try_eliminate_vars(&flows, &mut budget));
        let out = out.expect("an unlimited row budget cannot be exceeded");
        let text: Vec<String> = out.constraints().iter().map(|c| c.to_string()).collect();
        let text = text.join("\n");
        let got = [
            tally.fm_vars_eliminated,
            tally.fm_constraints,
            tally.lp_solves,
            tally.lp_warm_starts,
        ];
        assert_eq!(
            (out.constraints().len(), fnv1a(&text), got),
            (rows, digest, counters),
            "seed {seed:#x}: output or counters moved to ({}, {:#x}, {got:?}); output:\n{text}",
            out.constraints().len(),
            fnv1a(&text)
        );
    }
}
