//! Differential property tests for the redundancy-elimination pipeline.
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
//! Randomized with a local xorshift generator instead of `proptest` (the
//! offline build environment cannot fetch crates), so every run draws the
//! same deterministic case set.

use offload_poly::{Cmp, Constraint, LinExpr, Polyhedron, Rational};

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
