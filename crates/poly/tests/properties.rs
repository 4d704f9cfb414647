//! Property-based tests for the exact-arithmetic and polyhedral substrate.
//!
//! Randomized with a local xorshift generator instead of `proptest` (the
//! offline build environment cannot fetch crates), so every run draws the
//! same deterministic case set.

use offload_poly::{BigInt, Constraint, LinExpr, Polyhedron, Rational, Region};

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

    fn i128_in(&mut self, lo: i128, hi: i128) -> i128 {
        let span = hi.wrapping_sub(lo) as u128;
        let raw = (self.next() as u128) << 64 | self.next() as u128;
        if span == u128::MAX {
            return raw as i128;
        }
        lo.wrapping_add((raw % (span + 1)) as i128)
    }

    fn bool(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

fn bi(v: i128) -> BigInt {
    BigInt::from(v)
}

const CASES: usize = 256;

#[test]
fn bigint_arithmetic_matches_i128() {
    let mut rng = Rng::new(0xB161);
    for _ in 0..CASES {
        let a = rng.i128_in(-1_000_000_000_000, 1_000_000_000_000);
        let b = rng.i128_in(-1_000_000_000_000, 1_000_000_000_000);
        assert_eq!((&bi(a) + &bi(b)).to_i128(), Some(a + b));
        let am = rng.i128_in(-1_000_000_000, 1_000_000_000);
        let bm = rng.i128_in(-1_000_000_000, 1_000_000_000);
        assert_eq!((&bi(am) * &bi(bm)).to_i128(), Some(am * bm));
        let d = rng.i128_in(-1_000_000, 1_000_000);
        if d != 0 {
            let (q, r) = bi(a).div_rem(&bi(d));
            assert_eq!(q.to_i128(), Some(a / d));
            assert_eq!(r.to_i128(), Some(a % d));
        }
    }
}

#[test]
fn bigint_display_parse_roundtrip() {
    let mut rng = Rng::new(0xB162);
    for _ in 0..CASES {
        let a = rng.i128_in(i128::MIN + 1, i128::MAX);
        let v = bi(a);
        let s = v.to_string();
        assert_eq!(s.parse::<BigInt>().unwrap(), v);
        assert_eq!(s, a.to_string());
    }
}

#[test]
fn bigint_gcd_divides_both() {
    let mut rng = Rng::new(0xB163);
    for _ in 0..CASES {
        let a = rng.i128_in(-100_000, 100_000);
        let b = rng.i128_in(-100_000, 100_000);
        if a == 0 && b == 0 {
            continue;
        }
        let g = bi(a).gcd(&bi(b));
        assert!(g.is_positive());
        assert!((&bi(a) % &g).is_zero());
        assert!((&bi(b) % &g).is_zero());
    }
}

#[test]
fn rational_field_axioms() {
    let mut rng = Rng::new(0xA710);
    for _ in 0..CASES {
        let a = Rational::new(rng.i64_in(-1000, 1000), rng.i64_in(1, 50));
        let b = Rational::new(rng.i64_in(-1000, 1000), rng.i64_in(1, 50));
        let c = Rational::new(rng.i64_in(-1000, 1000), rng.i64_in(1, 50));
        // Commutativity and associativity.
        assert_eq!(&a + &b, &b + &a);
        assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
        assert_eq!(&a * &b, &b * &a);
        assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
        // Distributivity.
        assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
        // Inverses.
        assert_eq!(&a - &a, Rational::zero());
        if !a.is_zero() {
            assert_eq!(&a / &a, Rational::one());
            assert_eq!(&a * &a.recip(), Rational::one());
        }
    }
}

#[test]
fn rational_order_total() {
    let mut rng = Rng::new(0xA711);
    for _ in 0..CASES {
        let (an, ad) = (rng.i64_in(-100, 100), rng.i64_in(1, 20));
        let (bn, bd) = (rng.i64_in(-100, 100), rng.i64_in(1, 20));
        let a = Rational::new(an, ad);
        let b = Rational::new(bn, bd);
        let lhs = (an as i128) * (bd as i128);
        let rhs = (bn as i128) * (ad as i128);
        assert_eq!(a.cmp(&b), lhs.cmp(&rhs));
    }
}

/// A random half-space `c0*x0 + c1*x1 + c2*x2 + k >= 0` (or `> 0`) in 3D.
fn halfspace(rng: &mut Rng) -> Constraint {
    let mut e = LinExpr::constant(3, Rational::from(rng.i64_in(-20, 20)));
    for i in 0..3 {
        e = e.plus_term(i, Rational::from(rng.i64_in(-5, 5)));
    }
    if rng.bool() {
        Constraint::gt0(e)
    } else {
        Constraint::ge0(e)
    }
}

fn halfspaces(rng: &mut Rng, lo: usize, hi: usize) -> Vec<Constraint> {
    let n = rng.i64_in(lo as i64, hi as i64) as usize;
    (0..n).map(|_| halfspace(rng)).collect()
}

fn probe3(rng: &mut Rng) -> Vec<Rational> {
    (0..3)
        .map(|_| Rational::from(rng.i64_in(-10, 10)))
        .collect()
}

/// If the polyhedron is declared non-empty, the sampled witness must
/// satisfy every constraint.
#[test]
fn sample_is_sound() {
    let mut rng = Rng::new(0x5A3);
    for _ in 0..64 {
        let p = Polyhedron::from_constraints(3, halfspaces(&mut rng, 0, 6));
        if let Some(point) = p.sample() {
            assert!(p.contains(&point));
        }
    }
}

/// Fourier–Motzkin projection soundness: if a point is in the original
/// polyhedron, dropping a coordinate lands inside the projection; and
/// the projection is empty exactly when the original is.
#[test]
fn projection_sound_and_tight() {
    let mut rng = Rng::new(0x5A4);
    for _ in 0..64 {
        let p = Polyhedron::from_constraints(3, halfspaces(&mut rng, 0, 5));
        let proj = p.eliminate_var(2);
        let probe = probe3(&mut rng);
        if p.contains(&probe) {
            assert!(
                proj.contains(&probe),
                "projection must contain shadow of member point"
            );
        }
        assert_eq!(p.is_empty(), proj.is_empty());
    }
}

/// Region subtraction is exact: membership in `a \ b` equals membership
/// in `a` and not in `b`, at every probe point.
#[test]
fn region_subtraction_pointwise() {
    let mut rng = Rng::new(0x5A5);
    for _ in 0..64 {
        let a = Polyhedron::from_constraints(3, halfspaces(&mut rng, 0, 3));
        let b = Polyhedron::from_constraints(3, halfspaces(&mut rng, 1, 3));
        let diff = Region::from(a.clone()).subtract(&b);
        let probe = probe3(&mut rng);
        let expect = a.contains(&probe) && !b.contains(&probe);
        assert_eq!(diff.contains(&probe), expect);
    }
}

/// Region subtraction as it was before it skipped splits: every split
/// `piece ∩ prefix ∩ ¬c` goes to the emptiness LP. Returns the kept
/// pieces and the LP solves spent on splits whose piece already has `c`
/// as a row, the splits `Region::subtract` now skips.
fn reference_subtract(region: &Region, other: &Polyhedron) -> (Vec<Polyhedron>, u64) {
    let mut kept = Vec::new();
    let mut skippable = 0;
    for piece in region.pieces() {
        let mut prefix: Vec<Constraint> = Vec::new();
        for c in other.constraints() {
            let mut split = piece.clone();
            for p in &prefix {
                split.add(p.clone());
            }
            split.add(c.negated());
            let (empty, work) = offload_obs::tallied(|| split.is_empty());
            if piece.constraints().contains(c) {
                assert!(empty, "a split against the piece's own row is empty");
                skippable += work.lp_solves;
            }
            if !empty {
                kept.push(split);
            }
            prefix.push(c.clone());
        }
    }
    (kept, skippable)
}

/// Subtracting a polyhedron that shares rows with the pieces keeps the
/// pieces of the full decomposition, with the same rows in the same
/// order, and solves exactly the skipped splits' LPs fewer.
#[test]
fn region_subtraction_skips_splits_against_a_pieces_own_rows() {
    let mut rng = Rng::new(0x5A8);
    let (mut skipped, mut kept) = (0, 0);
    for case in 0..64 {
        let a = Polyhedron::from_constraints(3, halfspaces(&mut rng, 1, 4));
        let mut region = Region::from(a.clone());
        if rng.bool() {
            let cut = Polyhedron::from_constraints(3, halfspaces(&mut rng, 1, 2));
            region = region.subtract(&cut);
        }
        // The subtrahend: some of `a`'s rows among fresh ones, shuffled.
        let mut rows: Vec<Constraint> = a
            .constraints()
            .iter()
            .filter(|_| rng.bool())
            .cloned()
            .collect();
        rows.extend(halfspaces(&mut rng, 0, 2));
        for i in (1..rows.len()).rev() {
            rows.swap(i, rng.i64_in(0, i as i64) as usize);
        }
        let b = Polyhedron::from_constraints(3, rows);

        let ((want, skippable), reference) =
            offload_obs::tallied(|| reference_subtract(&region, &b));
        let (got, counted) = offload_obs::tallied(|| region.subtract(&b));
        assert_eq!(got.pieces(), &want[..], "case {case}: pieces");
        assert_eq!(
            counted.lp_solves,
            reference.lp_solves - skippable,
            "case {case}: LP solves"
        );
        skipped += skippable;
        kept += want.len();
    }
    assert!(skipped > 32 && kept > 32, "{skipped} skipped, {kept} kept");
}

/// A region is empty exactly when every one of its pieces is LP-empty:
/// the pieces it stores never are.
#[test]
fn region_is_empty_iff_every_piece_is_lp_empty() {
    let mut rng = Rng::new(0x5A9);
    let (mut empty, mut nonempty) = (0, 0);
    for case in 0..64 {
        let mut region = Region::empty(3);
        for _ in 0..rng.i64_in(0, 3) {
            region.push(Polyhedron::from_constraints(3, halfspaces(&mut rng, 1, 5)));
        }
        let other = Polyhedron::from_constraints(3, halfspaces(&mut rng, 1, 3));
        for r in [region.subtract(&other), region.intersect(&other), region] {
            let lp_empty = r.pieces().iter().all(Polyhedron::is_empty);
            assert_eq!(r.is_empty(), lp_empty, "case {case}");
            assert!(r.pieces().iter().all(|p| !p.is_empty()), "case {case}");
            if lp_empty {
                empty += 1;
            } else {
                nonempty += 1;
            }
        }
    }
    assert!(empty > 16 && nonempty > 16, "{empty} empty, {nonempty} not");
}

/// Pieces produced by subtraction are pairwise disjoint.
#[test]
fn region_pieces_disjoint() {
    let mut rng = Rng::new(0x5A6);
    for _ in 0..64 {
        let b = Polyhedron::from_constraints(3, halfspaces(&mut rng, 1, 3));
        let diff = Region::from(Polyhedron::universe(3)).subtract(&b);
        let probe = probe3(&mut rng);
        let hits = diff.pieces().iter().filter(|p| p.contains(&probe)).count();
        assert!(hits <= 1, "disjoint pieces: point hit {hits} pieces");
    }
}
