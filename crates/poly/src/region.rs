//! Finite unions of convex polyhedra.
//!
//! Algorithm 2 of the paper maintains the set `X` of still-uncovered
//! parameter values. `X` starts as one polyhedron (the declared parameter
//! ranges) and shrinks by subtracting each newly found optimality region
//! `H`; the difference of two polyhedra is in general non-convex, so `X`
//! becomes a union of (disjoint) polyhedra — a [`Region`].

use crate::linear::Constraint;
use crate::polyhedron::Polyhedron;
use crate::rational::Rational;
use std::fmt;

/// A finite union of convex polyhedra in a common space.
///
/// # Examples
///
/// ```
/// use offload_poly::{Region, Polyhedron, Constraint, LinExpr, Rational};
///
/// // Start from x >= 0 and subtract 2 <= x <= 3: two pieces remain.
/// let x_ge = |c: i64| {
///     Constraint::ge0(LinExpr::var(1, 0).plus_constant(Rational::from(-c)))
/// };
/// let x_le = |c: i64| {
///     Constraint::ge0(LinExpr::constant(1, Rational::from(c))
///         .plus_term(0, Rational::from(-1)))
/// };
/// let start = Region::from(Polyhedron::from_constraints(1, vec![x_ge(0)]));
/// let band = Polyhedron::from_constraints(1, vec![x_ge(2), x_le(3)]);
/// let rest = start.subtract(&band);
/// assert!(rest.contains(&[Rational::from(1)]));
/// assert!(!rest.contains(&[Rational::from(2)]));
/// assert!(rest.contains(&[Rational::from(4)]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    nvars: usize,
    pieces: Vec<Polyhedron>,
}

impl Region {
    /// The empty region in `nvars` dimensions.
    pub fn empty(nvars: usize) -> Self {
        Region {
            nvars,
            pieces: Vec::new(),
        }
    }

    /// Number of dimensions.
    pub fn nvars(&self) -> usize {
        self.nvars
    }

    /// The convex pieces of the union (not guaranteed minimal), each
    /// non-empty.
    pub fn pieces(&self) -> &[Polyhedron] {
        &self.pieces
    }

    /// Adds one more convex piece to the union, unless it is empty.
    ///
    /// # Panics
    ///
    /// Panics if the piece's dimension differs.
    pub fn push(&mut self, piece: Polyhedron) {
        assert_eq!(piece.nvars(), self.nvars, "region dimension mismatch");
        if !piece.is_empty() {
            self.pieces.push(piece);
        }
    }

    /// Moves every piece of `other` into this union. Each was proven
    /// non-empty when `other` stored it, so none is tested again.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn absorb(&mut self, other: Region) {
        assert_eq!(other.nvars, self.nvars, "region dimension mismatch");
        self.pieces.extend(other.pieces);
    }

    /// Returns `true` if the union contains no point. Every stored piece
    /// was proven non-empty when it was stored, so this solves no LP.
    pub fn is_empty(&self) -> bool {
        self.pieces.is_empty()
    }

    /// Returns `true` if any piece contains the point.
    pub fn contains(&self, point: &[Rational]) -> bool {
        self.pieces.iter().any(|p| p.contains(point))
    }

    /// Samples a point from the first non-empty piece.
    pub fn sample(&self) -> Option<Vec<Rational>> {
        self.pieces.iter().find_map(Polyhedron::sample)
    }

    /// The set difference `self \ other`.
    ///
    /// Each convex piece `P` is split against `other`'s constraints with the
    /// classic disjoint decomposition: for constraints `c1..cn` of `other`,
    /// the pieces of `P \ other` are `P ∩ ¬c1`, `P ∩ c1 ∩ ¬c2`, …, which are
    /// pairwise disjoint by construction. A split `P ∩ … ∩ ¬ci` where `P`
    /// already has `ci` as a row is empty by inspection and costs no LP.
    pub fn subtract(&self, other: &Polyhedron) -> Region {
        assert_eq!(other.nvars(), self.nvars, "region dimension mismatch");
        let mut out = Region::empty(self.nvars);
        for piece in &self.pieces {
            let mut prefix: Vec<Constraint> = Vec::new();
            for c in other.constraints() {
                if !piece.constraints().contains(c) {
                    let mut split = piece.clone();
                    for p in &prefix {
                        split.add(p.clone());
                    }
                    split.add(c.negated());
                    out.push(split);
                }
                prefix.push(c.clone());
            }
        }
        out
    }

    /// Intersects every piece with a polyhedron.
    pub fn intersect(&self, other: &Polyhedron) -> Region {
        assert_eq!(other.nvars(), self.nvars, "region dimension mismatch");
        let mut out = Region::empty(self.nvars);
        for piece in &self.pieces {
            out.push(piece.intersect(other));
        }
        out
    }

    /// Formats with variable names supplied by `names`.
    pub fn display_with(&self, names: &dyn Fn(usize) -> String) -> String {
        let live: Vec<String> = self.pieces.iter().map(|p| p.display_with(names)).collect();
        if live.is_empty() {
            "false".to_string()
        } else if live.len() == 1 {
            live.into_iter().next().expect("one element")
        } else {
            live.into_iter()
                .map(|s| format!("({s})"))
                .collect::<Vec<_>>()
                .join(" || ")
        }
    }
}

impl From<Polyhedron> for Region {
    fn from(p: Polyhedron) -> Self {
        let mut r = Region::empty(p.nvars());
        r.push(p);
        r
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = |i: usize| format!("x{i}");
        write!(f, "{}", self.display_with(&names))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinExpr;

    fn r(n: i64) -> Rational {
        Rational::from(n)
    }

    fn x_ge(c: i64) -> Constraint {
        Constraint::ge0(LinExpr::var(1, 0).plus_constant(r(-c)))
    }

    fn x_le(c: i64) -> Constraint {
        Constraint::ge0(LinExpr::constant(1, r(c)).plus_term(0, r(-1)))
    }

    #[test]
    fn subtract_splits_interval() {
        let start = Region::from(Polyhedron::from_constraints(1, vec![x_ge(0), x_le(10)]));
        let mid = Polyhedron::from_constraints(1, vec![x_ge(3), x_le(6)]);
        let rest = start.subtract(&mid);
        for v in [0i64, 2, 7, 10] {
            assert!(rest.contains(&[r(v)]), "{v} should remain");
        }
        for v in [3i64, 5, 6] {
            assert!(!rest.contains(&[r(v)]), "{v} should be removed");
        }
    }

    #[test]
    fn subtract_pieces_are_disjoint() {
        let start = Region::from(Polyhedron::universe(1));
        let band = Polyhedron::from_constraints(1, vec![x_ge(2), x_le(3)]);
        let rest = start.subtract(&band);
        // Every remaining point lies in exactly one piece.
        for v in [-5i64, 0, 1, 4, 100] {
            let hits = rest.pieces().iter().filter(|p| p.contains(&[r(v)])).count();
            assert_eq!(hits, 1, "point {v} must lie in exactly one piece");
        }
    }

    #[test]
    fn subtract_everything_empties() {
        let start = Region::from(Polyhedron::from_constraints(1, vec![x_ge(0), x_le(5)]));
        let all = Polyhedron::from_constraints(1, vec![x_ge(-1), x_le(6)]);
        assert!(start.subtract(&all).is_empty());
    }

    #[test]
    fn sample_avoids_subtracted_zone() {
        let start = Region::from(Polyhedron::from_constraints(1, vec![x_ge(0), x_le(10)]));
        let left = Polyhedron::from_constraints(1, vec![x_le(7)]);
        let rest = start.subtract(&left);
        let p = rest.sample().unwrap();
        assert!(p[0] > r(7) && p[0] <= r(10));
    }

    #[test]
    fn union_of_pieces() {
        let mut u = Region::empty(1);
        u.push(Polyhedron::from_constraints(1, vec![x_ge(0), x_le(1)]));
        u.push(Polyhedron::from_constraints(1, vec![x_ge(5), x_le(6)]));
        assert!(u.contains(&[r(0)]));
        assert!(u.contains(&[r(6)]));
        assert!(!u.contains(&[r(3)]));
        assert!(!u.is_empty());
    }

    #[test]
    fn empty_pieces_dropped_on_push() {
        let mut u = Region::empty(1);
        u.push(Polyhedron::empty(1));
        assert!(u.pieces().is_empty());
    }
}
