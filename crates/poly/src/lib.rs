//! # offload-poly
//!
//! Exact rational arithmetic and polyhedral operations — the substitute for
//! the PolyLib library used by *Wang & Li, "Parametric Analysis for Adaptive
//! Computation Offloading" (PLDI 2004)*.
//!
//! The parametric partitioning algorithm (Algorithm 2 of the paper)
//! manipulates sets of run-time parameter values as systems of linear
//! constraints. This crate provides everything it needs:
//!
//! * [`BigInt`] / [`Rational`] — exact arithmetic, immune to the coefficient
//!   growth of repeated Fourier–Motzkin combination;
//! * [`LinExpr`] / [`Constraint`] — linear expressions and (strict or
//!   non-strict) inequalities over a dense variable space;
//! * [`Polyhedron`] — intersection, exact projection (equality
//!   substitution, then Fourier–Motzkin on gcd-normalized `BigInt` rows
//!   with bitset derivation histories and redundancy pruning), emptiness
//!   testing and interior-point sampling;
//! * [`Region`] — finite unions of polyhedra with exact set difference,
//!   used for the shrinking set `X` of not-yet-covered parameter values.
//!
//! # Example
//!
//! Projecting out an existentially quantified variable — the core step of
//! Lemma 1, where flow variables are eliminated to obtain a parameter-space
//! description of a min-cut's optimality region:
//!
//! ```
//! use offload_poly::{Polyhedron, LinExpr, Constraint, Rational};
//!
//! // Variables: x (parameter), f (flow).  Constraints: 0 <= f <= x, f >= 2.
//! let nv = 2;
//! let f_ge0 = Constraint::ge0(LinExpr::var(nv, 1));
//! let f_le_x = Constraint::ge0(LinExpr::var(nv, 0).sub(&LinExpr::var(nv, 1)));
//! let f_ge2 = Constraint::ge0(LinExpr::var(nv, 1).plus_constant(Rational::from(-2)));
//! let p = Polyhedron::from_constraints(nv, vec![f_ge0, f_le_x, f_ge2]);
//!
//! // Eliminate f: a feasible flow exists iff x >= 2.
//! let shadow = p.project_to_first(1);
//! assert!(shadow.contains(&[Rational::from(2)]));
//! assert!(!shadow.contains(&[Rational::from(1)]));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bigint;
mod hash;
mod linear;
mod lp;
mod polyhedron;
mod rational;
mod reduce;
mod region;
mod simplex;

pub use bigint::{BigInt, ParseBigIntError};
pub use linear::{Cmp, Constraint, LinExpr};
pub use lp::{maximize as lp_maximize, minimize as lp_minimize, LpResult};
pub use polyhedron::{Polyhedron, ProjectionBudgetExceeded};
pub use rational::{ParseRationalError, Rational};
pub use region::Region;
