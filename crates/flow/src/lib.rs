//! # offload-flow
//!
//! Network-flow machinery for the parametric partitioning algorithm of
//! *Wang & Li, PLDI 2004*:
//!
//! * [`FlowNetwork`] — exact max-flow / min-cut (Dinic) over rational
//!   capacities with `+∞` constraint arcs;
//! * [`ParamNetwork`] — networks whose capacities are affine functions of
//!   the (linearized) run-time parameters, with concrete instantiation
//!   ([`ParamNetwork::solve_at`]), Lemma-1 optimality regions
//!   ([`ParamNetwork::optimality_region`]) and the §5.4 simplification
//!   heuristic ([`ParamNetwork::simplify`]).
//!
//! ```
//! use offload_flow::{ParamNetwork, ParamCap};
//! use offload_poly::{LinExpr, Polyhedron, Rational, Constraint};
//!
//! // s --(2+x)--> a --(5)--> t over parameter x >= 0.
//! let mut n = ParamNetwork::new(1, 3, 0, 2);
//! n.add_arc(0, 1, ParamCap::Affine(
//!     LinExpr::constant(1, Rational::from(2)).plus_term(0, Rational::from(1))));
//! n.add_arc(1, 2, ParamCap::constant(1, Rational::from(5)));
//! let space = Polyhedron::from_constraints(1, vec![
//!     Constraint::ge0(LinExpr::var(1, 0)),
//! ]);
//! // The cut {s} is optimal exactly while 2 + x <= 5.
//! let region = n.optimality_region(&[true, false, false], &space);
//! assert!(region.contains(&[Rational::from(3)]));
//! assert!(!region.contains(&[Rational::from(4)]));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod dinic;
mod network;

pub use dinic::{Capacity, DinicSolver, FlowNetwork, MaxFlow, UnboundedFlow};
pub use network::{ParamArc, ParamCap, ParamNetwork, ParamSolver};
