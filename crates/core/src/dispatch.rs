//! Run-time dispatch: selecting the partitioning choice that matches the
//! current parameter values (the transformed program of Figure 2).
//!
//! The compiler emits one guard per partitioning choice — a system of
//! linear constraints over the monomials of the parameters. At program
//! start the dispatcher evaluates the monomials from the actual parameter
//! values (resolving auto-annotated condition dummies exactly, and
//! user-annotated dummies from the supplied [`Annotations`]) and picks the
//! choice whose region contains the point.

use crate::netbuild::PartitionNetwork;
use crate::parametric::{cut_cost_at, ParametricPartition, Partition};
use offload_poly::Rational;
use offload_symbolic::{Atom, DummyOrigin, ParamDict, SymExpr};
use std::collections::HashMap;
use std::fmt;

/// Deepest annotation level [`Dispatcher::atom_value`] expands: a dummy
/// reached through more annotations than this is reported as a cycle.
pub(crate) const MAX_ANNOTATION_DEPTH: u32 = 16;

/// How an annotated dummy is evaluated at dispatch time.
#[derive(Debug, Clone)]
pub enum AnnotationRule {
    /// A polynomial in the parameters.
    Expr(SymExpr),
    /// An arbitrary function of the parameter values (e.g. `log2(n)` for
    /// a doubling loop's trip count, which no polynomial expresses).
    Func(fn(&[Rational]) -> Rational),
}

/// User annotations: one rule per unresolvable dummy (§3.4).
#[derive(Debug, Clone, Default)]
pub struct Annotations {
    /// `dummy id → evaluation rule`.
    pub exprs: HashMap<u32, AnnotationRule>,
}

impl Annotations {
    /// Annotates one dummy with a polynomial.
    pub fn set(&mut self, dummy: u32, expr: SymExpr) {
        self.exprs.insert(dummy, AnnotationRule::Expr(expr));
    }

    /// Annotates one dummy with an arbitrary function of the parameters.
    pub fn set_fn(&mut self, dummy: u32, f: fn(&[Rational]) -> Rational) {
        self.exprs.insert(dummy, AnnotationRule::Func(f));
    }
}

/// Error selecting a partition at run time.
#[derive(Debug, Clone)]
pub enum DispatchError {
    /// A dummy parameter that affects the partitioning decision has no
    /// annotation and no automatic evaluation rule.
    MissingAnnotation {
        /// The dummy's id.
        dummy: u32,
        /// Where it came from.
        site: String,
    },
    /// A dummy's annotation chain references itself (directly or through
    /// other annotated dummies), so its value can never be resolved.
    CyclicAnnotation {
        /// The dummy at which the expansion depth limit was hit.
        dummy: u32,
    },
    /// Wrong number of run-time parameter values.
    ArityMismatch {
        /// Parameters expected by the analyzed program.
        expected: usize,
        /// Values supplied.
        got: usize,
    },
}

impl fmt::Display for DispatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DispatchError::MissingAnnotation { dummy, site } => {
                write!(
                    f,
                    "dummy parameter d{dummy} ({site}) needs a user annotation"
                )
            }
            DispatchError::CyclicAnnotation { dummy } => {
                write!(
                    f,
                    "dummy parameter d{dummy}'s annotation chain is self-referential"
                )
            }
            DispatchError::ArityMismatch { expected, got } => {
                write!(f, "expected {expected} parameter values, got {got}")
            }
        }
    }
}
impl std::error::Error for DispatchError {}

/// The run-time partition selector.
#[derive(Debug, Clone)]
pub struct Dispatcher {
    dict: ParamDict,
    annotations: Annotations,
}

impl Dispatcher {
    /// Creates a dispatcher for a program's dictionary and annotations.
    pub fn new(dict: ParamDict, annotations: Annotations) -> Self {
        Dispatcher { dict, annotations }
    }

    /// The dictionary in use.
    pub fn dict(&self) -> &ParamDict {
        &self.dict
    }

    /// The annotations in use.
    pub fn annotations(&self) -> &Annotations {
        &self.annotations
    }

    /// Evaluates one atom given concrete parameter values.
    fn atom_value(
        &self,
        a: Atom,
        params: &[Rational],
        depth: u32,
    ) -> Result<Rational, DispatchError> {
        match a {
            Atom::Param(i) => Ok(params[i as usize].clone()),
            Atom::Dummy(d) => {
                // Depth only grows through dummy expansion, so a deep
                // chain means the annotation of `d` (directly or through
                // other dummies) refers back to itself.
                if depth > MAX_ANNOTATION_DEPTH {
                    return Err(DispatchError::CyclicAnnotation { dummy: d });
                }
                if let Some(rule) = self.annotations.exprs.get(&d) {
                    return match rule {
                        AnnotationRule::Expr(e) => self.eval_expr(e, params, depth + 1),
                        AnnotationRule::Func(f) => Ok(f(params)),
                    };
                }
                match self.dict.dummies().get(d as usize) {
                    Some(DummyOrigin::AutoCond { op, lhs, rhs, .. }) => {
                        let l = self.eval_expr(lhs, params, depth + 1)?;
                        let r = self.eval_expr(rhs, params, depth + 1)?;
                        use offload_ir::IrBinOp::*;
                        let b = match op {
                            Eq => l == r,
                            Ne => l != r,
                            Lt => l < r,
                            Le => l <= r,
                            Gt => l > r,
                            Ge => l >= r,
                            _ => false,
                        };
                        Ok(Rational::from(b as i64))
                    }
                    Some(other) => Err(DispatchError::MissingAnnotation {
                        dummy: d,
                        site: other.site().to_string(),
                    }),
                    None => Err(DispatchError::MissingAnnotation {
                        dummy: d,
                        site: "unknown".to_string(),
                    }),
                }
            }
        }
    }

    /// Evaluates a symbolic expression at concrete parameter values.
    pub fn eval_expr(
        &self,
        e: &SymExpr,
        params: &[Rational],
        depth: u32,
    ) -> Result<Rational, DispatchError> {
        let err = std::cell::RefCell::new(None);
        let v = e.eval(&self.dict, &|a| match self.atom_value(a, params, depth) {
            Ok(v) => v,
            Err(e) => {
                err.borrow_mut().get_or_insert(e);
                Rational::zero()
            }
        });
        match err.into_inner() {
            Some(e) => Err(e),
            None => Ok(v),
        }
    }

    /// Computes the linearized-dimension point for concrete parameters.
    pub fn dim_point(
        &self,
        pnet: &PartitionNetwork,
        params: &[Rational],
    ) -> Result<Vec<Rational>, DispatchError> {
        self.dim_point_of(&pnet.dims, params)
    }

    /// Like [`Dispatcher::dim_point`], but over an explicit dimension
    /// list (a [`CompiledDispatcher`](crate::CompiledDispatcher) owns its
    /// dimensions and has no `PartitionNetwork` at hand).
    pub fn dim_point_of(
        &self,
        dims: &[offload_symbolic::MonomialId],
        params: &[Rational],
    ) -> Result<Vec<Rational>, DispatchError> {
        let err = std::cell::RefCell::new(None);
        let point = dims
            .iter()
            .map(|m| {
                self.dict
                    .eval_monomial(*m, &|a| match self.atom_value(a, params, 0) {
                        Ok(v) => v,
                        Err(e) => {
                            err.borrow_mut().get_or_insert(e);
                            Rational::zero()
                        }
                    })
            })
            .collect();
        match err.into_inner() {
            Some(e) => Err(e),
            None => Ok(point),
        }
    }

    /// Compiles the partitioning solution into a self-contained
    /// [`CompiledDispatcher`](crate::CompiledDispatcher): a hyperplane
    /// decision DAG that answers `select()` in O(depth) sign tests
    /// instead of scanning every region piece. The compiled form owns a
    /// clone of this dispatcher (dictionary + annotations), the dimension
    /// list, and the per-choice cut expressions, so a query needs nothing
    /// but the parameter values.
    pub fn compile(
        &self,
        pnet: &PartitionNetwork,
        partition: &ParametricPartition,
    ) -> crate::CompiledDispatcher {
        crate::compiled::compile(self.clone(), pnet, partition)
    }

    /// Selects the partitioning choice for concrete parameter values by
    /// linear scan: the first choice whose region contains the point,
    /// falling back to the cheapest cut when the point lies outside every
    /// recorded region (e.g. outside the declared parameter bounds).
    ///
    /// This is the reference implementation the compiled dispatcher is
    /// differentially tested against; per-query work is
    /// O(regions × constraints), so hot paths should prefer
    /// [`Dispatcher::compile`].
    ///
    /// # Errors
    ///
    /// Propagates [`DispatchError`] for missing annotations or wrong
    /// arity.
    pub fn select_linear(
        &self,
        pnet: &PartitionNetwork,
        partition: &ParametricPartition,
        params: &[i64],
    ) -> Result<usize, DispatchError> {
        if params.len() != self.dict.param_count() {
            return Err(DispatchError::ArityMismatch {
                expected: self.dict.param_count(),
                got: params.len(),
            });
        }
        let params: Vec<Rational> = params.iter().map(|&v| Rational::from(v)).collect();
        let point = self.dim_point(pnet, &params)?;
        for (i, choice) in partition.choices.iter().enumerate() {
            if choice.region.contains(&point) {
                offload_obs::event!("runtime", "dispatch", choice = i, matched_region = true,);
                if offload_obs::enabled() {
                    offload_obs::counter("runtime.dispatch.region_matches").inc();
                }
                return Ok(i);
            }
        }
        // Outside the declared space: pick the cheapest known cut.
        let mut best: Option<(usize, Rational)> = None;
        for (i, choice) in partition.choices.iter().enumerate() {
            if let Some(v) = cut_cost_at(pnet, choice, &point) {
                best = Some(match best {
                    None => (i, v),
                    Some((_, bv)) if v < bv => (i, v),
                    Some(b) => b,
                });
            }
        }
        let selected = best.map(|(i, _)| i).unwrap_or(0);
        offload_obs::event!(
            "runtime",
            "dispatch",
            choice = selected,
            matched_region = false,
        );
        if offload_obs::enabled() {
            offload_obs::counter("runtime.dispatch.fallbacks").inc();
        }
        Ok(selected)
    }

    /// Reusable region test: does `choice`'s optimality region contain the
    /// point induced by the concrete parameter values? This is the guard
    /// of Figure 2 evaluated directly, exposed so other executors (the TCP
    /// engine, external harnesses) can re-run the dispatcher's test for a
    /// *specific* choice without reimplementing monomial evaluation.
    ///
    /// # Errors
    ///
    /// Propagates [`DispatchError`] for missing annotations or wrong
    /// arity.
    pub fn region_contains(
        &self,
        pnet: &PartitionNetwork,
        choice: &Partition,
        params: &[i64],
    ) -> Result<bool, DispatchError> {
        if params.len() != self.dict.param_count() {
            return Err(DispatchError::ArityMismatch {
                expected: self.dict.param_count(),
                got: params.len(),
            });
        }
        let params: Vec<Rational> = params.iter().map(|&v| Rational::from(v)).collect();
        let point = self.dim_point(pnet, &params)?;
        Ok(choice.region.contains(&point))
    }

    /// Renders the guard condition of a choice in the style of Figure 2,
    /// e.g. `(z - 12 > 0) && (6 - 5*y > 0)`.
    pub fn guard_text(&self, pnet: &PartitionNetwork, choice: &Partition) -> String {
        let dict = &self.dict;
        let dims = pnet.dims.clone();
        let names = move |i: usize| dict.monomial_name(dims[i]);
        choice.region.display_with(&names)
    }
}

/// Lists the dummy parameters that actually appear in the partitioning
/// solution's regions — exactly the annotations the paper's §3.4 says are
/// required (Table 4's "No. of Annotations" counts a superset: every
/// parameter-like quantity the analysis names, auto or not).
pub fn dummies_in_solution(
    pnet: &PartitionNetwork,
    partition: &ParametricPartition,
    dict: &ParamDict,
) -> Vec<u32> {
    let mut used = std::collections::BTreeSet::new();
    for choice in &partition.choices {
        for piece in choice.region.pieces() {
            for c in piece.constraints() {
                for dim in c.expr.support() {
                    for a in dict.atoms(pnet.dims[dim]) {
                        if let Atom::Dummy(d) = a {
                            used.insert(*d);
                        }
                    }
                }
            }
        }
    }
    used.into_iter().collect()
}
