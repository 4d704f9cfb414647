//! Compiled point-location dispatch: a first-match scan over sign tests
//! of interned hyperplanes, with the point lowered to fixed-width
//! integers.
//!
//! The dispatcher answers "which optimality region contains this
//! parameter point?" as the paper's Figure 2 does: it tests each choice's
//! guard in order and runs the first choice whose guard holds.
//! [`Dispatcher::select_linear`] does so with exact-rational constraint
//! evaluations. [`compile`] turns the same guards, once per analysis,
//! into sign tests over the distinct hyperplanes of the solution:
//!
//! * every region constraint is normalized ([`Constraint::normalize`]:
//!   integer coefficients, collective gcd 1) and sign-oriented (first
//!   non-zero coefficient positive), so `x - 5 >= 0` and `5 - x > 0`
//!   become the *same* plane queried for different signs;
//! * each region piece becomes the conjunction of its `(plane, allowed
//!   signs)` tests (negative / zero / positive: the strict-vs-non-strict
//!   distinction of [`Cmp`] needs zero kept apart), and the pieces are
//!   kept in first-match order, choice by choice;
//! * a query scans the pieces with a per-query sign memo: most planes
//!   are shared between pieces (Algorithm 2 carves the parameter space
//!   with the *same* cut-difference hyperplanes), so each plane is
//!   evaluated at most once however many pieces test it.
//!
//! It also lowers the point itself — the linearized dimensions the
//! planes are over — into a straight-line *point program* over checked
//! `i128`: one slot per distinct atom the dimensions mention, in
//! dependency order (a parameter; a `Func` annotation, called once per
//! query; an `Expr` annotation with integer coefficients over earlier
//! slots; an unannotated `AutoCond` dummy as the 0/1 sign test of its
//! `lhs − rhs` scaled to integers), each dimension the product of its
//! slots, and each plane its nonzero integer coefficients. A query runs
//! the program once and scans the pieces on its plane signs.
//!
//! Everything else takes the one exact path: the point in `Rational`s
//! ([`Dispatcher::dim_point_of`]), the same scan on exact plane signs,
//! and the cheapest-cut fallback. A query goes there on any overflow, a
//! `Func` result that is not an integer that fits, or a point outside
//! every region; and every query goes there when some dimension cannot
//! be lowered (a missing or cyclic annotation, a fractional or oversized
//! constant), so every [`DispatchError`] is the exact path's. The fast
//! path therefore never changes an answer, only speeds it up. A
//! differential property test (`tests/dispatch_tests.rs`) enforces
//! bit-identical agreement with [`Dispatcher::select_linear`] over
//! seeded parameter grids and in-bounds traffic, including points outside
//! every region, forced overflow and non-integer annotations.

use crate::dispatch::{AnnotationRule, DispatchError, Dispatcher, MAX_ANNOTATION_DEPTH};
use crate::netbuild::PartitionNetwork;
use crate::parametric::ParametricPartition;
use offload_flow::ParamCap;
use offload_ir::IrBinOp;
use offload_poly::{Cmp, Constraint, LinExpr, Rational};
use offload_symbolic::{Atom, DummyOrigin, MonomialId, SymExpr};
use std::collections::HashMap;

/// Sign-set bitmask over a plane's value: bit 0 = negative, bit 1 =
/// zero, bit 2 = positive. A constraint is satisfied iff the plane's
/// actual sign bit is in the mask.
const NEG: u8 = 1;
const ZERO: u8 = 2;
const POS: u8 = 4;

/// The sign bit of a value whose signum is `s`.
fn sign_bit(s: i32) -> u8 {
    match s {
        ..=-1 => NEG,
        0 => ZERO,
        _ => POS,
    }
}

/// One region piece compiled to plane sign tests: the conjunction of
/// `(plane, allowed-signs mask)` pairs.
#[derive(Debug, Clone)]
struct Piece {
    choice: u32,
    tests: Vec<(u32, u8)>,
}

/// A product of slot values (a monomial: its atoms' slots, a repeated
/// atom repeated).
type Product = Box<[u32]>;

fn product(factors: &[u32], values: &[i128]) -> Option<i128> {
    factors
        .iter()
        .try_fold(1i128, |acc, &s| acc.checked_mul(values[s as usize]))
}

/// `constant + Σ coefficient · product` over slot values.
#[derive(Debug, Clone)]
struct IntPoly {
    constant: i128,
    terms: Vec<(i128, Product)>,
}

impl IntPoly {
    fn eval(&self, values: &[i128]) -> Option<i128> {
        self.terms.iter().try_fold(self.constant, |acc, (c, p)| {
            acc.checked_add(c.checked_mul(product(p, values)?)?)
        })
    }
}

/// How one slot of the point program gets its value.
#[derive(Debug, Clone)]
enum Slot {
    /// Parameter `i`.
    Param(usize),
    /// A `Func` annotation, called with the parameters.
    Func(fn(&[Rational]) -> Rational),
    /// An `Expr` annotation with integer coefficients.
    Expr(IntPoly),
    /// An unannotated `AutoCond` dummy: 1 when the sign of `lhs − rhs`
    /// (both scaled by the same positive integer) is in `holds`, else 0.
    Cond {
        holds: u8,
        lhs: IntPoly,
        rhs: IntPoly,
    },
}

/// A plane's nonzero integer coefficients, each with the register of
/// its dimension.
#[derive(Debug, Clone)]
struct SparsePlane {
    constant: i128,
    terms: Vec<(u32, i128)>,
}

impl SparsePlane {
    fn sign(&self, values: &[i128]) -> Option<u8> {
        let v = self.terms.iter().try_fold(self.constant, |acc, &(r, c)| {
            acc.checked_add(c.checked_mul(values[r as usize])?)
        })?;
        Some(sign_bit(v.signum() as i32))
    }
}

/// The dimensions and planes lowered to checked `i128` arithmetic. Its
/// registers are the slots, then the dimensions.
#[derive(Debug, Clone)]
struct PointProgram {
    slots: Vec<Slot>,
    dims: Vec<Product>,
    planes: Vec<SparsePlane>,
}

impl PointProgram {
    /// The registers at `params`, or `None` when the point needs exact
    /// arithmetic: an overflow, or a `Func` result that is not an
    /// integer that fits.
    fn run(&self, params: &[i64]) -> Option<Vec<i128>> {
        let mut exact: Option<Vec<Rational>> = None;
        let mut values = Vec::with_capacity(self.slots.len() + self.dims.len());
        for slot in &self.slots {
            let v = match slot {
                Slot::Param(i) => i128::from(params[*i]),
                Slot::Func(f) => {
                    let exact = exact
                        .get_or_insert_with(|| params.iter().map(|&v| Rational::from(v)).collect());
                    integer(&f(exact))?
                }
                Slot::Expr(e) => e.eval(&values)?,
                Slot::Cond { holds, lhs, rhs } => {
                    let d = lhs.eval(&values)?.checked_sub(rhs.eval(&values)?)?;
                    i128::from(holds & sign_bit(d.signum() as i32) != 0)
                }
            };
            values.push(v);
        }
        for d in &self.dims {
            let v = product(d, &values)?;
            values.push(v);
        }
        Some(values)
    }
}

/// `r` as an `i128`, if it is an integer that fits.
fn integer(r: &Rational) -> Option<i128> {
    if r.is_integer() {
        r.numer().to_i128()
    } else {
        None
    }
}

/// Lowers atoms into slots, mirroring [`Dispatcher::atom_value`]. Every
/// method returns `None` where `atom_value` would fail or a value needs
/// exact arithmetic on every query.
struct Lowering<'a> {
    base: &'a Dispatcher,
    slots: Vec<Slot>,
    /// Atom → (slot, annotation levels its value descends: 0 for a
    /// parameter, one more than its deepest atom for a dummy).
    lowered: HashMap<Atom, (u32, u32)>,
}

impl Lowering<'_> {
    /// The slot of atom `a` reached at annotation depth `depth`, and its
    /// levels.
    fn slot(&mut self, a: Atom, depth: u32) -> Option<(u32, u32)> {
        if let Some(&(slot, levels)) = self.lowered.get(&a) {
            // The deepest dummy below sits at `depth + levels - 1`.
            return (depth + levels <= MAX_ANNOTATION_DEPTH + 1).then_some((slot, levels));
        }
        let (slot, levels) = match a {
            Atom::Param(i) => (Slot::Param(i as usize), 0),
            Atom::Dummy(d) => {
                // A cycle ends here too, as it does in `atom_value`.
                if depth > MAX_ANNOTATION_DEPTH {
                    return None;
                }
                let (slot, levels) = self.dummy(d, depth + 1)?;
                (slot, levels + 1)
            }
        };
        let id = self.slots.len() as u32;
        self.slots.push(slot);
        self.lowered.insert(a, (id, levels));
        Some((id, levels))
    }

    /// Dummy `d`'s slot, its annotation's atoms at `depth`: an annotation
    /// takes precedence over an `AutoCond` origin.
    fn dummy(&mut self, d: u32, depth: u32) -> Option<(Slot, u32)> {
        let base = self.base;
        if let Some(rule) = base.annotations().exprs.get(&d) {
            return match rule {
                AnnotationRule::Func(f) => Some((Slot::Func(*f), 0)),
                AnnotationRule::Expr(e) => {
                    let (e, levels) = self.poly(e, &Rational::one(), depth)?;
                    Some((Slot::Expr(e), levels))
                }
            };
        }
        let Some(DummyOrigin::AutoCond { op, lhs, rhs, .. }) =
            base.dict().dummies().get(d as usize)
        else {
            return None;
        };
        let holds = match op {
            IrBinOp::Eq => ZERO,
            IrBinOp::Ne => NEG | POS,
            IrBinOp::Lt => NEG,
            IrBinOp::Le => NEG | ZERO,
            IrBinOp::Gt => POS,
            IrBinOp::Ge => ZERO | POS,
            _ => 0,
        };
        // Clearing the denominators by one positive factor keeps the
        // sign of `lhs − rhs`.
        let scale = [lhs, rhs]
            .into_iter()
            .flat_map(|e| std::iter::once(e.constant_term()).chain(e.terms().map(|(_, c)| c)))
            .fold(offload_poly::BigInt::one(), |l, c| l.lcm(c.denom()));
        let scale = Rational::from(scale);
        let (lhs, l) = self.poly(lhs, &scale, depth)?;
        let (rhs, r) = self.poly(rhs, &scale, depth)?;
        Some((Slot::Cond { holds, lhs, rhs }, l.max(r)))
    }

    /// `e · scale` with integer coefficients, its atoms at `depth`.
    fn poly(&mut self, e: &SymExpr, scale: &Rational, depth: u32) -> Option<(IntPoly, u32)> {
        let mut levels = 0;
        let mut terms = Vec::new();
        for (m, c) in e.terms() {
            let (p, l) = self.product(m, depth)?;
            levels = levels.max(l);
            terms.push((integer(&(c * scale))?, p));
        }
        let constant = integer(&(e.constant_term() * scale))?;
        Some((IntPoly { constant, terms }, levels))
    }

    /// The slots of monomial `m`'s atoms, reached at `depth`.
    fn product(&mut self, m: MonomialId, depth: u32) -> Option<(Product, u32)> {
        let base = self.base;
        let mut levels = 0;
        let mut factors = Vec::new();
        for &a in base.dict().atoms(m) {
            let (s, l) = self.slot(a, depth)?;
            levels = levels.max(l);
            factors.push(s);
        }
        Some((factors.into(), levels))
    }
}

/// Lowers `dims` and `planes` into a [`PointProgram`], or `None` when
/// some dimension or plane needs exact arithmetic on every query.
fn lower(base: &Dispatcher, dims: &[MonomialId], planes: &[LinExpr]) -> Option<PointProgram> {
    let mut lowering = Lowering {
        base,
        slots: Vec::new(),
        lowered: HashMap::new(),
    };
    let dims = dims
        .iter()
        .map(|&m| lowering.product(m, 0).map(|(p, _)| p))
        .collect::<Option<Vec<_>>>()?;
    let first_dim = lowering.slots.len() as u32;
    let planes = planes
        .iter()
        .map(|e| {
            let terms = e
                .terms()
                .map(|(i, c)| Some((first_dim + i as u32, integer(c)?)))
                .collect::<Option<_>>()?;
            Some(SparsePlane {
                constant: integer(e.constant_term())?,
                terms,
            })
        })
        .collect::<Option<_>>()?;
    Some(PointProgram {
        slots: lowering.slots,
        dims,
        planes,
    })
}

/// Build/shape statistics of a compiled dispatcher (for reports and
/// benchmark output).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompiledStats {
    /// Distinct canonical hyperplanes in the solution.
    pub planes: usize,
    /// Always 0: a query scans the pieces and no decision tree is
    /// built. Kept while perfbench still reads it (ROADMAP item 3).
    pub nodes: usize,
    /// Always 0, like [`Self::nodes`].
    pub max_depth: usize,
    /// Region pieces compiled (over all choices).
    pub pieces: usize,
    /// Always 0, like [`Self::nodes`].
    pub scan_leaves: usize,
    /// Slots of the fixed-width point program (0 when some dimension
    /// could not be lowered and every query takes the exact path).
    pub slots: usize,
}

/// A self-contained compiled dispatcher: everything needed to answer
/// `select(params)` — dictionary, annotations, dimension list, point
/// program, region pieces as plane sign tests and per-choice fallback
/// cut expressions — owned by value.
///
/// Build one with [`Dispatcher::compile`]; queries evaluate each plane at
/// most once and return bit-identical choices to
/// [`Dispatcher::select_linear`].
#[derive(Debug, Clone)]
pub struct CompiledDispatcher {
    base: Dispatcher,
    dims: Vec<MonomialId>,
    /// The canonical planes, for the exact path.
    planes: Vec<LinExpr>,
    /// The fixed-width path, when every dimension could be lowered.
    program: Option<PointProgram>,
    /// The region pieces in first-match order: choice order, then piece
    /// order.
    pieces: Vec<Piece>,
    /// Per choice: the affine capacities of its cut's forward arcs
    /// (`None` when the cut severs an infinite arc and can never be the
    /// fallback). Each arc clamps to zero individually, mirroring
    /// [`ParamCap::eval`].
    fallback_cuts: Vec<Option<Vec<LinExpr>>>,
    stats: CompiledStats,
}

impl CompiledDispatcher {
    /// The underlying dispatcher (dictionary + annotations).
    pub fn dispatcher(&self) -> &Dispatcher {
        &self.base
    }

    /// Build/shape statistics.
    pub fn stats(&self) -> CompiledStats {
        self.stats
    }

    /// Selects the partitioning choice for concrete parameter values:
    /// the same answer as [`Dispatcher::select_linear`], with each plane
    /// evaluated at most once.
    ///
    /// # Errors
    ///
    /// Propagates [`DispatchError`] for missing annotations or wrong
    /// arity.
    pub fn select(&self, params: &[i64]) -> Result<usize, DispatchError> {
        if params.len() != self.base.dict().param_count() {
            return Err(DispatchError::ArityMismatch {
                expected: self.base.dict().param_count(),
                got: params.len(),
            });
        }
        let fast = self.program.as_ref().and_then(|program| {
            let values = program.run(params)?;
            self.locate(|plane| program.planes[plane].sign(&values))
                .flatten()
        });
        let (selected, matched_region) = match fast {
            Some(choice) => (choice, true),
            None => self.select_exact(params)?,
        };
        offload_obs::event!(
            "runtime",
            "dispatch",
            choice = selected,
            matched_region = matched_region,
            compiled = true,
        );
        if offload_obs::enabled() {
            let name = if matched_region {
                "runtime.dispatch.compiled_matches"
            } else {
                "runtime.dispatch.compiled_fallbacks"
            };
            offload_obs::counter(name).inc();
        }
        Ok(selected)
    }

    /// The exact path: the point in `Rational`s, the pieces scanned on
    /// exact plane signs, and outside every region the cheapest known
    /// cut, earliest index on ties — identical to the linear scan's
    /// fallback. Returns the choice and whether a region matched.
    fn select_exact(&self, params: &[i64]) -> Result<(usize, bool), DispatchError> {
        let params: Vec<Rational> = params.iter().map(|&v| Rational::from(v)).collect();
        let point = self.base.dim_point_of(&self.dims, &params)?;
        if offload_obs::enabled() {
            offload_obs::counter("runtime.dispatch.exact_queries").inc();
        }
        let located = self.locate(|plane| Some(sign_bit(self.planes[plane].eval(&point).signum())));
        if let Some(Some(choice)) = located {
            return Ok((choice, true));
        }
        let mut best: Option<(usize, Rational)> = None;
        for (i, arcs) in self.fallback_cuts.iter().enumerate() {
            if let Some(arcs) = arcs {
                let mut v = Rational::zero();
                for e in arcs {
                    let x = e.eval(&point);
                    if !x.is_negative() {
                        v += &x;
                    }
                }
                best = Some(match best {
                    None => (i, v),
                    Some((_, bv)) if v < bv => (i, v),
                    Some(b) => b,
                });
            }
        }
        Ok((best.map(|(i, _)| i).unwrap_or(0), false))
    }

    /// Scans the pieces in first-match order, asking `sign` for each
    /// plane's sign bit at most once: `Some(Some(choice))` for the first
    /// piece whose every test holds, `Some(None)` outside every region,
    /// `None` as soon as `sign` gives up.
    fn locate(&self, mut sign: impl FnMut(usize) -> Option<u8>) -> Option<Option<usize>> {
        let mut memo = vec![0u8; self.planes.len()];
        'pieces: for p in &self.pieces {
            for &(plane, mask) in &p.tests {
                let known = &mut memo[plane as usize];
                if *known == 0 {
                    *known = sign(plane as usize)?;
                }
                if *known & mask == 0 {
                    continue 'pieces;
                }
            }
            return Some(Some(p.choice as usize));
        }
        Some(None)
    }
}

/// Interns the canonical form of a constraint, returning its plane index
/// and the sign mask under which the constraint holds. Returns `Err(b)`
/// when the constraint is trivially true/false (`b`).
fn intern_constraint(
    c: &Constraint,
    planes: &mut Vec<LinExpr>,
    index: &mut HashMap<LinExpr, u32>,
) -> Result<(u32, u8), bool> {
    let n = c.normalize();
    if let Some(t) = n.trivial_truth() {
        return Err(t);
    }
    // Orient: first non-zero coefficient positive, so a hyperplane and
    // its negation intern to the same entry.
    let flip = n
        .expr
        .terms()
        .next()
        .map(|(_, c)| c.is_negative())
        .unwrap_or(false);
    let expr = if flip {
        n.expr.scale(&Rational::from(-1))
    } else {
        n.expr
    };
    let mask = match (n.cmp, flip) {
        (Cmp::Ge, false) => ZERO | POS,
        (Cmp::Gt, false) => POS,
        (Cmp::Ge, true) => NEG | ZERO,
        (Cmp::Gt, true) => NEG,
    };
    let next = planes.len() as u32;
    let id = *index.entry(expr.clone()).or_insert_with(|| {
        planes.push(expr);
        next
    });
    Ok((id, mask))
}

/// Compiles a partitioning solution against its network into a
/// [`CompiledDispatcher`]. Exposed through [`Dispatcher::compile`].
pub(crate) fn compile(
    base: Dispatcher,
    pnet: &PartitionNetwork,
    partition: &ParametricPartition,
) -> CompiledDispatcher {
    let mut planes = Vec::new();
    let mut index = HashMap::new();
    let mut pieces = Vec::new();
    for (choice_idx, choice) in partition.choices.iter().enumerate() {
        for poly in choice.region.pieces() {
            let mut tests: Vec<(u32, u8)> = Vec::with_capacity(poly.constraints().len());
            let mut impossible = false;
            for c in poly.constraints() {
                match intern_constraint(c, &mut planes, &mut index) {
                    Ok((plane, mask)) => {
                        // Merge duplicate planes within the conjunction.
                        if let Some(t) = tests.iter_mut().find(|(p, _)| *p == plane) {
                            t.1 &= mask;
                            if t.1 == 0 {
                                impossible = true;
                                break;
                            }
                        } else {
                            tests.push((plane, mask));
                        }
                    }
                    Err(true) => {}
                    Err(false) => {
                        impossible = true;
                        break;
                    }
                }
            }
            if !impossible {
                pieces.push(Piece {
                    choice: choice_idx as u32,
                    tests,
                });
            }
        }
    }

    // Per-choice fallback data: the affine capacities of the cut's
    // forward arcs (infinite arcs disqualify the whole choice), so the
    // fallback sums exactly what `cut_value_at` would.
    let fallback_cuts = partition
        .choices
        .iter()
        .map(|choice| {
            let mut arcs = Vec::new();
            for a in pnet.net.arcs() {
                if choice.cut[a.from] && !choice.cut[a.to] {
                    match &a.cap {
                        ParamCap::Affine(e) => arcs.push(e.clone()),
                        ParamCap::Infinite => return None,
                    }
                }
            }
            Some(arcs)
        })
        .collect();

    let program = lower(&base, &pnet.dims, &planes);
    let stats = CompiledStats {
        planes: planes.len(),
        pieces: pieces.len(),
        slots: program.as_ref().map_or(0, |p| p.slots.len()),
        ..CompiledStats::default()
    };
    CompiledDispatcher {
        base,
        dims: pnet.dims.clone(),
        planes,
        program,
        pieces,
        fallback_cuts,
        stats,
    }
}
