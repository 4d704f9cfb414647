//! Symbolic expressions over run-time parameters.
//!
//! Costs in the paper are functions of the parameter vector `h`. Products
//! of parameters (the `xyz` of Table 1) are handled by §5.1's
//! linearization: every **monomial** (a multiset of atoms, e.g. `x·y·z`)
//! becomes an independent dimension of the polyhedral parameter space, so
//! every cost is *linear over monomials*. Values that cannot be expressed
//! from the parameters become **dummy parameters** (§3.4); the dummies
//! that survive into the final partitioning solution are exactly the ones
//! that need user annotations.

use offload_poly::{LinExpr, Rational};
use std::collections::BTreeMap;
use std::fmt;

/// An atomic symbol: a program parameter or a dummy parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Atom {
    /// The `i`-th parameter of `main`.
    Param(u32),
    /// A dummy parameter introduced for an unanalyzable quantity (§3.4).
    Dummy(u32),
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::Param(i) => write!(f, "p{i}"),
            Atom::Dummy(i) => write!(f, "d{i}"),
        }
    }
}

/// Dense id of an interned monomial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MonomialId(pub u32);

impl MonomialId {
    /// The id as an index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Why a dummy parameter exists, and how (if at all) the runtime can
/// evaluate it without user help.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DummyOrigin {
    /// Frequency of a conditional branch whose condition is a comparison
    /// of two parameter-expressible quantities: the runtime evaluates it
    /// to exactly 0 or 1 (auto-annotated).
    AutoCond {
        /// Comparison operator.
        op: offload_ir::IrBinOp,
        /// Left-hand side, as a function of parameters.
        lhs: SymExpr,
        /// Right-hand side, as a function of parameters.
        rhs: SymExpr,
        /// Human-readable description of where the branch is.
        site: String,
    },
    /// Frequency of a branch the analysis could not express — requires a
    /// user annotation (a function of the parameters in `[0, 1]`).
    BranchFreq {
        /// Human-readable description of where the branch is.
        site: String,
    },
    /// Trip count of a loop the analysis could not express — requires a
    /// user annotation (a non-negative function of the parameters).
    TripCount {
        /// Human-readable description of where the loop is.
        site: String,
    },
    /// A dynamic allocation size the analysis could not express.
    AllocSize {
        /// Human-readable description of the allocation site.
        site: String,
    },
    /// Invocation count of a function in a call-graph cycle.
    Recursion {
        /// Function name.
        site: String,
    },
}

impl DummyOrigin {
    /// Returns `true` if the runtime can evaluate this dummy from the
    /// parameter values without a user annotation.
    pub fn is_auto(&self) -> bool {
        matches!(self, DummyOrigin::AutoCond { .. })
    }

    /// Human-readable description of the site that created the dummy.
    pub fn site(&self) -> &str {
        match self {
            DummyOrigin::AutoCond { site, .. }
            | DummyOrigin::BranchFreq { site }
            | DummyOrigin::TripCount { site }
            | DummyOrigin::AllocSize { site }
            | DummyOrigin::Recursion { site } => site,
        }
    }
}

/// Interning table for atoms and monomials.
///
/// Every distinct monomial that appears in a cost expression occupies one
/// dimension of the polyhedral parameter space (the §5.1 linearization).
#[derive(Debug, Clone, Default)]
pub struct ParamDict {
    /// Names of `main`'s parameters, in order.
    param_names: Vec<String>,
    /// Dummy parameter origins, indexed by dummy id.
    dummies: Vec<DummyOrigin>,
    /// Interned monomials: sorted atom multisets.
    monomials: Vec<Vec<Atom>>,
    index: BTreeMap<Vec<Atom>, MonomialId>,
}

impl ParamDict {
    /// Creates a dictionary for the given parameter names.
    pub fn new(param_names: Vec<String>) -> Self {
        ParamDict {
            param_names,
            ..Default::default()
        }
    }

    /// Number of program parameters.
    pub fn param_count(&self) -> usize {
        self.param_names.len()
    }

    /// All dummy origins (indexed by dummy id).
    pub fn dummies(&self) -> &[DummyOrigin] {
        &self.dummies
    }

    /// Registers a new dummy parameter and returns its atom.
    pub fn fresh_dummy(&mut self, origin: DummyOrigin) -> Atom {
        let id = self.dummies.len() as u32;
        self.dummies.push(origin);
        Atom::Dummy(id)
    }

    /// Interns a monomial (a multiset of atoms; empty = the constant 1 is
    /// *not* interned — constants live in [`SymExpr::constant`]).
    ///
    /// # Panics
    ///
    /// Panics if `atoms` is empty.
    pub fn intern(&mut self, mut atoms: Vec<Atom>) -> MonomialId {
        assert!(!atoms.is_empty(), "the empty monomial is the constant term");
        atoms.sort();
        if let Some(&id) = self.index.get(&atoms) {
            return id;
        }
        let id = MonomialId(self.monomials.len() as u32);
        self.monomials.push(atoms.clone());
        self.index.insert(atoms, id);
        id
    }

    /// The atoms of a monomial.
    pub fn atoms(&self, id: MonomialId) -> &[Atom] {
        &self.monomials[id.index()]
    }

    /// Number of interned monomials.
    pub fn monomial_count(&self) -> usize {
        self.monomials.len()
    }

    /// Degree-1 monomial for a single atom.
    pub fn atom_monomial(&mut self, a: Atom) -> MonomialId {
        self.intern(vec![a])
    }

    /// Product of two monomials.
    pub fn product(&mut self, a: MonomialId, b: MonomialId) -> MonomialId {
        let mut atoms = self.monomials[a.index()].clone();
        atoms.extend_from_slice(&self.monomials[b.index()]);
        self.intern(atoms)
    }

    /// Evaluates a monomial given values for every atom.
    pub fn eval_monomial(&self, id: MonomialId, atom_value: &dyn Fn(Atom) -> Rational) -> Rational {
        let mut acc = Rational::one();
        for &a in self.atoms(id) {
            acc *= &atom_value(a);
        }
        acc
    }

    /// Renders a monomial like `x*y*z`.
    pub fn monomial_name(&self, id: MonomialId) -> String {
        self.atoms(id)
            .iter()
            .map(|a| match a {
                Atom::Param(i) => self.param_names[*i as usize].clone(),
                Atom::Dummy(i) => format!("d{i}"),
            })
            .collect::<Vec<_>>()
            .join("*")
    }
}

/// A symbolic value: a linear combination of monomials plus a constant.
///
/// Closed under addition, subtraction, multiplication (degrees add) and
/// division by constants — everything the flow-constraint propagation of
/// §3.3 needs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SymExpr {
    /// Non-zero coefficients per monomial.
    terms: BTreeMap<MonomialId, Rational>,
    /// Constant term.
    constant: Rational,
}

impl SymExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        SymExpr::default()
    }

    /// A constant expression.
    pub fn constant(c: Rational) -> Self {
        SymExpr {
            terms: BTreeMap::new(),
            constant: c,
        }
    }

    /// A constant integer expression.
    pub fn int(c: i64) -> Self {
        Self::constant(Rational::from(c))
    }

    /// The expression consisting of one atom (interned as a monomial).
    pub fn atom(dict: &mut ParamDict, a: Atom) -> Self {
        let m = dict.atom_monomial(a);
        let mut terms = BTreeMap::new();
        terms.insert(m, Rational::one());
        SymExpr {
            terms,
            constant: Rational::zero(),
        }
    }

    /// The constant term.
    pub fn constant_term(&self) -> &Rational {
        &self.constant
    }

    /// The monomial coefficients.
    pub fn terms(&self) -> impl Iterator<Item = (MonomialId, &Rational)> {
        self.terms.iter().map(|(m, c)| (*m, c))
    }

    /// Returns `true` if the expression is a constant.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Returns `Some(c)` if the expression is the constant `c`.
    pub fn as_constant(&self) -> Option<&Rational> {
        if self.is_constant() {
            Some(&self.constant)
        } else {
            None
        }
    }

    /// Returns `true` if the expression is identically zero.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty() && self.constant.is_zero()
    }

    /// `self + other`.
    pub fn add(&self, other: &SymExpr) -> SymExpr {
        let mut out = self.clone();
        for (m, c) in &other.terms {
            let entry = out.terms.entry(*m).or_default();
            *entry = &*entry + c;
            if entry.is_zero() {
                out.terms.remove(m);
            }
        }
        out.constant = &out.constant + &other.constant;
        out
    }

    /// `self - other`.
    pub fn sub(&self, other: &SymExpr) -> SymExpr {
        self.add(&other.scale(&Rational::from(-1)))
    }

    /// `k * self`.
    pub fn scale(&self, k: &Rational) -> SymExpr {
        if k.is_zero() {
            return SymExpr::zero();
        }
        SymExpr {
            terms: self.terms.iter().map(|(m, c)| (*m, c * k)).collect(),
            constant: &self.constant * k,
        }
    }

    /// `self * other` (polynomial product; needs the dictionary to intern
    /// product monomials).
    pub fn mul(&self, other: &SymExpr, dict: &mut ParamDict) -> SymExpr {
        let mut out = SymExpr::constant(&self.constant * &other.constant);
        for (m, c) in &self.terms {
            // m * other.constant
            if !other.constant.is_zero() {
                let entry = out.terms.entry(*m).or_default();
                *entry = &*entry + &(c * &other.constant);
            }
            for (m2, c2) in &other.terms {
                let prod = dict.product(*m, *m2);
                let entry = out.terms.entry(prod).or_default();
                *entry = &*entry + &(c * c2);
            }
        }
        for (m2, c2) in &other.terms {
            if !self.constant.is_zero() {
                let entry = out.terms.entry(*m2).or_default();
                *entry = &*entry + &(c2 * &self.constant);
            }
        }
        out.terms.retain(|_, c| !c.is_zero());
        out
    }

    /// Division by a non-zero constant.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn div_const(&self, k: &Rational) -> SymExpr {
        self.scale(&k.recip())
    }

    /// Evaluates given values for every atom.
    pub fn eval(&self, dict: &ParamDict, atom_value: &dyn Fn(Atom) -> Rational) -> Rational {
        let mut acc = self.constant.clone();
        for (m, c) in &self.terms {
            acc += &(c * &dict.eval_monomial(*m, atom_value));
        }
        acc
    }

    /// Converts to a [`LinExpr`] over a dense variable space where
    /// `var_of(monomial)` supplies the dimension of each monomial.
    pub fn to_linexpr(&self, nvars: usize, var_of: &dyn Fn(MonomialId) -> usize) -> LinExpr {
        let mut e = LinExpr::constant(nvars, self.constant.clone());
        for (m, c) in &self.terms {
            e = e.plus_term(var_of(*m), c.clone());
        }
        e
    }

    /// Returns `true` if any monomial of the expression contains `atom`.
    pub fn mentions_atom(&self, dict: &ParamDict, atom: Atom) -> bool {
        self.terms.keys().any(|m| dict.atoms(*m).contains(&atom))
    }

    /// Substitutes a polynomial for every occurrence of `atom` (each
    /// occurrence in a monomial multiplies by one copy of `value`). Used
    /// to apply §3.4 user annotations *before* partitioning, which removes
    /// the dummy's dimension from the polyhedral space entirely.
    pub fn substitute_atom(&self, dict: &mut ParamDict, atom: Atom, value: &SymExpr) -> SymExpr {
        let mut out = SymExpr::constant(self.constant.clone());
        for (m, coeff) in self.terms.clone() {
            let atoms = dict.atoms(m).to_vec();
            let occurrences = atoms.iter().filter(|a| **a == atom).count();
            if occurrences == 0 {
                let e = out.terms.entry(m).or_default();
                *e = &*e + &coeff;
                continue;
            }
            let rest: Vec<Atom> = atoms.into_iter().filter(|a| *a != atom).collect();
            let mut term = if rest.is_empty() {
                SymExpr::constant(coeff)
            } else {
                let rest_m = dict.intern(rest);
                let mut t = SymExpr::zero();
                t.terms.insert(rest_m, coeff);
                t
            };
            for _ in 0..occurrences {
                term = term.mul(value, dict);
            }
            out = out.add(&term);
        }
        out.terms.retain(|_, c| !c.is_zero());
        out
    }

    /// Returns `true` if the expression is exactly `1 * atom` (no other
    /// terms, no constant).
    pub fn is_single_atom(&self, dict: &ParamDict, atom: Atom) -> bool {
        if !self.constant.is_zero() || self.terms.len() != 1 {
            return false;
        }
        let (m, c) = self.terms.iter().next().expect("one term");
        c == &Rational::one() && dict.atoms(*m) == [atom]
    }

    /// Renders with monomial names from the dictionary.
    pub fn display(&self, dict: &ParamDict) -> String {
        if self.terms.is_empty() {
            return self.constant.to_string();
        }
        let mut parts = Vec::new();
        for (m, c) in &self.terms {
            let name = dict.monomial_name(*m);
            if c == &Rational::one() {
                parts.push(name);
            } else {
                parts.push(format!("{c}*{name}"));
            }
        }
        if !self.constant.is_zero() {
            parts.push(self.constant.to_string());
        }
        parts.join(" + ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dict() -> ParamDict {
        ParamDict::new(vec!["x".into(), "y".into(), "z".into()])
    }

    fn r(n: i64) -> Rational {
        Rational::from(n)
    }

    #[test]
    fn atoms_and_constants() {
        let mut d = dict();
        let x = SymExpr::atom(&mut d, Atom::Param(0));
        let e = x.add(&SymExpr::int(3));
        assert!(!e.is_constant());
        assert_eq!(e.constant_term(), &r(3));
        assert_eq!(e.display(&d), "x + 3");
    }

    #[test]
    fn products_intern_monomials() {
        let mut d = dict();
        let x = SymExpr::atom(&mut d, Atom::Param(0));
        let y = SymExpr::atom(&mut d, Atom::Param(1));
        let xy = x.mul(&y, &mut d);
        let yx = y.mul(&x, &mut d);
        assert_eq!(xy, yx, "commutative: same interned monomial");
        assert_eq!(xy.display(&d), "x*y");
        // (x + 1)(y + 2) = xy + 2x + y + 2
        let e = x
            .add(&SymExpr::int(1))
            .mul(&y.add(&SymExpr::int(2)), &mut d);
        let vals = |a: Atom| match a {
            Atom::Param(0) => r(3),
            Atom::Param(1) => r(5),
            _ => r(0),
        };
        assert_eq!(e.eval(&d, &vals), r((3 + 1) * (5 + 2)));
    }

    #[test]
    fn add_cancels() {
        let mut d = dict();
        let x = SymExpr::atom(&mut d, Atom::Param(0));
        let zero = x.sub(&x);
        assert!(zero.is_zero());
    }

    #[test]
    fn eval_table1_costs() {
        // Reproduces the running example's cost expressions: with
        // x frames, buffer size y, work z, offloading g costs 12x + 4xy.
        let mut d = dict();
        let x = SymExpr::atom(&mut d, Atom::Param(0));
        let y = SymExpr::atom(&mut d, Atom::Param(1));
        let xy = x.mul(&y, &mut d);
        let cost = x.scale(&r(12)).add(&xy.scale(&r(4)));
        let at = |xv: i64, yv: i64| {
            let vals = move |a: Atom| match a {
                Atom::Param(0) => r(xv),
                Atom::Param(1) => r(yv),
                _ => r(0),
            };
            cost.eval(&d, &vals)
        };
        assert_eq!(at(1, 6), r(12 + 24));
        assert_eq!(at(2, 3), r(24 + 24));
    }

    #[test]
    fn to_linexpr_roundtrip() {
        let mut d = dict();
        let x = SymExpr::atom(&mut d, Atom::Param(0));
        let y = SymExpr::atom(&mut d, Atom::Param(1));
        let xy = x.mul(&y, &mut d);
        let e = xy.scale(&r(2)).add(&x).add(&SymExpr::int(7));
        // Dense space: one var per monomial id.
        let n = d.monomial_count();
        let le = e.to_linexpr(n, &|m| m.index());
        assert_eq!(le.constant_term(), &r(7));
        // x is monomial 0 (first interned), xy is monomial 2 or so —
        // verify via evaluation instead of hardcoding:
        let point: Vec<Rational> = (0..n)
            .map(|i| {
                let vals = |a: Atom| match a {
                    Atom::Param(0) => r(3),
                    Atom::Param(1) => r(4),
                    _ => r(0),
                };
                d.eval_monomial(MonomialId(i as u32), &vals)
            })
            .collect();
        let vals = |a: Atom| match a {
            Atom::Param(0) => r(3),
            Atom::Param(1) => r(4),
            _ => r(0),
        };
        assert_eq!(le.eval(&point), e.eval(&d, &vals));
    }

    #[test]
    fn dummies_tracked() {
        let mut d = dict();
        let dum = d.fresh_dummy(DummyOrigin::TripCount {
            site: "f:bb3".into(),
        });
        assert_eq!(d.dummies().len(), 1);
        assert!(!d.dummies()[0].is_auto());
        let e = SymExpr::atom(&mut d, dum);
        assert_eq!(e.display(&d), "d0");
    }

    #[test]
    fn scale_and_div() {
        let mut d = dict();
        let x = SymExpr::atom(&mut d, Atom::Param(0));
        let e = x.scale(&r(6)).div_const(&r(3));
        let vals = |_: Atom| r(5);
        assert_eq!(e.eval(&d, &vals), r(10));
    }
}
