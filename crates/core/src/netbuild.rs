//! The Theorem 1 reduction: optimal program partitioning as a
//! single-source single-sink min-cut problem with parametric capacities.
//!
//! Every boolean term of the optimization problem — `M(v)`, the validity
//! states `Vsi/Vso/¬Vci/¬Vco`, and the access states `Ns/¬Nc` — becomes a
//! network node; a node on the source side has value 1. Constraints
//! (§2.4) become infinite arcs (`a ⇒ b` is an arc `a → b`: cutting it
//! would cost ∞); costs (§3.1) become finite arcs whose capacities are
//! affine functions of the linearized parameters:
//!
//! * client computation `¬M(v)·cc(v)` — arc `s → M(v)` (paid when `M∈T`);
//! * server computation `M(v)·cs(v)` — arc `M(v) → t` (∞ for I/O tasks,
//!   which the semantic constraint pins to the client);
//! * client→server transfer `¬Vso(vi,d)·Vsi(vj,d)·c` — arc
//!   `Vsi(vj,d) → Vso(vi,d)`;
//! * server→client transfer `¬Vco(vi,d)·Vci(vj,d)·c` — arc
//!   `¬Vco(vi,d) → ¬Vci(vj,d)`;
//! * scheduling `¬M(vi)·M(vj)·tcst` — arc `M(vj) → M(vi)` (and mirrored);
//! * registration `Ns(d)·Nc(d)·ta` — arc `Ns(d) → ¬Nc(d)`.

use crate::costmodel::CostModel;
use crate::items::ItemTable;
use offload_flow::{ParamCap, ParamNetwork};
use offload_poly::{Constraint, LinExpr, Polyhedron, Rational};
use offload_pta::ModRef;
use offload_symbolic::{Atom, DummyOrigin, MonomialId, SymExpr, Symbolic};
use offload_tcfg::{EdgeKind, TaskId, Tcfg};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A boolean term of Problem 1, represented by one network node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// `M(v)` — 1 when task `v` runs on the server.
    M(TaskId),
    /// `Vsi(v, d)` — item `d` valid on the server at entry of `v`.
    Vsi(TaskId, u32),
    /// `Vso(v, d)` — item `d` valid on the server at exit of `v`.
    Vso(TaskId, u32),
    /// `¬Vci(v, d)` — item `d` *invalid* on the client at entry of `v`.
    NotVci(TaskId, u32),
    /// `¬Vco(v, d)` — item `d` *invalid* on the client at exit of `v`.
    NotVco(TaskId, u32),
    /// `Ns(d)` — dynamic item `d` accessed on the server.
    Ns(u32),
    /// `¬Nc(d)` — dynamic item `d` *not* accessed on the client.
    NotNc(u32),
}

/// Pending arc target during construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum End {
    Source,
    Sink,
    Term(Term),
}

/// Pending capacity during construction (symbolic until dimensions are
/// allocated).
#[derive(Debug, Clone)]
enum PendingCap {
    Sym(SymExpr),
    Infinite,
}

/// The assembled parametric partitioning network.
#[derive(Debug, Clone)]
pub struct PartitionNetwork {
    /// The parametric flow network (node 0 = source `s`, node 1 = sink
    /// `t`, then one node per term).
    pub net: ParamNetwork,
    /// Terms by node index (offset by 2).
    pub terms: Vec<Term>,
    /// Node index of each term.
    pub node_of: HashMap<Term, usize>,
    /// The monomial behind each parameter dimension.
    pub dims: Vec<MonomialId>,
    /// Dimension of each monomial.
    pub dim_of: HashMap<MonomialId, usize>,
    /// Declared parameter region (over the linearized dimensions).
    pub param_space: Polyhedron,
}

impl PartitionNetwork {
    /// Node index of a term, if it exists in the network.
    pub fn node(&self, t: Term) -> Option<usize> {
        self.node_of.get(&t).copied()
    }

    /// Evaluates the point in linearized dimension space corresponding to
    /// concrete atom values.
    pub fn dim_point(
        &self,
        dict: &offload_symbolic::ParamDict,
        atom_value: &dyn Fn(Atom) -> Rational,
    ) -> Vec<Rational> {
        self.dims
            .iter()
            .map(|m| dict.eval_monomial(*m, atom_value))
            .collect()
    }
}

/// Per-parameter bounds supplied by the user (inclusive).
#[derive(Debug, Clone, Default)]
pub struct ParamBounds {
    /// `(lower, upper)` per `main` parameter; `None` = unbounded.
    pub per_param: Vec<(Option<i64>, Option<i64>)>,
}

impl ParamBounds {
    /// All parameters in `[lo, hi]`.
    pub fn uniform(count: usize, lo: i64, hi: Option<i64>) -> Self {
        ParamBounds {
            per_param: vec![(Some(lo), hi); count],
        }
    }

    /// Effective lower bound of parameter `i` (defaults to 0).
    pub fn lower(&self, i: usize) -> Option<i64> {
        self.per_param
            .get(i)
            .map(|b| b.0)
            .unwrap_or(Some(0))
            .or(Some(0))
    }

    /// Effective upper bound of parameter `i`, if declared.
    pub fn upper(&self, i: usize) -> Option<i64> {
        self.per_param.get(i).and_then(|b| b.1)
    }
}

/// How data-transfer requirements are modeled (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValidityModel {
    /// The paper's contribution: per-host validity states, so a value
    /// transferred once can be shared by later consumers (Figure 3).
    #[default]
    States,
    /// The traditional model the paper argues against: every
    /// definition-use chain crossing hosts is charged separately,
    /// exaggerating communication when one producer feeds several
    /// consumer tasks.
    DuChains,
}

/// Builds the partitioning network for a prepared analysis.
pub struct NetBuilder<'a> {
    /// The module under analysis.
    pub module: &'a offload_ir::Module,
    /// Its task graph.
    pub tcfg: &'a Tcfg,
    /// Per-task access classification.
    pub modref: &'a ModRef,
    /// Symbolic counts (mutable: capacity products may intern monomials).
    pub symbolic: &'a mut Symbolic,
    /// Tracked items.
    pub items: &'a ItemTable,
    /// Cost constants.
    pub cost: &'a CostModel,
    /// Declared parameter bounds.
    pub bounds: &'a ParamBounds,
    /// Data-transfer model (validity states by default).
    pub validity_model: ValidityModel,
}

impl<'a> NetBuilder<'a> {
    /// Assembles the network.
    pub fn build(mut self) -> PartitionNetwork {
        let mut arcs: Vec<(End, End, PendingCap)> = Vec::new();

        self.computation_arcs(&mut arcs);
        self.scheduling_arcs(&mut arcs);
        match self.validity_model {
            ValidityModel::States => self.validity_arcs(&mut arcs),
            ValidityModel::DuChains => self.du_chain_arcs(&mut arcs),
        }
        self.registration_arcs(&mut arcs);

        // Allocate dimensions for every monomial used by any capacity.
        let mut dims: Vec<MonomialId> = Vec::new();
        let mut dim_of: HashMap<MonomialId, usize> = HashMap::new();
        for (_, _, cap) in &arcs {
            if let PendingCap::Sym(e) = cap {
                for (m, _) in e.terms() {
                    if let std::collections::hash_map::Entry::Vacant(slot) = dim_of.entry(m) {
                        slot.insert(dims.len());
                        dims.push(m);
                    }
                }
            }
        }
        let k = dims.len();

        // Allocate nodes for every referenced term.
        let mut terms: Vec<Term> = Vec::new();
        let mut node_of: HashMap<Term, usize> = HashMap::new();
        {
            let mut seen: BTreeSet<Term> = BTreeSet::new();
            for (a, b, _) in &arcs {
                for e in [a, b] {
                    if let End::Term(t) = e {
                        seen.insert(*t);
                    }
                }
            }
            for t in seen {
                node_of.insert(t, 2 + terms.len());
                terms.push(t);
            }
        }

        let mut net = ParamNetwork::new(k, 2 + terms.len(), 0, 1);
        for (a, b, cap) in arcs {
            let from = match a {
                End::Source => 0,
                End::Sink => 1,
                End::Term(t) => node_of[&t],
            };
            let to = match b {
                End::Source => 0,
                End::Sink => 1,
                End::Term(t) => node_of[&t],
            };
            let cap = match cap {
                PendingCap::Infinite => ParamCap::Infinite,
                PendingCap::Sym(e) => {
                    if e.is_zero() {
                        continue;
                    }
                    ParamCap::Affine(e.to_linexpr(k, &|m| dim_of[&m]))
                }
            };
            net.add_arc(from, to, cap);
        }

        let param_space = self.param_space(&dims);
        PartitionNetwork {
            net,
            terms,
            node_of,
            dims,
            dim_of,
            param_space,
        }
    }

    /// `a = 1 ⇒ b = 1` as an infinite arc.
    fn imply(arcs: &mut Vec<(End, End, PendingCap)>, a: Term, b: Term) {
        arcs.push((End::Term(a), End::Term(b), PendingCap::Infinite));
    }

    fn computation_arcs(&mut self, arcs: &mut Vec<(End, End, PendingCap)>) {
        for (ti, task) in self.tcfg.tasks().iter().enumerate() {
            let tid = TaskId(ti as u32);
            // Accumulate weight per block, then scale by block counts.
            // (A BTreeMap so the summation order — and hence the term
            // order of the symbolic expression and every downstream
            // dimension assignment — is identical on every run.)
            let mut weight_by_block: BTreeMap<(offload_ir::FuncId, offload_ir::BlockId), u32> =
                BTreeMap::new();
            for (f, b, _, inst) in self.tcfg.task_instructions(self.module, tid) {
                *weight_by_block.entry((f, b)).or_insert(0) += self.cost.inst_weight(inst);
            }
            let mut work = SymExpr::zero();
            for ((f, b), w) in weight_by_block {
                let count = self.symbolic.block_count(f, b);
                work = work.add(&count.scale(&Rational::from(w as i64)));
            }
            let cc = work.scale(&self.cost.client_unit);
            arcs.push((End::Source, End::Term(Term::M(tid)), PendingCap::Sym(cc)));
            if task.is_io {
                // Semantic constraint: I/O tasks cannot run on the server.
                arcs.push((End::Term(Term::M(tid)), End::Sink, PendingCap::Infinite));
            } else {
                let cs = work.scale(&self.cost.server_unit);
                arcs.push((End::Term(Term::M(tid)), End::Sink, PendingCap::Sym(cs)));
            }
        }
    }

    /// Execution count of a TCFG edge.
    fn edge_count(&mut self, e: &offload_tcfg::TcfgEdge) -> SymExpr {
        match e.kind {
            EdgeKind::Jump { from, to } => self.symbolic.edge_count(e.func, from, to),
            EdgeKind::Call { site } | EdgeKind::Return { site } => {
                let seg = self.tcfg.segment(site);
                self.symbolic.block_count(seg.func, seg.block)
            }
        }
    }

    fn scheduling_arcs(&mut self, arcs: &mut Vec<(End, End, PendingCap)>) {
        for e in self.tcfg.edges().to_vec() {
            let r = self.edge_count(&e);
            let c2s = r.scale(&self.cost.sched_c2s);
            let s2c = r.scale(&self.cost.sched_s2c);
            // ¬M(vi)·M(vj)·tcst : pay when vj on server, vi on client.
            arcs.push((
                End::Term(Term::M(e.to)),
                End::Term(Term::M(e.from)),
                PendingCap::Sym(c2s),
            ));
            // ¬M(vj)·M(vi)·tsct : pay when vi on server, vj on client.
            arcs.push((
                End::Term(Term::M(e.from)),
                End::Term(Term::M(e.to)),
                PendingCap::Sym(s2c),
            ));
        }
    }

    fn validity_arcs(&mut self, arcs: &mut Vec<(End, End, PendingCap)>) {
        let items = self.items.items.clone();
        for (di, item) in items.iter().enumerate() {
            let d = di as u32;
            // Per-task constraint arcs.
            for &v in &item.relevant {
                let acc = self.modref.task(v).of(item.loc);
                let m = Term::M(v);
                if acc.upward_exposed_read {
                    // Read constraint.
                    Self::imply(arcs, m, Term::Vsi(v, d));
                    Self::imply(arcs, Term::NotVci(v, d), m);
                }
                if acc.definite_write || acc.partial_write {
                    // Write constraint: M = Vso and M = ¬Vco.
                    Self::imply(arcs, m, Term::Vso(v, d));
                    Self::imply(arcs, Term::Vso(v, d), m);
                    Self::imply(arcs, m, Term::NotVco(v, d));
                    Self::imply(arcs, Term::NotVco(v, d), m);
                }
                if acc.partial_write && !acc.definite_write {
                    // Conservative constraint (possible/partial writes).
                    Self::imply(arcs, m, Term::Vsi(v, d));
                    Self::imply(arcs, Term::NotVci(v, d), m);
                }
                if !acc.definite_write && !acc.partial_write {
                    // Transitive constraint.
                    Self::imply(arcs, Term::Vso(v, d), Term::Vsi(v, d));
                    Self::imply(arcs, Term::NotVci(v, d), Term::NotVco(v, d));
                }
            }
            // Per-edge transfer costs.
            for e in self.tcfg.edges().to_vec() {
                if !item.relevant.contains(&e.from) || !item.relevant.contains(&e.to) {
                    continue;
                }
                let r = self.edge_count(&e);
                let size = item.transfer_slots.clone();
                // c→s: r·(tcsh + tcsu·s(d))
                let c2s = {
                    let per = size.scale(&self.cost.send_unit_c2s);
                    let per = per.add(&SymExpr::constant(self.cost.send_startup_c2s.clone()));
                    r.mul(&per, &mut self.symbolic.dict)
                };
                arcs.push((
                    End::Term(Term::Vsi(e.to, d)),
                    End::Term(Term::Vso(e.from, d)),
                    PendingCap::Sym(c2s),
                ));
                // s→c: r·(tsch + tscu·s(d))
                let s2c = {
                    let per = size.scale(&self.cost.send_unit_s2c);
                    let per = per.add(&SymExpr::constant(self.cost.send_startup_s2c.clone()));
                    r.mul(&per, &mut self.symbolic.dict)
                };
                arcs.push((
                    End::Term(Term::NotVco(e.from, d)),
                    End::Term(Term::NotVci(e.to, d)),
                    PendingCap::Sym(s2c),
                ));
            }
        }
    }

    /// The traditional per-DU-chain charging of §2.2 / Figure 3: for every
    /// (writer task, reader task) pair of an item, a transfer is charged
    /// whenever the two run on different hosts — even when another reader
    /// already pulled the data to that host.
    fn du_chain_arcs(&mut self, arcs: &mut Vec<(End, End, PendingCap)>) {
        let items = self.items.items.clone();
        for item in items.iter() {
            let writers: Vec<_> = item
                .accessors
                .iter()
                .copied()
                .filter(|t| self.modref.task(*t).of(item.loc).writes())
                .collect();
            let readers: Vec<_> = item
                .accessors
                .iter()
                .copied()
                .filter(|t| self.modref.task(*t).of(item.loc).upward_exposed_read)
                .collect();
            for &w in &writers {
                for &r in &readers {
                    if w == r {
                        continue;
                    }
                    // Chain executes as often as the reader task's
                    // instructions do (take its header block's count).
                    let seg = self.tcfg.segment(self.tcfg.task(r).header);
                    let count = self.symbolic.block_count(seg.func, seg.block);
                    let size = item.transfer_slots.clone();
                    let per_c2s = size
                        .scale(&self.cost.send_unit_c2s)
                        .add(&SymExpr::constant(self.cost.send_startup_c2s.clone()));
                    let per_s2c = size
                        .scale(&self.cost.send_unit_s2c)
                        .add(&SymExpr::constant(self.cost.send_startup_s2c.clone()));
                    let c2s = count.mul(&per_c2s, &mut self.symbolic.dict);
                    let s2c = count.mul(&per_s2c, &mut self.symbolic.dict);
                    // Pay when the writer and reader land on different
                    // hosts, in either direction.
                    arcs.push((
                        End::Term(Term::M(r)),
                        End::Term(Term::M(w)),
                        PendingCap::Sym(c2s),
                    ));
                    arcs.push((
                        End::Term(Term::M(w)),
                        End::Term(Term::M(r)),
                        PendingCap::Sym(s2c),
                    ));
                }
            }
        }
    }

    fn registration_arcs(&mut self, arcs: &mut Vec<(End, End, PendingCap)>) {
        let items = self.items.items.clone();
        for (di, item) in items.iter().enumerate() {
            if !item.dynamic {
                continue;
            }
            let d = di as u32;
            for &v in &item.accessors {
                Self::imply(arcs, Term::M(v), Term::Ns(d));
                Self::imply(arcs, Term::NotNc(d), Term::M(v));
            }
            // Registration cost: Ns(d)·Nc(d)·ta·r(alloc).
            let site = item.site.expect("dynamic items carry their site");
            let r = self.symbolic.allocs[site.index()].count.clone();
            let ca = r.scale(&self.cost.registration);
            arcs.push((
                End::Term(Term::Ns(d)),
                End::Term(Term::NotNc(d)),
                PendingCap::Sym(ca),
            ));
        }
    }

    /// Builds the declared parameter region over the linearized
    /// dimensions: bounds on parameters and dummies, plus the derivable
    /// relations between monomials (`m·a ≥ lb(a)·m`, `m·β ≤ m`).
    fn param_space(&self, dims: &[MonomialId]) -> Polyhedron {
        let k = dims.len();
        let dict = &self.symbolic.dict;
        let mut cs: Vec<Constraint> = Vec::new();

        let atom_bounds = |a: Atom| -> (Option<i64>, Option<i64>) {
            match a {
                Atom::Param(i) => (self.bounds.lower(i as usize), self.bounds.upper(i as usize)),
                Atom::Dummy(d) => match dict.dummies().get(d as usize) {
                    Some(DummyOrigin::AutoCond { .. }) | Some(DummyOrigin::BranchFreq { .. }) => {
                        (Some(0), Some(1))
                    }
                    _ => (Some(0), None),
                },
            }
        };

        for (i, m) in dims.iter().enumerate() {
            let atoms = dict.atoms(*m);
            // Lower bound: product of atom lower bounds (atoms are
            // non-negative, so the product bound is sound).
            let lb: Option<i64> = atoms.iter().try_fold(1i64, |acc, a| {
                atom_bounds(*a).0.map(|l| acc.saturating_mul(l.max(0)))
            });
            let lb = lb.unwrap_or(0);
            cs.push(Constraint::ge0(
                LinExpr::var(k, i).plus_constant(Rational::from(-lb)),
            ));
            // Upper bound for degree-1 monomials.
            if atoms.len() == 1 {
                if let (_, Some(u)) = atom_bounds(atoms[0]) {
                    cs.push(Constraint::ge0(
                        LinExpr::constant(k, Rational::from(u)).plus_term(i, Rational::from(-1)),
                    ));
                }
            }
            // Relations to sub-monomials: if m = m' ⊎ {a}, then
            // m ≥ lb(a)·m' and (when ub(a) = 1) m ≤ m'.
            for (j, m2) in dims.iter().enumerate() {
                if i == j {
                    continue;
                }
                let sub = dict.atoms(*m2);
                if let Some(extra) = multiset_diff_one(atoms, sub) {
                    let (lo, hi) = atom_bounds(extra);
                    if let Some(lo) = lo {
                        // m - lo*m' >= 0
                        cs.push(Constraint::ge0(
                            LinExpr::var(k, i).plus_term(j, Rational::from(-lo)),
                        ));
                    }
                    if let Some(hi) = hi {
                        // hi*m' - m >= 0
                        cs.push(Constraint::ge0(
                            LinExpr::zero(k)
                                .plus_term(j, Rational::from(hi))
                                .plus_term(i, Rational::from(-1)),
                        ));
                    }
                }
            }
        }
        Polyhedron::from_constraints(k, cs)
    }
}

/// If `big = small ⊎ {a}` as multisets, returns `a`.
fn multiset_diff_one(big: &[Atom], small: &[Atom]) -> Option<Atom> {
    if big.len() != small.len() + 1 {
        return None;
    }
    // Both are sorted (dictionary invariant).
    let mut extra: Option<Atom> = None;
    let mut i = 0;
    for &b in big {
        if i < small.len() && small[i] == b {
            i += 1;
        } else if extra.is_none() {
            extra = Some(b);
        } else {
            return None;
        }
    }
    if i == small.len() {
        extra
    } else {
        None
    }
}
