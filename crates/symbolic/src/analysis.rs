//! Demand-driven symbolic analysis and flow-constraint propagation
//! (§3.3–3.4 of the paper).
//!
//! The analysis expresses, as functions of `main`'s parameters:
//!
//! * the **execution count** of every basic block and CFG edge (via loop
//!   trip counts and branch frequencies — the paper's flow constraints);
//! * the **size** of dynamically allocated data per allocation site
//!   (`s = r · S(h)`);
//! * the **invocation count** of every function.
//!
//! Quantities the analysis cannot express become *dummy parameters*
//! (§3.4). A dummy carries its origin: branch conditions comparing two
//! parameter-expressible values are *auto-annotated* (the runtime
//! evaluates them exactly); everything else requires a user annotation.
//!
//! Symbolic values are rational polynomials; integer division in trip
//! counts is approximated by exact rational division (the error is at
//! most one iteration, far below the ±10% prediction-error budget the
//! paper reports).

use crate::expr::{Atom, DummyOrigin, ParamDict, SymExpr};
use offload_ir::{
    natural_loops, BlockId, Callee, Dominators, FuncDef, FuncId, Inst, IrBinOp, LocalId, Module,
    NaturalLoop, Operand, Preds, Terminator,
};
use offload_poly::Rational;
use offload_tcfg::IndirectTargets;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

/// A symbolic register value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymVal {
    /// A polynomial in the parameters (and dummies).
    Expr(SymExpr),
    /// The 0/1 result of a comparison of two polynomials.
    Cmp(IrBinOp, SymExpr, SymExpr),
    /// Not expressible.
    Unknown,
}

impl SymVal {
    fn merge(&self, other: &SymVal) -> SymVal {
        if self == other {
            self.clone()
        } else {
            SymVal::Unknown
        }
    }
}

/// Per-function symbolic results.
#[derive(Debug, Clone, Default)]
pub struct FuncSymbolic {
    /// Execution count of each block.
    pub block_counts: HashMap<BlockId, SymExpr>,
    /// Execution count of each intra-function CFG edge.
    pub edge_counts: HashMap<(BlockId, BlockId), SymExpr>,
    /// How many times the function is invoked.
    pub invocations: SymExpr,
    /// Trip count of each natural loop, keyed by header.
    pub trip_counts: HashMap<BlockId, SymExpr>,
}

/// Symbolic information about one allocation site.
#[derive(Debug, Clone)]
pub struct AllocSymbolic {
    /// Function containing the `alloc`.
    pub func: FuncId,
    /// Block containing the `alloc`.
    pub block: BlockId,
    /// Slots allocated per execution (`S(h) · elem_slots`).
    pub per_exec_slots: SymExpr,
    /// Total slots over the whole run (`r · S(h) · elem_slots`).
    pub total_slots: SymExpr,
    /// Execution count of the allocation statement (`r`).
    pub count: SymExpr,
}

/// Whole-module symbolic analysis results.
#[derive(Debug)]
pub struct Symbolic {
    /// The interning dictionary (parameters, dummies, monomials).
    pub dict: ParamDict,
    /// Per-function results, indexed by function id.
    pub funcs: Vec<FuncSymbolic>,
    /// Per-allocation-site results, indexed by allocation-site id.
    pub allocs: Vec<AllocSymbolic>,
}

impl Symbolic {
    /// Runs the analysis over a module.
    ///
    /// `indirect` resolves indirect call targets (pass the points-to
    /// result; the conservative default over-counts).
    pub fn analyze(module: &Module, indirect: &IndirectTargets) -> Symbolic {
        Analyzer::new(module, indirect).run()
    }

    /// Execution count of a block.
    pub fn block_count(&self, func: FuncId, block: BlockId) -> SymExpr {
        self.funcs[func.index()]
            .block_counts
            .get(&block)
            .cloned()
            .unwrap_or_else(SymExpr::zero)
    }

    /// Execution count of a CFG edge.
    pub fn edge_count(&self, func: FuncId, from: BlockId, to: BlockId) -> SymExpr {
        self.funcs[func.index()]
            .edge_counts
            .get(&(from, to))
            .cloned()
            .unwrap_or_else(SymExpr::zero)
    }

    /// Substitutes a polynomial (over parameters and other dummies) for a
    /// dummy parameter throughout every stored count and size — applying
    /// a §3.4 user annotation before partitioning, so the dummy never
    /// becomes a polyhedral dimension.
    ///
    /// Substitution interns the monomials it makes, so the counts are
    /// visited in key order: monomial ids must not follow hash order.
    pub fn substitute_dummy(&mut self, dummy: u32, value: &SymExpr) {
        let atom = Atom::Dummy(dummy);
        let dict = &mut self.dict;
        for f in &mut self.funcs {
            for e in values_in_key_order(&mut f.block_counts) {
                *e = e.substitute_atom(dict, atom, value);
            }
            for e in values_in_key_order(&mut f.edge_counts) {
                *e = e.substitute_atom(dict, atom, value);
            }
            for e in values_in_key_order(&mut f.trip_counts) {
                *e = e.substitute_atom(dict, atom, value);
            }
            f.invocations = f.invocations.substitute_atom(dict, atom, value);
        }
        for a in &mut self.allocs {
            a.per_exec_slots = a.per_exec_slots.substitute_atom(dict, atom, value);
            a.total_slots = a.total_slots.substitute_atom(dict, atom, value);
            a.count = a.count.substitute_atom(dict, atom, value);
        }
    }

    /// Dummy parameters that require a user annotation (non-auto).
    pub fn annotations_required(&self) -> Vec<(u32, &DummyOrigin)> {
        self.dict
            .dummies()
            .iter()
            .enumerate()
            .filter(|(_, d)| !d.is_auto())
            .map(|(i, d)| (i as u32, d))
            .collect()
    }
}

/// The values of `map`, in ascending key order.
fn values_in_key_order<K: Ord, V>(map: &mut HashMap<K, V>) -> Vec<&mut V> {
    let mut entries: Vec<(&K, &mut V)> = map.iter_mut().collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
    entries.into_iter().map(|(_, v)| v).collect()
}

type Env = BTreeMap<LocalId, SymVal>;

struct Analyzer<'m> {
    module: &'m Module,
    indirect: &'m IndirectTargets,
    dict: ParamDict,
    /// Dedup cache for branch-frequency dummies, keyed by a rendered
    /// condition (same condition → same dummy dimension).
    cond_dummies: HashMap<String, Atom>,
    /// Probe atoms (temporary dummies for induction discovery) use ids at
    /// and above this base and never escape.
    probe_base: u32,
}

impl<'m> Analyzer<'m> {
    fn new(module: &'m Module, indirect: &'m IndirectTargets) -> Self {
        let main = module.function(module.main);
        let names = main
            .params
            .iter()
            .map(|p| main.local(*p).name.clone())
            .collect();
        Analyzer {
            module,
            indirect,
            dict: ParamDict::new(names),
            cond_dummies: HashMap::new(),
            probe_base: 1_000_000,
        }
    }

    fn run(mut self) -> Symbolic {
        let n = self.module.functions.len();
        let mut funcs: Vec<FuncSymbolic> = vec![FuncSymbolic::default(); n];
        let mut allocs: Vec<Option<AllocSymbolic>> =
            (0..self.module.alloc_sites).map(|_| None).collect();

        let order = self.call_order();
        let mut param_vals: Vec<Option<Vec<SymVal>>> = vec![None; n];
        let mut invocations: Vec<SymExpr> = vec![SymExpr::zero(); n];
        invocations[self.module.main.index()] = SymExpr::int(1);
        let main_params: Vec<SymVal> = (0..self.dict.param_count())
            .map(|i| SymVal::Expr(SymExpr::atom(&mut self.dict, Atom::Param(i as u32))))
            .collect();
        param_vals[self.module.main.index()] = Some(main_params);

        let in_cycle = self.cyclic_functions();

        for &fid in &order {
            let f = self.module.function(fid);
            let mut inv = invocations[fid.index()].clone();
            let mut params = param_vals[fid.index()]
                .clone()
                .unwrap_or_else(|| vec![SymVal::Unknown; f.params.len()]);
            if in_cycle.contains(&fid) {
                let d = self.dict.fresh_dummy(DummyOrigin::Recursion {
                    site: f.name.clone(),
                });
                inv = SymExpr::atom(&mut self.dict, d);
                params = vec![SymVal::Unknown; f.params.len()];
            }

            let result = self.analyze_function(fid, &params, &inv, &mut allocs);

            // Propagate into callees.
            let f = self.module.function(fid);
            for (bid, block) in f.iter_blocks() {
                let mut env = result.entry_envs.get(&bid).cloned().unwrap_or_default();
                for (ii, inst) in block.insts.iter().enumerate() {
                    if let Inst::Call { callee, args, .. } = inst {
                        let targets = self.call_targets(fid, bid, ii, callee);
                        let count = result
                            .counts
                            .block_counts
                            .get(&bid)
                            .cloned()
                            .unwrap_or_else(SymExpr::zero);
                        // An indirect call executes exactly one of its
                        // possible targets per call; share the count
                        // evenly rather than crediting each target with
                        // the full count (which would overstate the total
                        // workload |targets|-fold).
                        let count = if targets.len() > 1 {
                            count.div_const(&Rational::from(targets.len() as i64))
                        } else {
                            count
                        };
                        for t in targets {
                            invocations[t.index()] = invocations[t.index()].add(&count);
                            let callee_def = self.module.function(t);
                            let vals: Vec<SymVal> = callee_def
                                .params
                                .iter()
                                .enumerate()
                                .map(|(k, _)| match args.get(k) {
                                    Some(a) => self.op_val(&env, *a),
                                    None => SymVal::Unknown,
                                })
                                .collect();
                            match &mut param_vals[t.index()] {
                                slot @ None => *slot = Some(vals),
                                Some(old) => {
                                    for (o, v) in old.iter_mut().zip(vals) {
                                        *o = o.merge(&v);
                                    }
                                }
                            }
                        }
                    }
                    self.transfer(&mut env, inst);
                }
            }

            funcs[fid.index()] = result.counts;
        }

        let allocs = allocs
            .into_iter()
            .map(|a| {
                a.unwrap_or(AllocSymbolic {
                    func: FuncId(0),
                    block: BlockId(0),
                    per_exec_slots: SymExpr::zero(),
                    total_slots: SymExpr::zero(),
                    count: SymExpr::zero(),
                })
            })
            .collect();

        Symbolic {
            dict: self.dict,
            funcs,
            allocs,
        }
    }

    fn call_targets(&self, fid: FuncId, bid: BlockId, ii: usize, callee: &Callee) -> Vec<FuncId> {
        match callee {
            Callee::Direct(t) => vec![*t],
            Callee::Indirect(_) => self
                .indirect
                .per_site
                .get(&(fid, bid, ii))
                .cloned()
                .unwrap_or_default(),
        }
    }

    /// Topological order of the call graph (callers first); functions in
    /// cycles are appended afterwards in id order.
    ///
    /// Edge sets are ordered so ties in the topological sort always break
    /// the same way: the visit order decides the numbering of every dummy
    /// parameter, which must not vary from run to run.
    fn call_order(&self) -> Vec<FuncId> {
        let n = self.module.functions.len();
        let mut edges: Vec<BTreeSet<FuncId>> = vec![BTreeSet::new(); n];
        for (fi, f) in self.module.functions.iter().enumerate() {
            let fid = FuncId(fi as u32);
            for (bid, block) in f.iter_blocks() {
                for (ii, inst) in block.insts.iter().enumerate() {
                    if let Inst::Call { callee, .. } = inst {
                        edges[fi].extend(self.call_targets(fid, bid, ii, callee));
                    }
                }
            }
        }
        let mut indeg = vec![0usize; n];
        for targets in &edges {
            for t in targets {
                indeg[t.index()] += 1;
            }
        }
        let mut queue: VecDeque<FuncId> = (0..n)
            .map(|i| FuncId(i as u32))
            .filter(|f| indeg[f.index()] == 0)
            .collect();
        let mut order = Vec::new();
        let mut emitted = vec![false; n];
        while let Some(f) = queue.pop_front() {
            if emitted[f.index()] {
                continue;
            }
            emitted[f.index()] = true;
            order.push(f);
            for &t in &edges[f.index()] {
                indeg[t.index()] -= 1;
                if indeg[t.index()] == 0 {
                    queue.push_back(t);
                }
            }
        }
        for (i, done) in emitted.iter().enumerate() {
            if !done {
                order.push(FuncId(i as u32));
            }
        }
        order
    }

    /// Functions that can reach themselves through calls.
    fn cyclic_functions(&self) -> HashSet<FuncId> {
        let n = self.module.functions.len();
        let mut edges: Vec<HashSet<FuncId>> = vec![HashSet::new(); n];
        for (fi, f) in self.module.functions.iter().enumerate() {
            let fid = FuncId(fi as u32);
            for (bid, block) in f.iter_blocks() {
                for (ii, inst) in block.insts.iter().enumerate() {
                    if let Inst::Call { callee, .. } = inst {
                        edges[fi].extend(self.call_targets(fid, bid, ii, callee));
                    }
                }
            }
        }
        let mut cyclic = HashSet::new();
        for start in 0..n {
            let mut seen = HashSet::new();
            let mut stack: Vec<FuncId> = edges[start].iter().copied().collect();
            while let Some(f) = stack.pop() {
                if f.index() == start {
                    cyclic.insert(FuncId(start as u32));
                    break;
                }
                if seen.insert(f) {
                    stack.extend(edges[f.index()].iter().copied());
                }
            }
        }
        cyclic
    }

    // ---- symbolic environments ----

    fn op_val(&self, env: &Env, op: Operand) -> SymVal {
        match op {
            Operand::Const(c) => SymVal::Expr(SymExpr::int(c)),
            Operand::Local(l) => env.get(&l).cloned().unwrap_or(SymVal::Unknown),
        }
    }

    fn transfer(&mut self, env: &mut Env, inst: &Inst) {
        match inst {
            Inst::Copy { dst, src } => {
                let v = self.op_val(env, *src);
                env.insert(*dst, v);
            }
            Inst::Un { dst, op, src } => {
                let v = self.op_val(env, *src);
                let out = match (op, v) {
                    (offload_lang::UnOp::Neg, SymVal::Expr(e)) => {
                        SymVal::Expr(e.scale(&Rational::from(-1)))
                    }
                    (offload_lang::UnOp::Not, SymVal::Cmp(op, a, b)) => {
                        SymVal::Cmp(negate_cmp(op), a, b)
                    }
                    (offload_lang::UnOp::Not, SymVal::Expr(e)) => match e.as_constant() {
                        Some(c) if c.is_zero() => SymVal::Expr(SymExpr::int(1)),
                        Some(_) => SymVal::Expr(SymExpr::int(0)),
                        None => SymVal::Cmp(IrBinOp::Eq, e, SymExpr::zero()),
                    },
                    _ => SymVal::Unknown,
                };
                env.insert(*dst, out);
            }
            Inst::Bin { dst, op, lhs, rhs } => {
                let a = self.op_val(env, *lhs);
                let b = self.op_val(env, *rhs);
                let out = match (op, &a, &b) {
                    (IrBinOp::Add, SymVal::Expr(x), SymVal::Expr(y)) => SymVal::Expr(x.add(y)),
                    (IrBinOp::Sub, SymVal::Expr(x), SymVal::Expr(y)) => SymVal::Expr(x.sub(y)),
                    (IrBinOp::Mul, SymVal::Expr(x), SymVal::Expr(y)) => {
                        SymVal::Expr(x.mul(y, &mut self.dict))
                    }
                    (IrBinOp::Div, SymVal::Expr(x), SymVal::Expr(y)) => match y.as_constant() {
                        Some(c) if !c.is_zero() => SymVal::Expr(x.div_const(c)),
                        _ => SymVal::Unknown,
                    },
                    (
                        IrBinOp::Eq
                        | IrBinOp::Ne
                        | IrBinOp::Lt
                        | IrBinOp::Le
                        | IrBinOp::Gt
                        | IrBinOp::Ge,
                        SymVal::Expr(x),
                        SymVal::Expr(y),
                    ) => match (x.as_constant(), y.as_constant()) {
                        (Some(cx), Some(cy)) => {
                            SymVal::Expr(SymExpr::int(eval_cmp(*op, cx, cy) as i64))
                        }
                        _ => SymVal::Cmp(*op, x.clone(), y.clone()),
                    },
                    _ => SymVal::Unknown,
                };
                env.insert(*dst, out);
            }
            _ => {
                if let Some(d) = inst.def() {
                    env.insert(d, SymVal::Unknown);
                }
            }
        }
    }

    /// Computes entry environments by fixpoint iteration. When `members`
    /// is given (it holds `entry`), only those blocks participate and
    /// edges back to `entry` are ignored (used for loop-body probing).
    ///
    /// Each round visits the blocks in order and transfers only those
    /// whose entry environment changed since their last transfer: a
    /// block whose entry is unchanged would send the same environments
    /// to its successors, and merging them again changes nothing.
    fn compute_envs(
        &mut self,
        fid: FuncId,
        members: Option<&HashSet<BlockId>>,
        entry: BlockId,
        entry_env: Env,
    ) -> HashMap<BlockId, Env> {
        let f = self.module.function(fid);
        let mut envs: HashMap<BlockId, Env> = HashMap::new();
        envs.insert(entry, entry_env);
        let mut dirty = vec![false; f.blocks.len()];
        dirty[entry.index()] = true;
        while dirty.contains(&true) {
            for (bid, block) in f.iter_blocks() {
                if !std::mem::take(&mut dirty[bid.index()]) {
                    continue;
                }
                let mut env = envs[&bid].clone();
                for inst in &block.insts {
                    self.transfer(&mut env, inst);
                }
                for succ in block.term.successors() {
                    if let Some(m) = members {
                        if !m.contains(&succ) || succ == entry {
                            continue;
                        }
                    }
                    let mut changed = false;
                    match envs.get_mut(&succ) {
                        None => {
                            envs.insert(succ, env.clone());
                            changed = true;
                        }
                        Some(old) => {
                            for (k, v) in &env {
                                let merged = match old.get(k) {
                                    None => SymVal::Unknown,
                                    Some(o) => o.merge(v),
                                };
                                if old.get(k) != Some(&merged) {
                                    old.insert(*k, merged);
                                    changed = true;
                                }
                            }
                            let missing: Vec<LocalId> = old
                                .keys()
                                .filter(|k| !env.contains_key(k))
                                .copied()
                                .collect();
                            for k in missing {
                                if old.get(&k) != Some(&SymVal::Unknown) {
                                    old.insert(k, SymVal::Unknown);
                                    changed = true;
                                }
                            }
                        }
                    }
                    dirty[succ.index()] |= changed;
                }
            }
        }
        envs
    }

    // ---- per-function analysis ----

    fn analyze_function(
        &mut self,
        fid: FuncId,
        params: &[SymVal],
        invocations: &SymExpr,
        allocs: &mut [Option<AllocSymbolic>],
    ) -> FuncResult {
        let f = self.module.function(fid).clone();
        let preds = Preds::compute(&f);
        let doms = Dominators::compute(&f, &preds);
        let loops = natural_loops(&f, &preds, &doms);

        let entry_env: Env = f
            .params
            .iter()
            .zip(params)
            .map(|(p, v)| (*p, v.clone()))
            .collect();
        let envs = self.compute_envs(fid, None, f.entry, entry_env);

        // Trip counts per loop.
        let mut trips: HashMap<BlockId, SymExpr> = HashMap::new();
        for l in &loops {
            let trip = self.trip_count(fid, &f, l, &envs, &preds);
            trips.insert(l.header, trip);
        }

        // Branch frequencies (probability of the `then` edge) for
        // conditional branches other than loop-header exit tests.
        let loop_headers: HashSet<BlockId> = loops.iter().map(|l| l.header).collect();
        let mut freqs: HashMap<BlockId, SymExpr> = HashMap::new();
        for (bid, block) in f.iter_blocks() {
            if let Terminator::Branch { cond, .. } = &block.term {
                if loop_headers.contains(&bid) {
                    continue;
                }
                let mut env = envs.get(&bid).cloned().unwrap_or_default();
                for inst in &block.insts {
                    self.transfer(&mut env, inst);
                }
                let v = self.op_val(&env, *cond);
                let beta = self.branch_freq(fid, bid, v);
                freqs.insert(bid, beta);
            }
        }

        // Structural count propagation.
        let mut counts = FuncSymbolic::default();
        let all: HashSet<BlockId> = f.iter_blocks().map(|(b, _)| b).collect();
        propagate_counts(
            &mut self.dict,
            &f,
            &loops,
            &trips,
            &freqs,
            None,
            &all,
            f.entry,
            invocations.clone(),
            &mut counts,
        );

        // Allocation sizes.
        for (bid, block) in f.iter_blocks() {
            let mut env = envs.get(&bid).cloned().unwrap_or_default();
            for inst in &block.insts {
                if let Inst::Alloc {
                    elem_slots,
                    count,
                    site,
                    ..
                } = inst
                {
                    let per_exec = match self.op_val(&env, *count) {
                        SymVal::Expr(e) if !self.mentions_probe(&e) => {
                            e.scale(&Rational::from(*elem_slots as i64))
                        }
                        _ => {
                            let d = self.dict.fresh_dummy(DummyOrigin::AllocSize {
                                site: format!("{}:{}", f.name, bid),
                            });
                            SymExpr::atom(&mut self.dict, d)
                        }
                    };
                    let r = counts
                        .block_counts
                        .get(&bid)
                        .cloned()
                        .unwrap_or_else(SymExpr::zero);
                    let total = r.mul(&per_exec, &mut self.dict);
                    allocs[site.index()] = Some(AllocSymbolic {
                        func: fid,
                        block: bid,
                        per_exec_slots: per_exec,
                        total_slots: total,
                        count: r,
                    });
                }
                self.transfer(&mut env, inst);
            }
        }

        counts.invocations = invocations.clone();
        counts.trip_counts = trips;
        FuncResult {
            counts,
            entry_envs: envs,
        }
    }

    fn mentions_probe(&self, e: &SymExpr) -> bool {
        (1_000_000..self.probe_base).any(|i| e.mentions_atom(&self.dict, Atom::Dummy(i)))
    }

    fn branch_freq(&mut self, fid: FuncId, bid: BlockId, cond: SymVal) -> SymExpr {
        let fname = &self.module.function(fid).name;
        let site = format!("{fname}:{bid}");
        let atom = match cond {
            SymVal::Expr(e) if !self.mentions_probe(&e) => match e.as_constant() {
                Some(c) if c.is_zero() => return SymExpr::zero(),
                Some(_) => return SymExpr::int(1),
                None => self.cond_dummy(IrBinOp::Ne, e, SymExpr::zero(), site),
            },
            SymVal::Cmp(op, lhs, rhs)
                if !self.mentions_probe(&lhs) && !self.mentions_probe(&rhs) =>
            {
                self.cond_dummy(op, lhs, rhs, site)
            }
            _ => self.dict.fresh_dummy(DummyOrigin::BranchFreq { site }),
        };
        SymExpr::atom(&mut self.dict, atom)
    }

    /// Interns an auto-annotatable condition dummy (same condition text →
    /// same dummy dimension).
    fn cond_dummy(&mut self, op: IrBinOp, lhs: SymExpr, rhs: SymExpr, site: String) -> Atom {
        let key = format!(
            "{op:?}|{}|{}",
            lhs.display(&self.dict),
            rhs.display(&self.dict)
        );
        if let Some(&a) = self.cond_dummies.get(&key) {
            return a;
        }
        let a = self
            .dict
            .fresh_dummy(DummyOrigin::AutoCond { op, lhs, rhs, site });
        self.cond_dummies.insert(key, a);
        a
    }

    /// Recovers a loop's trip count via an induction-variable probe:
    /// re-run the symbolic transfer over the loop body with every
    /// loop-defined register replaced by a fresh probe atom, then read the
    /// header's exit test and the latch-carried update.
    fn trip_count(
        &mut self,
        fid: FuncId,
        f: &FuncDef,
        l: &NaturalLoop,
        envs: &HashMap<BlockId, Env>,
        preds: &Preds,
    ) -> SymExpr {
        let site = format!("{}:{}", f.name, l.header);
        macro_rules! fallback {
            () => {{
                let d = self.dict.fresh_dummy(DummyOrigin::TripCount { site });
                return SymExpr::atom(&mut self.dict, d);
            }};
        }

        let header_block = f.block(l.header);
        let Terminator::Branch {
            cond,
            then,
            otherwise,
        } = &header_block.term
        else {
            fallback!()
        };
        let negated = if l.contains(*then) && !l.contains(*otherwise) {
            false
        } else if l.contains(*otherwise) && !l.contains(*then) {
            true
        } else {
            fallback!()
        };

        // Entry env: merge over predecessors outside the loop, advanced
        // through their instructions.
        let mut init_env: Option<Env> = None;
        for &p in preds.of(l.header) {
            if l.contains(p) {
                continue;
            }
            let mut env = match envs.get(&p) {
                Some(e) => e.clone(),
                None => continue,
            };
            for inst in &f.block(p).insts {
                self.transfer(&mut env, inst);
            }
            init_env = Some(match init_env {
                None => env,
                Some(old) => merge_envs(&old, &env),
            });
        }
        let Some(init_env) = init_env else {
            fallback!()
        };

        // Probe env: loop-defined registers become fresh probe atoms.
        // In register order, so that probe atoms are numbered the same
        // way on every run.
        let defined_in_loop: BTreeSet<LocalId> = l
            .body
            .iter()
            .flat_map(|b| f.block(*b).insts.iter().filter_map(Inst::def))
            .collect();
        let mut probe_env = init_env.clone();
        let mut probes: HashMap<LocalId, Atom> = HashMap::new();
        for reg in &defined_in_loop {
            let probe = Atom::Dummy(self.probe_base);
            self.probe_base += 1;
            probes.insert(*reg, probe);
            let e = SymExpr::atom(&mut self.dict, probe);
            probe_env.insert(*reg, SymVal::Expr(e));
        }

        let body_envs = self.compute_envs(fid, Some(&l.body), l.header, probe_env.clone());

        // Exit test in the probe env advanced through the header.
        let mut henv = probe_env.clone();
        for inst in &header_block.insts {
            self.transfer(&mut henv, inst);
        }
        let SymVal::Cmp(mut op, lhs, rhs) = self.op_val(&henv, *cond) else {
            fallback!()
        };
        if negated {
            op = negate_cmp(op);
        }

        let mentions_any =
            |me: &Self, e: &SymExpr| probes.values().any(|a| e.mentions_atom(&me.dict, *a));
        let probe_of = |me: &Self, e: &SymExpr| -> Option<LocalId> {
            probes
                .iter()
                .find(|(_, a)| e.is_single_atom(&me.dict, **a))
                .map(|(r, _)| *r)
        };
        let (ivar, bound) = if let Some(r) = probe_of(self, &lhs) {
            if mentions_any(self, &rhs) {
                fallback!()
            }
            (r, rhs)
        } else if let Some(r) = probe_of(self, &rhs) {
            if mentions_any(self, &lhs) {
                fallback!()
            }
            op = flip_cmp(op);
            (r, lhs)
        } else {
            fallback!()
        };

        // Step: probe + c at every latch.
        let probe_atom = probes[&ivar];
        let probe_expr = SymExpr::atom(&mut self.dict, probe_atom);
        let mut step: Option<Rational> = None;
        for &latch in &l.latches {
            let mut env = match body_envs.get(&latch) {
                Some(e) => e.clone(),
                None => fallback!(),
            };
            for inst in &f.block(latch).insts {
                self.transfer(&mut env, inst);
            }
            let Some(SymVal::Expr(v)) = env.get(&ivar).cloned() else {
                fallback!()
            };
            let delta = v.sub(&probe_expr);
            let Some(c) = delta.as_constant().cloned() else {
                fallback!()
            };
            match &step {
                None => step = Some(c),
                Some(s) if *s == c => {}
                _ => fallback!(),
            }
        }
        let Some(step) = step else { fallback!() };
        if step.is_zero() {
            fallback!()
        }

        // Initial value at loop entry.
        let Some(SymVal::Expr(init)) = init_env.get(&ivar).cloned() else {
            fallback!()
        };
        if mentions_any(self, &init) || mentions_any(self, &bound) {
            fallback!()
        }

        let diff = bound.sub(&init);
        match op {
            IrBinOp::Lt | IrBinOp::Ne if step.is_positive() => diff.div_const(&step),
            IrBinOp::Le if step.is_positive() => diff.div_const(&step).add(&SymExpr::int(1)),
            IrBinOp::Gt if step.is_negative() => diff.div_const(&step),
            IrBinOp::Ge if step.is_negative() => diff.div_const(&step).add(&SymExpr::int(1)),
            _ => fallback!(),
        }
    }
}

struct FuncResult {
    counts: FuncSymbolic,
    entry_envs: HashMap<BlockId, Env>,
}

fn merge_envs(a: &Env, b: &Env) -> Env {
    let mut out = Env::new();
    for (k, v) in a {
        match b.get(k) {
            Some(w) => {
                out.insert(*k, v.merge(w));
            }
            None => {
                out.insert(*k, SymVal::Unknown);
            }
        }
    }
    for k in b.keys() {
        if !a.contains_key(k) {
            out.insert(*k, SymVal::Unknown);
        }
    }
    out
}

fn negate_cmp(op: IrBinOp) -> IrBinOp {
    match op {
        IrBinOp::Eq => IrBinOp::Ne,
        IrBinOp::Ne => IrBinOp::Eq,
        IrBinOp::Lt => IrBinOp::Ge,
        IrBinOp::Le => IrBinOp::Gt,
        IrBinOp::Gt => IrBinOp::Le,
        IrBinOp::Ge => IrBinOp::Lt,
        other => other,
    }
}

fn flip_cmp(op: IrBinOp) -> IrBinOp {
    match op {
        IrBinOp::Lt => IrBinOp::Gt,
        IrBinOp::Le => IrBinOp::Ge,
        IrBinOp::Gt => IrBinOp::Lt,
        IrBinOp::Ge => IrBinOp::Le,
        other => other,
    }
}

fn eval_cmp(op: IrBinOp, a: &Rational, b: &Rational) -> bool {
    match op {
        IrBinOp::Eq => a == b,
        IrBinOp::Ne => a != b,
        IrBinOp::Lt => a < b,
        IrBinOp::Le => a <= b,
        IrBinOp::Gt => a > b,
        IrBinOp::Ge => a >= b,
        _ => false,
    }
}

// ---- structural execution-count propagation ----

/// Direct child loops of `region` within the loop forest.
fn child_loops(loops: &[NaturalLoop], region: Option<usize>) -> Vec<usize> {
    let mut children = Vec::new();
    for (i, l) in loops.iter().enumerate() {
        if Some(i) == region {
            continue;
        }
        let mut parent: Option<usize> = None;
        for (j, lj) in loops.iter().enumerate() {
            if j != i && lj.body.is_superset(&l.body) && lj.body.len() > l.body.len() {
                parent = Some(match parent {
                    None => j,
                    Some(p) if loops[p].body.len() > lj.body.len() => j,
                    Some(p) => p,
                });
            }
        }
        if parent == region {
            children.push(i);
        }
    }
    children
}

/// Propagates execution counts through one region (the whole function, or
/// a loop body), recursing into child loops collapsed as supernodes.
#[allow(clippy::too_many_arguments)]
fn propagate_counts(
    dict: &mut ParamDict,
    f: &FuncDef,
    loops: &[NaturalLoop],
    trips: &HashMap<BlockId, SymExpr>,
    freqs: &HashMap<BlockId, SymExpr>,
    region: Option<usize>,
    members: &HashSet<BlockId>,
    entry: BlockId,
    entry_count: SymExpr,
    out: &mut FuncSymbolic,
) {
    let children = child_loops(loops, region);
    let mut owner: HashMap<BlockId, usize> = HashMap::new();
    for &c in &children {
        for &b in &loops[c].body {
            owner.insert(b, c);
        }
    }
    let node_of = |b: BlockId| -> BlockId {
        match owner.get(&b) {
            Some(&c) => loops[c].header,
            None => b,
        }
    };

    // DAG edges between collapsed nodes; back edges to `entry` skipped but
    // still *recorded* with the body flow (they are real TCFG edges).
    let mut succ: HashMap<BlockId, Vec<(BlockId, BlockId, BlockId)>> = HashMap::new();
    let mut indeg: HashMap<BlockId, usize> = HashMap::new();
    for &b in members {
        indeg.entry(node_of(b)).or_insert(0);
    }
    for &b in members {
        let from = node_of(b);
        for s in f.block(b).term.successors() {
            if !members.contains(&s) || s == entry {
                continue;
            }
            let to = node_of(s);
            if to == from {
                continue; // intra-child edge, handled by the recursive call
            }
            succ.entry(from).or_default().push((to, b, s));
            *indeg.entry(to).or_insert(0) += 1;
        }
    }

    let mut inflow: HashMap<BlockId, SymExpr> = HashMap::new();
    inflow.insert(node_of(entry), entry_count);
    let mut queue: VecDeque<BlockId> = indeg
        .iter()
        .filter(|(_, d)| **d == 0)
        .map(|(b, _)| *b)
        .collect();
    let mut order = Vec::new();
    {
        let mut indeg2 = indeg.clone();
        let mut seen = HashSet::new();
        while let Some(nd) = queue.pop_front() {
            if !seen.insert(nd) {
                continue;
            }
            order.push(nd);
            for (t, _, _) in succ.get(&nd).cloned().unwrap_or_default() {
                let d = indeg2.get_mut(&t).expect("node known");
                *d = d.saturating_sub(1);
                if *d == 0 {
                    queue.push_back(t);
                }
            }
        }
        // Any unprocessed nodes (irreducible leftovers) appended for a
        // best-effort pass.
        let mut rest: Vec<BlockId> = indeg
            .keys()
            .filter(|b| !seen.contains(b))
            .copied()
            .collect();
        rest.sort();
        order.extend(rest);
    }

    for nd in order {
        let flow = inflow.get(&nd).cloned().unwrap_or_else(SymExpr::zero);
        if let Some(&child) = owner.get(&nd) {
            // Supernode for a child loop.
            let l = &loops[child];
            let trip = trips.get(&l.header).cloned().unwrap_or_else(SymExpr::zero);
            let body_flow = flow.mul(&trip, dict);
            propagate_counts(
                dict,
                f,
                loops,
                trips,
                freqs,
                Some(child),
                &l.body,
                l.header,
                body_flow,
                out,
            );
            // The header runs once more than the body per entry (the
            // final, failing loop test).
            let h = out
                .block_counts
                .entry(l.header)
                .or_insert_with(SymExpr::zero);
            *h = h.add(&flow);
            // Exit edges: total outflow equals the inflow (each entry
            // leaves once). Attribute it to the primary exit (the
            // header's exit edge when present, else the first exit edge
            // in deterministic order).
            let mut exits: Vec<(BlockId, BlockId)> = Vec::new();
            for &b in &l.body {
                for s in f.block(b).term.successors() {
                    if !l.body.contains(&s) && members.contains(&s) {
                        exits.push((b, s));
                    }
                }
            }
            exits.sort();
            let primary = exits
                .iter()
                .find(|(b, _)| *b == l.header)
                .or_else(|| exits.first())
                .copied();
            if let Some((b, s)) = primary {
                let e = out.edge_counts.entry((b, s)).or_insert_with(SymExpr::zero);
                *e = e.add(&flow);
                let t = node_of(s);
                let fl = inflow.entry(t).or_insert_with(SymExpr::zero);
                *fl = fl.add(&flow);
            }
        } else {
            // Plain block.
            let e = out.block_counts.entry(nd).or_insert_with(SymExpr::zero);
            *e = e.add(&flow);
            // Distribute to successors.
            let term = &f.block(nd).term;
            let all_succs = term.successors();
            let in_region: Vec<BlockId> = all_succs
                .iter()
                .copied()
                .filter(|s| members.contains(s) && *s != entry)
                .collect();
            // Record back edges to the region entry with the full or
            // partial flow (needed for inter-task transfer counts).
            for s in &all_succs {
                if *s == entry && members.contains(s) {
                    let share = match term {
                        Terminator::Branch { then, .. } if in_region.len() == 1 => {
                            // One side stays in region: the back edge gets
                            // the complementary share; approximate by the
                            // full flow when no frequency is known.
                            let _ = then;
                            flow.clone()
                        }
                        _ => flow.clone(),
                    };
                    let e = out
                        .edge_counts
                        .entry((nd, *s))
                        .or_insert_with(SymExpr::zero);
                    *e = e.add(&share);
                }
            }
            match term {
                Terminator::Branch {
                    then, otherwise, ..
                } if in_region.len() == 2 => {
                    let beta = freqs
                        .get(&nd)
                        .cloned()
                        .unwrap_or_else(|| SymExpr::constant(Rational::new(1, 2)));
                    let then_flow = flow.mul(&beta, dict);
                    let else_flow = flow.sub(&then_flow);
                    for (s, fl) in [(*then, then_flow), (*otherwise, else_flow)] {
                        let e = out.edge_counts.entry((nd, s)).or_insert_with(SymExpr::zero);
                        *e = e.add(&fl);
                        let t = node_of(s);
                        let entry_fl = inflow.entry(t).or_insert_with(SymExpr::zero);
                        *entry_fl = entry_fl.add(&fl);
                    }
                }
                _ => {
                    // Goto, Return, or a branch with one in-region target:
                    // the in-region target(s) receive the full flow.
                    for s in in_region {
                        let e = out.edge_counts.entry((nd, s)).or_insert_with(SymExpr::zero);
                        *e = e.add(&flow);
                        let t = node_of(s);
                        let entry_fl = inflow.entry(t).or_insert_with(SymExpr::zero);
                        *entry_fl = entry_fl.add(&flow);
                    }
                }
            }
        }
    }
}
