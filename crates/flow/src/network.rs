//! Parametric flow networks: arc capacities are affine functions of the
//! (linearized) run-time parameters.
//!
//! This module supplies the three operations Algorithm 2 needs:
//!
//! * [`ParamNetwork::solve_at`] — instantiate the capacities at a
//!   parameter point and find a minimum cut (step 4 of Algorithm 2);
//! * [`ParamNetwork::optimality_region`] — the set of parameter values for
//!   which a given cut stays minimal (Lemma 1): existential flow variables
//!   constrained by Theorem 2's conditions, eliminated by polyhedral
//!   projection;
//! * [`ParamNetwork::simplify`] — the §5.4 node-merging heuristic that
//!   strips the redundancy introduced by infinite constraint arcs.

use crate::dinic::{Capacity, DinicSolver, MaxFlow, UnboundedFlow};
use offload_poly::{Constraint, LinExpr, Polyhedron, ProjectionBudgetExceeded, Rational};
use std::collections::{HashMap, VecDeque};

/// A parametric capacity: an affine function of the parameters, or `+∞`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamCap {
    /// Affine capacity over the parameter space.
    Affine(LinExpr),
    /// Infinite capacity (constraint arc — never cut).
    Infinite,
}

impl ParamCap {
    /// A constant capacity in a `k`-dimensional parameter space.
    pub fn constant(k: usize, c: Rational) -> Self {
        ParamCap::Affine(LinExpr::constant(k, c))
    }

    /// Evaluates at a parameter point; a negative affine value clamps to
    /// zero.
    pub fn eval(&self, point: &[Rational]) -> Capacity {
        match self {
            ParamCap::Affine(e) => clamped(e.eval(point)),
            ParamCap::Infinite => Capacity::Infinite,
        }
    }

    /// Capacity addition.
    pub fn add(&self, other: &ParamCap) -> ParamCap {
        match (self, other) {
            (ParamCap::Affine(a), ParamCap::Affine(b)) => ParamCap::Affine(a.add(b)),
            _ => ParamCap::Infinite,
        }
    }
}

/// The capacity an affine value gives an arc: the value, or zero where it
/// is negative.
///
/// Outside the declared parameter space negative values are expected. The
/// clamp is also reached inside it: at vertices of encode's and decode's
/// dominance regions two arcs' affine capacities are negative, and there
/// the concrete min-cut sees zero while the region algebra uses the
/// unclamped affine cut value. The clamp stays until it is settled
/// whether such points are realizable parameter values (ROADMAP, "Settle
/// the clamp first").
fn clamped(v: Rational) -> Capacity {
    if v.is_negative() {
        Capacity::Finite(Rational::zero())
    } else {
        Capacity::Finite(v)
    }
}

/// An arc of a parametric network.
#[derive(Debug, Clone)]
pub struct ParamArc {
    /// Source node.
    pub from: usize,
    /// Target node.
    pub to: usize,
    /// Capacity as a function of the parameters.
    pub cap: ParamCap,
}

/// A single-source single-sink network whose arc capacities are affine in
/// the parameters.
#[derive(Debug, Clone)]
pub struct ParamNetwork {
    /// Number of parameter dimensions.
    pub params: usize,
    nodes: usize,
    arcs: Vec<ParamArc>,
    /// `(from, to)` → index in `arcs`, so parallel arcs merge without a
    /// scan.
    arc_index: HashMap<(usize, usize), usize>,
    source: usize,
    sink: usize,
}

impl ParamNetwork {
    /// Creates a network with `nodes` nodes over `params` parameter
    /// dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `source == sink` or either is out of range.
    pub fn new(params: usize, nodes: usize, source: usize, sink: usize) -> Self {
        assert!(source < nodes && sink < nodes && source != sink);
        ParamNetwork {
            params,
            nodes,
            arcs: Vec::new(),
            arc_index: HashMap::new(),
            source,
            sink,
        }
    }

    /// Adds an arc (parallel arcs are merged by capacity addition).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints or self-arcs.
    pub fn add_arc(&mut self, from: usize, to: usize, cap: ParamCap) {
        assert!(from < self.nodes && to < self.nodes);
        if from == to {
            return; // self-arcs never affect any cut
        }
        match self.arc_index.entry((from, to)) {
            std::collections::hash_map::Entry::Occupied(slot) => {
                let a = &mut self.arcs[*slot.get()];
                a.cap = a.cap.add(&cap);
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(self.arcs.len());
                self.arcs.push(ParamArc { from, to, cap });
            }
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// The arcs.
    pub fn arcs(&self) -> &[ParamArc] {
        &self.arcs
    }

    /// The source node.
    pub fn source(&self) -> usize {
        self.source
    }

    /// The sink node.
    pub fn sink(&self) -> usize {
        self.sink
    }

    /// Instantiates the network at a parameter point and computes a
    /// minimum cut.
    ///
    /// One-shot convenience over [`ParamNetwork::solver`]; callers that
    /// solve at many points (the region-exploration loop) should hold a
    /// [`ParamSolver`] instead.
    ///
    /// # Errors
    ///
    /// Returns [`UnboundedFlow`] if every cut is infinite (cannot happen
    /// for well-formed partitioning networks).
    pub fn solve_at(&self, point: &[Rational]) -> Result<MaxFlow, UnboundedFlow> {
        self.solver().solve_at(point)
    }

    /// Builds a reusable concrete solver over this network's structure.
    ///
    /// The returned [`ParamSolver`] constructs the Dinic graph **once**
    /// and sets every capacity that does not depend on the parameters;
    /// each [`ParamSolver::solve_at`] only re-evaluates the others and
    /// resets residuals.
    pub fn solver(&self) -> ParamSolver {
        let mut solver = DinicSolver::new(self.nodes, self.source, self.sink);
        let mut parametric = Vec::new();
        for (i, a) in self.arcs.iter().enumerate() {
            let cap = match &a.cap {
                ParamCap::Affine(e) if e.is_constant() => clamped(e.constant_term().clone()),
                ParamCap::Affine(e) => {
                    parametric.push((i, Sparse::of(e)));
                    Capacity::zero()
                }
                ParamCap::Infinite => Capacity::Infinite,
            };
            solver.add_arc(a.from, a.to, cap);
        }
        ParamSolver {
            params: self.params,
            parametric,
            solver,
        }
    }

    /// The cut value at a point for a given side assignment.
    pub fn cut_value_at(&self, source_side: &[bool], point: &[Rational]) -> Capacity {
        let mut total = Capacity::zero();
        for a in &self.arcs {
            if source_side[a.from] && !source_side[a.to] {
                total = total.add(&a.cap.eval(point));
            }
        }
        total
    }

    /// Computes the set of parameter values for which `source_side` is a
    /// minimum cut (Lemma 1 / formula (7)): the projection onto parameter
    /// space of the polyhedron of Theorem 2's flow constraints.
    ///
    /// The returned polyhedron is intersected with `param_space`.
    pub fn optimality_region(&self, source_side: &[bool], param_space: &Polyhedron) -> Polyhedron {
        let mut unlimited = u64::MAX;
        self.try_optimality_region(source_side, param_space, &mut unlimited)
            .expect("an unlimited row budget cannot be exceeded")
    }

    /// [`Self::optimality_region`] under a Fourier–Motzkin row budget
    /// shared across this region's component projections (see
    /// [`Polyhedron::try_eliminate_vars`]). Pathological networks whose
    /// flow-variable elimination blows up fail deterministically with a
    /// typed error instead of running unbounded.
    ///
    /// # Errors
    ///
    /// Returns [`ProjectionBudgetExceeded`] when the component
    /// projections would generate more rows than `budget` allows.
    pub fn try_optimality_region(
        &self,
        source_side: &[bool],
        param_space: &Polyhedron,
        budget: &mut u64,
    ) -> Result<Polyhedron, ProjectionBudgetExceeded> {
        assert_eq!(source_side.len(), self.nodes);
        assert_eq!(param_space.nvars(), self.params);
        let _span = offload_obs::span!(
            "flow",
            "optimality_region",
            nodes = self.nodes,
            arcs = self.arcs.len(),
        );
        let k = self.params;

        // Theorem 2 pins cut arcs: forward arcs carry exactly their
        // capacity (Opt 1), backward arcs carry zero (Opt 2). Only the
        // remaining *free* arcs (both endpoints on one side) need flow
        // variables — substituting the pinned arcs up front keeps the
        // Fourier–Motzkin projection small.
        let mut free: Vec<usize> = Vec::new();
        for (i, a) in self.arcs.iter().enumerate() {
            let fwd = source_side[a.from] && !source_side[a.to];
            let bwd = !source_side[a.from] && source_side[a.to];
            if fwd && a.cap == ParamCap::Infinite {
                // Infinite cut value: never minimal (some finite cut
                // exists in well-formed partitioning networks).
                return Ok(Polyhedron::empty(k));
            }
            if !fwd && !bwd {
                free.push(i);
            }
        }

        // The flow constraints decompose: two free-arc variables interact
        // only when they share an interior node's conservation equation.
        // Project each connected component separately (for partitioning
        // networks, validity chains of distinct data items are distinct
        // components, so each projection is tiny), then conjoin.

        // Union-find over interior nodes linked by free arcs.
        let mut parent: Vec<usize> = (0..self.nodes).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for &i in &free {
            let a = &self.arcs[i];
            if a.from != self.source
                && a.from != self.sink
                && a.to != self.source
                && a.to != self.sink
            {
                let (rf, rt) = (find(&mut parent, a.from), find(&mut parent, a.to));
                parent[rf] = rt;
            }
        }
        // Assign each free arc to the component of one of its interior
        // endpoints (arcs touching only s/t have no conservation coupling
        // and form singleton components).
        let comp_of_arc = |parent: &mut [usize], i: usize| -> usize {
            let a = &self.arcs[i];
            if a.from != self.source && a.from != self.sink {
                find(parent, a.from)
            } else if a.to != self.source && a.to != self.sink {
                find(parent, a.to)
            } else {
                self.nodes + i // isolated arc: its own component
            }
        };
        let mut components: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for &i in &free {
            let c = comp_of_arc(&mut parent, i);
            components.entry(c).or_default().push(i);
        }

        // Conservation contribution of pinned arcs at a node.
        let pinned_balance = |node: usize| -> LinExpr {
            let mut balance = LinExpr::zero(k);
            for a in &self.arcs {
                let fwd = source_side[a.from] && !source_side[a.to];
                let sign = if a.to == node {
                    Rational::one()
                } else if a.from == node {
                    Rational::from(-1)
                } else {
                    continue;
                };
                if fwd {
                    // An infinite forward arc makes the whole region empty
                    // (handled before any balance is taken); skipping here
                    // keeps the closure total instead of panicking.
                    let ParamCap::Affine(c) = &a.cap else {
                        continue;
                    };
                    balance = balance.add(&c.scale(&sign));
                }
            }
            balance
        };

        let mut result = param_space.clone();

        // Interior nodes with no incident free arc: their conservation is
        // a pure parameter constraint.
        let mut has_free: Vec<bool> = vec![false; self.nodes];
        for &i in &free {
            has_free[self.arcs[i].from] = true;
            has_free[self.arcs[i].to] = true;
        }
        for (node, free_here) in has_free.iter().enumerate() {
            if node == self.source || node == self.sink || *free_here {
                continue;
            }
            let touched = self.arcs.iter().any(|a| a.from == node || a.to == node);
            if touched {
                let b = pinned_balance(node);
                for c in Constraint::equalities(&b, &LinExpr::zero(k)) {
                    result.add(c);
                }
            }
        }

        // One projection per component. Opposite arc pairs (u→v, v→u)
        // share one *signed* flow variable `g = f_uv - f_vu ∈ [-c_vu,
        // c_uv]` — an exact transformation (any split of g into
        // non-negative parts within the capacities is feasible) that
        // halves the variable count and removes the 2-cycles that make
        // Fourier–Motzkin blow up.
        for (_, arcs) in components {
            // Pair up opposite arcs.
            let arcset: std::collections::HashMap<(usize, usize), usize> = arcs
                .iter()
                .map(|&i| ((self.arcs[i].from, self.arcs[i].to), i))
                .collect();
            let mut vars: Vec<(usize, Option<usize>)> = Vec::new(); // (fwd arc, paired rev arc)
            let mut seen: std::collections::HashSet<usize> = std::collections::HashSet::new();
            for &i in &arcs {
                if seen.contains(&i) {
                    continue;
                }
                seen.insert(i);
                let a = &self.arcs[i];
                match arcset.get(&(a.to, a.from)) {
                    Some(&j) if !seen.contains(&j) => {
                        seen.insert(j);
                        vars.push((i, Some(j)));
                    }
                    _ => vars.push((i, None)),
                }
            }

            let nv = k + vars.len();
            // Note: the parameter-space constraints are h-only — they
            // cannot affect the existence of a feasible flow, so they are
            // *not* fed into the projection (they would only bloat every
            // Fourier–Motzkin step); the result is intersected with the
            // parameter space at the end.
            let mut cs: Vec<Constraint> = Vec::new();
            let mut var_of: std::collections::HashMap<usize, (usize, Rational)> =
                std::collections::HashMap::new();
            for (j, &(fwd, rev)) in vars.iter().enumerate() {
                let v = k + j;
                var_of.insert(fwd, (v, Rational::one()));
                let g = LinExpr::var(nv, v);
                // Upper bound: g <= cap(fwd).
                if let ParamCap::Affine(c) = &self.arcs[fwd].cap {
                    cs.push(Constraint::ge(&c.extend_vars(nv), &g));
                }
                match rev {
                    None => {
                        // Plain arc: g >= 0.
                        cs.push(Constraint::ge0(g));
                    }
                    Some(r) => {
                        var_of.insert(r, (v, Rational::from(-1)));
                        // Lower bound: g >= -cap(rev).
                        match &self.arcs[r].cap {
                            ParamCap::Affine(c) => {
                                cs.push(Constraint::ge0(g.add(&c.extend_vars(nv))));
                            }
                            ParamCap::Infinite => {}
                        }
                    }
                }
            }
            // Conservation at interior nodes incident to this component.
            let mut nodes_here: std::collections::BTreeSet<usize> =
                std::collections::BTreeSet::new();
            for &i in &arcs {
                for end in [self.arcs[i].from, self.arcs[i].to] {
                    if end != self.source && end != self.sink {
                        nodes_here.insert(end);
                    }
                }
            }
            for node in nodes_here {
                let mut balance = pinned_balance(node).extend_vars(nv);
                for &i in &arcs {
                    let a = &self.arcs[i];
                    let sign = if a.to == node {
                        Rational::one()
                    } else if a.from == node {
                        Rational::from(-1)
                    } else {
                        continue;
                    };
                    let (v, orient) = &var_of[&i];
                    // A paired reverse arc contributes -g with the sign
                    // flipped (it already appears through the forward
                    // arc's variable), so skip its duplicate contribution.
                    if *orient == Rational::from(-1) {
                        continue;
                    }
                    let _ = sign;
                    // Forward orientation: +g into `to`, -g out of `from`.
                    if a.to == node {
                        balance = balance.plus_term(*v, Rational::one());
                    }
                    if a.from == node {
                        balance = balance.plus_term(*v, Rational::from(-1));
                    }
                }
                cs.extend(Constraint::equalities(&balance, &LinExpr::zero(nv)));
            }
            let poly = Polyhedron::from_constraints(nv, cs);
            let shadow = poly.try_project_to_first(k, budget)?;
            for c in shadow.constraints() {
                result.add(c.clone());
            }
        }

        Ok(result.reduce_redundancy())
    }

    /// Applies the §5.4 simplification heuristic: merges node `nj` into
    /// `ni` whenever `c(ni,nj) ≥ Σ other out-capacities of nj` and
    /// `c(nj,ni) ≥ Σ other in-capacities of nj` hold for every parameter
    /// value in `param_space` (trivially true for infinite arcs).
    ///
    /// Returns the simplified network and, for each original node, its
    /// representative in the simplified one.
    pub fn simplify(&self, param_space: &Polyhedron) -> (ParamNetwork, Vec<usize>) {
        let mut span = offload_obs::span!(
            "flow",
            "simplify",
            nodes_in = self.nodes,
            arcs_in = self.arcs.len(),
        );
        let n = self.nodes;
        // Adjacency with combined parallel capacities, kept sparse: a
        // capacity touches one or two of the parameter dimensions. Sorted
        // by neighbour, because candidate and output order must be
        // reproducible (the first qualifying absorber wins, and arc order
        // decides which of several equal min-cuts the solver reports).
        let mut out: Vec<Adj> = vec![Vec::new(); n];
        let mut inc: Vec<Adj> = vec![Vec::new(); n];
        for a in &self.arcs {
            let cap = match &a.cap {
                ParamCap::Affine(e) => SparseCap::Affine(Sparse::of(e)),
                ParamCap::Infinite => SparseCap::Infinite,
            };
            add_cap(&mut out[a.from], a.to, cap.clone());
            add_cap(&mut inc[a.to], a.from, cap);
        }
        let mut rep: Vec<usize> = (0..n).collect();
        let mut alive: Vec<bool> = vec![true; n];
        let mut queue: VecDeque<usize> = (0..n).collect();
        let mut queued: Vec<bool> = vec![true; n];
        // The parameter space is fixed for the whole call, so whether a
        // difference is non-negative on it depends on the difference
        // alone: ask the LP each distinct one once.
        let mut answers: HashMap<Sparse, bool> = HashMap::new();

        while let Some(nj) = queue.pop_front() {
            queued[nj] = false;
            if !alive[nj] || nj == self.source || nj == self.sink {
                continue;
            }
            let mut merged_into: Option<usize> = None;
            for &(ni, ref cap_ij) in &inc[nj] {
                if ni == nj || !alive[ni] {
                    continue;
                }
                let cap_ji = get(&out[nj], ni);
                let out_sum = sum_without(&out[nj], ni);
                let in_sum = sum_without(&inc[nj], ni);
                let mut ge = |a, b| provably_ge(a, b, param_space, self.params, &mut answers);
                if ge(Some(cap_ij), out_sum.as_ref()) && ge(cap_ji, in_sum.as_ref()) {
                    merged_into = Some(ni);
                    break;
                }
            }
            let Some(ni) = merged_into else { continue };
            // Merge nj into ni: redirect nj's arcs.
            alive[nj] = false;
            rep[nj] = ni;
            for (k, c) in std::mem::take(&mut out[nj]) {
                remove(&mut inc[k], nj);
                if k != ni {
                    add_cap(&mut out[ni], k, c.clone());
                    add_cap(&mut inc[k], ni, c);
                }
            }
            for (k, c) in std::mem::take(&mut inc[nj]) {
                remove(&mut out[k], nj);
                if k != ni {
                    add_cap(&mut out[k], ni, c.clone());
                    add_cap(&mut inc[ni], k, c);
                }
            }
            // Re-examine the absorber and its neighbourhood (sorted, so
            // the examination order is reproducible).
            let mut requeue: Vec<usize> = vec![ni];
            requeue.extend(out[ni].iter().map(|e| e.0));
            requeue.extend(inc[ni].iter().map(|e| e.0));
            requeue.sort_unstable();
            for r in requeue {
                if alive[r] && !queued[r] {
                    queued[r] = true;
                    queue.push_back(r);
                }
            }
        }

        // Compact.
        let find = |mut x: usize| {
            while rep[x] != x {
                x = rep[x];
            }
            x
        };
        let mut new_id = vec![usize::MAX; n];
        let mut count = 0;
        for node in 0..n {
            let r = find(node);
            if new_id[r] == usize::MAX {
                new_id[r] = count;
                count += 1;
            }
        }
        let src = new_id[find(self.source)];
        let snk = new_id[find(self.sink)];
        let mut result = ParamNetwork::new(self.params, count, src, snk);
        for (f, m) in out.iter().enumerate() {
            if !alive[f] {
                continue;
            }
            for &(t, ref cap) in m {
                let (nf, nt) = (new_id[find(f)], new_id[find(t)]);
                if nf != nt {
                    let cap = match cap {
                        SparseCap::Affine(e) => ParamCap::Affine(e.to_linexpr(self.params)),
                        SparseCap::Infinite => ParamCap::Infinite,
                    };
                    result.add_arc(nf, nt, cap);
                }
            }
        }
        let mapping: Vec<usize> = (0..n).map(|node| new_id[find(node)]).collect();
        span.record("nodes_out", result.nodes);
        span.record("arcs_out", result.arcs.len());
        (result, mapping)
    }

    /// Expands a cut on a simplified network back to this network's nodes.
    pub fn expand_cut(&self, mapping: &[usize], simplified_side: &[bool]) -> Vec<bool> {
        (0..self.nodes)
            .map(|n| simplified_side[mapping[n]])
            .collect()
    }
}

/// A reusable concrete min-cut solver for one [`ParamNetwork`].
///
/// Built once per network ([`ParamNetwork::solver`]), then driven at many
/// parameter points: each [`ParamSolver::solve_at`] evaluates the
/// capacities that depend on the parameters, from their non-zero terms,
/// into the held [`DinicSolver`] and re-solves on the already constructed
/// graph — no adjacency rebuilding, no per-point vector allocation beyond
/// the returned [`MaxFlow`]. The region-exploration engine holds one for
/// the whole solve.
#[derive(Debug, Clone)]
pub struct ParamSolver {
    params: usize,
    /// The arcs whose capacity depends on the parameters, with that
    /// capacity. Every other arc's capacity was set at construction.
    parametric: Vec<(usize, Sparse)>,
    solver: DinicSolver,
}

impl ParamSolver {
    /// Computes a minimum cut at `point`.
    ///
    /// Results are identical to [`ParamNetwork::solve_at`] on the owning
    /// network (same flow value, same canonical cut).
    ///
    /// # Errors
    ///
    /// Returns [`UnboundedFlow`] if every cut is infinite.
    ///
    /// # Panics
    ///
    /// Panics if `point` does not have one value per parameter dimension.
    pub fn solve_at(&mut self, point: &[Rational]) -> Result<MaxFlow, UnboundedFlow> {
        assert_eq!(point.len(), self.params, "point dimension mismatch");
        for (arc, e) in &self.parametric {
            self.solver.set_capacity(*arc, clamped(e.eval(point)));
        }
        self.solver.solve()
    }
}

/// An affine form `constant + Σ coeff·x_var` that stores only its
/// non-zero terms, in ascending variable order, so equal forms are
/// structurally equal and hash alike. Partitioning networks' capacities
/// touch one or two of a dozen parameter dimensions; the §5.4
/// simplification merges and compares them, and [`ParamSolver`]
/// evaluates them, in this form.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Sparse {
    terms: Vec<(usize, Rational)>,
    constant: Rational,
}

impl Sparse {
    fn of(e: &LinExpr) -> Self {
        Sparse {
            terms: e.terms().map(|(v, c)| (v, c.clone())).collect(),
            constant: e.constant_term().clone(),
        }
    }

    fn to_linexpr(&self, nvars: usize) -> LinExpr {
        let mut e = LinExpr::constant(nvars, self.constant.clone());
        for (v, c) in &self.terms {
            e.set_coeff(*v, c.clone());
        }
        e
    }

    fn zero() -> Self {
        Sparse {
            terms: Vec::new(),
            constant: Rational::zero(),
        }
    }

    /// `self + other`, or `self - other` when `negate`.
    fn combine(&self, other: &Sparse, negate: bool) -> Sparse {
        use std::cmp::Ordering;
        let (a, b) = (&self.terms, &other.terms);
        let (mut i, mut j) = (0, 0);
        let mut terms = Vec::with_capacity(a.len() + b.len());
        while i < a.len() || j < b.len() {
            let order = match (a.get(i), b.get(j)) {
                (Some(x), Some(y)) => x.0.cmp(&y.0),
                (Some(_), None) => Ordering::Less,
                _ => Ordering::Greater,
            };
            let (var, coeff) = match order {
                Ordering::Less => (a[i].0, a[i].1.clone()),
                Ordering::Greater if negate => (b[j].0, -&b[j].1),
                Ordering::Greater => (b[j].0, b[j].1.clone()),
                Ordering::Equal if negate => (a[i].0, &a[i].1 - &b[j].1),
                Ordering::Equal => (a[i].0, &a[i].1 + &b[j].1),
            };
            i += usize::from(order != Ordering::Greater);
            j += usize::from(order != Ordering::Less);
            if !coeff.is_zero() {
                terms.push((var, coeff));
            }
        }
        let constant = if negate {
            &self.constant - &other.constant
        } else {
            &self.constant + &other.constant
        };
        Sparse { terms, constant }
    }

    fn eval(&self, point: &[Rational]) -> Rational {
        let mut acc = self.constant.clone();
        for (v, c) in &self.terms {
            acc += &(c * &point[*v]);
        }
        acc
    }
}

/// A capacity inside [`ParamNetwork::simplify`].
#[derive(Debug, Clone)]
enum SparseCap {
    Affine(Sparse),
    Infinite,
}

impl SparseCap {
    fn add(&self, other: &SparseCap) -> SparseCap {
        match (self, other) {
            (SparseCap::Affine(a), SparseCap::Affine(b)) => SparseCap::Affine(a.combine(b, false)),
            _ => SparseCap::Infinite,
        }
    }
}

/// One side of a node's arcs in [`ParamNetwork::simplify`]: the other
/// endpoint and the combined capacity, sorted by endpoint.
type Adj = Vec<(usize, SparseCap)>;

fn get(m: &Adj, key: usize) -> Option<&SparseCap> {
    m.binary_search_by_key(&key, |e| e.0).ok().map(|i| &m[i].1)
}

fn remove(m: &mut Adj, key: usize) {
    if let Ok(i) = m.binary_search_by_key(&key, |e| e.0) {
        m.remove(i);
    }
}

/// Adds a capacity into an adjacency entry.
fn add_cap(m: &mut Adj, key: usize, cap: SparseCap) {
    match m.binary_search_by_key(&key, |e| e.0) {
        Ok(i) => m[i].1 = m[i].1.add(&cap),
        Err(i) => m.insert(i, (key, cap)),
    }
}

/// The sum of `m`'s capacities except the one at `skip`; `None` when `m`
/// has no other arc.
fn sum_without(m: &Adj, skip: usize) -> Option<SparseCap> {
    let mut others = m.iter().filter(|e| e.0 != skip).map(|e| &e.1);
    let first = others.next()?.clone();
    Some(others.fold(first, |sum, c| sum.add(c)))
}

/// Is `a ≥ b` provable over the whole parameter region? (`None` means a
/// zero-capacity absent arc.)
///
/// Tries a fast *syntactic* sufficient condition — `a - b` has only
/// non-negative coefficients and constant, sound whenever the parameter
/// region lies in the non-negative orthant (always true for partitioning
/// networks: every linearized dimension is a product of non-negative
/// quantities) — then falls back to an exact LP over the parameter
/// region, whose answer `answers` keeps per difference. A `false` answer
/// merely skips an optional merge, so any conservatism is safe.
fn provably_ge(
    a: Option<&SparseCap>,
    b: Option<&SparseCap>,
    param_space: &Polyhedron,
    nvars: usize,
    answers: &mut HashMap<Sparse, bool>,
) -> bool {
    let diff = match (a, b) {
        (_, None) | (Some(SparseCap::Infinite), _) => return true,
        (_, Some(SparseCap::Infinite)) => return false,
        (None, Some(SparseCap::Affine(eb))) => Sparse::zero().combine(eb, true),
        (Some(SparseCap::Affine(ea)), Some(SparseCap::Affine(eb))) => ea.combine(eb, true),
    };
    if !diff.constant.is_negative() && diff.terms.iter().all(|(_, c)| c.is_positive()) {
        return true;
    }
    *answers.entry(diff).or_insert_with_key(|diff| {
        match offload_poly::lp_minimize(&diff.to_linexpr(nvars), param_space.constraints()) {
            offload_poly::LpResult::Optimal(v) => !v.is_negative(),
            offload_poly::LpResult::Infeasible => true,
            offload_poly::LpResult::Unbounded => false,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64) -> Rational {
        Rational::from(n)
    }

    /// Affine capacity `c0 + c1*x0` in a 1-parameter space.
    fn affine(c0: i64, c1: i64) -> ParamCap {
        ParamCap::Affine(LinExpr::constant(1, r(c0)).plus_term(0, r(c1)))
    }

    fn x_ge(c: i64) -> Constraint {
        Constraint::ge0(LinExpr::var(1, 0).plus_constant(r(-c)))
    }

    #[test]
    fn solve_at_instantiates() {
        // s -> a: 2 + x, a -> t: 5. At x=1 min cut = 3 (cut s->a); at
        // x=10 min cut = 5 (cut a->t).
        let mut n = ParamNetwork::new(1, 3, 0, 2);
        n.add_arc(0, 1, affine(2, 1));
        n.add_arc(1, 2, affine(5, 0));
        let mf = n.solve_at(&[r(1)]).unwrap();
        assert_eq!(mf.value, r(3));
        assert!(!mf.source_side[1]);
        let mf = n.solve_at(&[r(10)]).unwrap();
        assert_eq!(mf.value, r(5));
        assert!(mf.source_side[1]);
    }

    #[test]
    fn optimality_region_two_cuts() {
        // Same network: cut {s} optimal iff 2 + x <= 5, i.e. x <= 3.
        let mut n = ParamNetwork::new(1, 3, 0, 2);
        n.add_arc(0, 1, affine(2, 1));
        n.add_arc(1, 2, affine(5, 0));
        let space = Polyhedron::from_constraints(1, vec![x_ge(0)]);
        let region_a = n.optimality_region(&[true, false, false], &space);
        assert!(region_a.contains(&[r(0)]));
        assert!(region_a.contains(&[r(3)]));
        assert!(!region_a.contains(&[r(4)]));
        let region_b = n.optimality_region(&[true, true, false], &space);
        assert!(
            region_b.contains(&[r(3)]),
            "tie at x = 3: both cuts minimal"
        );
        assert!(region_b.contains(&[r(10)]));
        assert!(!region_b.contains(&[r(1)]));
    }

    #[test]
    fn optimality_region_infinite_forward_arc_is_empty() {
        let mut n = ParamNetwork::new(1, 3, 0, 2);
        n.add_arc(0, 1, ParamCap::Infinite);
        n.add_arc(1, 2, affine(5, 0));
        let space = Polyhedron::universe(1);
        let region = n.optimality_region(&[true, false, false], &space);
        assert!(region.is_empty());
    }

    #[test]
    fn simplify_merges_infinite_chains() {
        // s -> a (inf), a's only other arcs are small: a merges into s.
        let mut n = ParamNetwork::new(1, 4, 0, 3);
        n.add_arc(0, 1, ParamCap::Infinite);
        n.add_arc(1, 2, affine(1, 0));
        n.add_arc(2, 3, affine(7, 0));
        let space = Polyhedron::from_constraints(1, vec![x_ge(0)]);
        let (simplified, mapping) = n.simplify(&space);
        assert!(simplified.node_count() < 4, "at least one merge happened");
        // Semantics preserved: same min-cut value at sample points.
        for x in [0i64, 5, 100] {
            let v1 = n.solve_at(&[r(x)]).unwrap().value;
            let v2 = simplified.solve_at(&[r(x)]).unwrap().value;
            assert_eq!(v1, v2, "at x={x}");
        }
        assert_eq!(mapping.len(), 4);
    }

    #[test]
    fn simplify_preserves_parametric_cuts() {
        // Figure 6-like mini network with parameter-dependent optimum.
        let mut n = ParamNetwork::new(1, 4, 0, 3);
        n.add_arc(0, 1, affine(0, 2)); // 2x
        n.add_arc(1, 2, affine(3, 0));
        n.add_arc(2, 3, affine(0, 1)); // x
        n.add_arc(0, 2, affine(1, 0));
        let space = Polyhedron::from_constraints(1, vec![x_ge(0)]);
        let (simplified, _) = n.simplify(&space);
        for x in [0i64, 1, 2, 3, 10] {
            assert_eq!(
                n.solve_at(&[r(x)]).unwrap().value,
                simplified.solve_at(&[r(x)]).unwrap().value,
                "at x={x}"
            );
        }
    }

    #[test]
    fn parallel_arcs_merge() {
        let mut n = ParamNetwork::new(1, 2, 0, 1);
        n.add_arc(0, 1, affine(1, 0));
        n.add_arc(0, 1, affine(2, 1));
        assert_eq!(n.arcs().len(), 1);
        assert_eq!(n.solve_at(&[r(2)]).unwrap().value, r(5));
    }

    #[test]
    fn sampled_region_points_are_really_optimal() {
        // Cross-check optimality_region against direct solving on a grid.
        let mut n = ParamNetwork::new(1, 4, 0, 3);
        n.add_arc(0, 1, affine(4, 0));
        n.add_arc(0, 2, affine(0, 1));
        n.add_arc(1, 3, affine(0, 2));
        n.add_arc(2, 3, affine(6, 0));
        n.add_arc(1, 2, affine(1, 0));
        let space = Polyhedron::from_constraints(1, vec![x_ge(0)]);
        for x in 0..12i64 {
            let point = [r(x)];
            let mf = n.solve_at(&point).unwrap();
            let region = n.optimality_region(&mf.source_side, &space);
            assert!(
                region.contains(&point),
                "cut found at x={x} must be optimal at x={x}"
            );
            // And the region only contains points where this cut's value
            // matches the true minimum.
            for y in 0..12i64 {
                let q = [r(y)];
                if region.contains(&q) {
                    let best = n.solve_at(&q).unwrap().value;
                    let this = match n.cut_value_at(&mf.source_side, &q) {
                        Capacity::Finite(v) => v,
                        Capacity::Infinite => panic!("finite cut"),
                    };
                    assert_eq!(this, best, "x={x} region claims y={y}");
                }
            }
        }
    }
}
