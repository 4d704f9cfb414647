//! Exact max-flow / min-cut over rational capacities (Dinic's algorithm).
//!
//! Capacities may be infinite (the paper's encoding of hard constraints:
//! an infinite arc can never be cut). Dinic's bound of `O(V²E)` phases is
//! independent of capacity magnitudes, so exact rationals are safe.
//!
//! Two entry points:
//!
//! * [`FlowNetwork::max_flow`] — one-shot convenience (builds a solver,
//!   solves, discards);
//! * [`DinicSolver`] — a reusable solver that owns its adjacency, edge and
//!   level/iterator scratch buffers. Repeated solves after capacity
//!   updates ([`DinicSolver::set_capacity`]) pay only the residual reset,
//!   never graph reconstruction — the workhorse of the parametric
//!   region-exploration engine, which re-solves the same network at
//!   thousands of parameter points.

use offload_poly::Rational;
use std::fmt;

/// A capacity: a non-negative rational or `+∞`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Capacity {
    /// Finite capacity (non-negative).
    Finite(Rational),
    /// Infinite capacity (uncuttable constraint arc).
    Infinite,
}

impl Capacity {
    /// Finite zero.
    pub fn zero() -> Self {
        Capacity::Finite(Rational::zero())
    }

    /// Returns the finite value, if any.
    pub fn as_finite(&self) -> Option<&Rational> {
        match self {
            Capacity::Finite(r) => Some(r),
            Capacity::Infinite => None,
        }
    }

    /// Capacity addition (`∞ + x = ∞`).
    pub fn add(&self, other: &Capacity) -> Capacity {
        match (self, other) {
            (Capacity::Finite(a), Capacity::Finite(b)) => Capacity::Finite(a + b),
            _ => Capacity::Infinite,
        }
    }
}

impl fmt::Display for Capacity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Capacity::Finite(r) => write!(f, "{r}"),
            Capacity::Infinite => write!(f, "inf"),
        }
    }
}

/// A directed flow network with a single source and sink.
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    nodes: usize,
    /// `(from, to, capacity)`.
    arcs: Vec<(usize, usize, Capacity)>,
    source: usize,
    sink: usize,
}

/// Result of a max-flow computation.
#[derive(Debug, Clone)]
pub struct MaxFlow {
    /// Value of the maximum flow (= the minimum cut).
    pub value: Rational,
    /// `true` for nodes on the source side of the minimum cut (reachable
    /// in the residual graph).
    pub source_side: Vec<bool>,
}

/// Error returned when the maximum flow is unbounded (an all-infinite
/// augmenting path exists).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnboundedFlow;

impl fmt::Display for UnboundedFlow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "maximum flow is unbounded (an all-infinite s-t path exists)"
        )
    }
}
impl std::error::Error for UnboundedFlow {}

impl FlowNetwork {
    /// Creates a network with `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `source == sink` or either is out of range.
    pub fn new(nodes: usize, source: usize, sink: usize) -> Self {
        assert!(source < nodes && sink < nodes && source != sink);
        FlowNetwork {
            nodes,
            arcs: Vec::new(),
            source,
            sink,
        }
    }

    /// Adds an arc; returns its index.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints or a negative finite capacity.
    pub fn add_arc(&mut self, from: usize, to: usize, cap: Capacity) -> usize {
        assert!(from < self.nodes && to < self.nodes);
        if let Capacity::Finite(c) = &cap {
            assert!(!c.is_negative(), "negative capacity");
        }
        self.arcs.push((from, to, cap));
        self.arcs.len() - 1
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// The arcs, in insertion order.
    pub fn arcs(&self) -> &[(usize, usize, Capacity)] {
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

    /// Builds a reusable solver over this network's structure and current
    /// capacities.
    pub fn solver(&self) -> DinicSolver {
        let mut s = DinicSolver::new(self.nodes, self.source, self.sink);
        for (f, t, c) in &self.arcs {
            s.add_arc(*f, *t, c.clone());
        }
        s
    }

    /// Computes the maximum flow and the canonical minimum cut.
    ///
    /// One-shot convenience over [`FlowNetwork::solver`]; callers that
    /// re-solve with updated capacities should hold a [`DinicSolver`]
    /// instead.
    ///
    /// # Errors
    ///
    /// Returns [`UnboundedFlow`] if an all-infinite source-to-sink path
    /// exists.
    pub fn max_flow(&self) -> Result<MaxFlow, UnboundedFlow> {
        self.solver().solve()
    }
}

/// A reusable Dinic max-flow solver.
///
/// Arc `a` becomes residual edge `2a` (forward) and its pair `2a + 1`
/// (reverse), so an edge's pair is `e ^ 1`. BFS and DFS run on a flat
/// graph: every node's edges in insertion order as one slice of `adj`,
/// each edge's head, and a flag per edge that says whether residual
/// capacity is left. They never read a `Rational`; only the bottleneck
/// and the residual updates along an augmenting path do. The flat graph
/// is built at the first solve after an arc is added and reused by every
/// later solve, so solving the same structure at new capacities
/// ([`DinicSolver::set_capacity`]) costs the residual reset and the
/// search, and allocates nothing beyond the returned [`MaxFlow`].
#[derive(Debug, Clone)]
pub struct DinicSolver {
    nodes: usize,
    source: usize,
    sink: usize,
    /// Declared capacity per arc (the reset source).
    caps: Vec<Capacity>,
    /// Head of each residual edge.
    head: Vec<usize>,
    /// Node `n`'s edges are `adj[first[n]..first[n + 1]]`, in insertion
    /// order. Stale (shorter than `head`) after an `add_arc` until the
    /// next solve rebuilds it.
    first: Vec<usize>,
    adj: Vec<usize>,
    /// Residual capacity per edge; `None` is infinite.
    resid: Vec<Option<Rational>>,
    /// Whether each edge has residual capacity left (`resid` is `None`
    /// or positive).
    open: Vec<bool>,
    // ---- scratch ----
    level: Vec<usize>,
    /// Per node, the position in `adj` of the next edge the blocking-flow
    /// search tries.
    next: Vec<usize>,
    seen: Vec<bool>,
    stack: Vec<usize>,
    /// The augmenting path being built, as edge ids.
    path: Vec<usize>,
}

impl DinicSolver {
    /// Creates an empty solver with `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `source == sink` or either is out of range.
    pub fn new(nodes: usize, source: usize, sink: usize) -> Self {
        assert!(source < nodes && sink < nodes && source != sink);
        DinicSolver {
            nodes,
            source,
            sink,
            caps: Vec::new(),
            head: Vec::new(),
            first: vec![0; nodes + 1],
            adj: Vec::new(),
            resid: Vec::new(),
            open: Vec::new(),
            level: vec![usize::MAX; nodes],
            next: vec![0; nodes],
            seen: vec![false; nodes],
            stack: Vec::new(),
            path: Vec::new(),
        }
    }

    /// Adds an arc; returns its index.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints or a negative finite capacity.
    pub fn add_arc(&mut self, from: usize, to: usize, cap: Capacity) -> usize {
        assert!(from < self.nodes && to < self.nodes);
        if let Capacity::Finite(c) = &cap {
            assert!(!c.is_negative(), "negative capacity");
        }
        self.head.push(to);
        self.head.push(from);
        self.caps.push(cap);
        self.caps.len() - 1
    }

    /// Number of arcs.
    pub fn arc_count(&self) -> usize {
        self.caps.len()
    }

    /// Replaces the declared capacity of arc `arc` (takes effect on the
    /// next [`DinicSolver::solve`]).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range arc index or a negative finite capacity.
    pub fn set_capacity(&mut self, arc: usize, cap: Capacity) {
        if let Capacity::Finite(c) = &cap {
            assert!(!c.is_negative(), "negative capacity");
        }
        self.caps[arc] = cap;
    }

    /// Builds the flat adjacency if arcs were added since the last build:
    /// a counting sort of the edges by tail, which keeps each node's
    /// edges in insertion order.
    fn build_adjacency(&mut self) {
        let edges = self.head.len();
        if self.adj.len() == edges {
            return;
        }
        self.first = vec![0; self.nodes + 1];
        for e in 0..edges {
            self.first[self.head[e ^ 1] + 1] += 1;
        }
        for n in 0..self.nodes {
            self.first[n + 1] += self.first[n];
        }
        self.adj = vec![0; edges];
        self.next.copy_from_slice(&self.first[..self.nodes]);
        for e in 0..edges {
            let tail = self.head[e ^ 1];
            self.adj[self.next[tail]] = e;
            self.next[tail] += 1;
        }
        self.resid = vec![None; edges];
        self.open = vec![false; edges];
    }

    /// Unboundedness check: an s-t path using only infinite arcs, by the
    /// *declared* capacities, so it is valid before the reset. Reuses the
    /// `seen`/`stack` scratch buffers.
    fn has_infinite_path(&mut self) -> bool {
        self.seen.iter_mut().for_each(|s| *s = false);
        self.stack.clear();
        self.stack.push(self.source);
        self.seen[self.source] = true;
        while let Some(n) = self.stack.pop() {
            if n == self.sink {
                return true;
            }
            for &e in &self.adj[self.first[n]..self.first[n + 1]] {
                // Forward edges are the even ids.
                if e % 2 == 0 && matches!(self.caps[e / 2], Capacity::Infinite) {
                    let to = self.head[e];
                    if !self.seen[to] {
                        self.seen[to] = true;
                        self.stack.push(to);
                    }
                }
            }
        }
        false
    }

    /// Resets residuals from the declared capacities.
    fn reset_residuals(&mut self) {
        for (arc, cap) in self.caps.iter().enumerate() {
            let e = 2 * arc;
            self.resid[e] = cap.as_finite().cloned();
            self.open[e] = cap.as_finite().is_none_or(Rational::is_positive);
            self.resid[e + 1] = Some(Rational::zero());
            self.open[e + 1] = false;
        }
    }

    /// Computes the maximum flow and the canonical minimum cut under the
    /// current capacities, adding its `flow_*` work to the calling
    /// thread's `offload_obs` record.
    ///
    /// # Errors
    ///
    /// Returns [`UnboundedFlow`] if an all-infinite source-to-sink path
    /// exists.
    pub fn solve(&mut self) -> Result<MaxFlow, UnboundedFlow> {
        let mut span = offload_obs::span!(
            "flow",
            "dinic_solve",
            nodes = self.nodes,
            arcs = self.caps.len(),
        );
        let (mut phases, mut augmenting_paths) = (0u64, 0u64);
        let result = self.solve_inner(&mut phases, &mut augmenting_paths);
        offload_obs::tally(|t| {
            t.flow_solves += u64::from(result.is_ok());
            t.flow_phases += phases;
            t.flow_augmenting_paths += augmenting_paths;
        });
        span.record("phases", phases);
        span.record("augmenting_paths", augmenting_paths);
        span.record("ok", result.is_ok());
        result
    }

    fn solve_inner(
        &mut self,
        phases: &mut u64,
        augmenting_paths: &mut u64,
    ) -> Result<MaxFlow, UnboundedFlow> {
        self.build_adjacency();
        if self.has_infinite_path() {
            return Err(UnboundedFlow);
        }
        self.reset_residuals();

        let mut total = Rational::zero();
        loop {
            // BFS levels (reuse the level buffer and the stack as a FIFO
            // via an explicit head index).
            self.level.iter_mut().for_each(|l| *l = usize::MAX);
            self.level[self.source] = 0;
            self.stack.clear();
            self.stack.push(self.source);
            let mut head = 0;
            while head < self.stack.len() {
                let n = self.stack[head];
                head += 1;
                for &e in &self.adj[self.first[n]..self.first[n + 1]] {
                    let to = self.head[e];
                    if self.open[e] && self.level[to] == usize::MAX {
                        self.level[to] = self.level[n] + 1;
                        self.stack.push(to);
                    }
                }
            }
            if self.level[self.sink] == usize::MAX {
                break;
            }
            *phases += 1;
            // Blocking flow via iterative DFS with edge iterators.
            self.next.copy_from_slice(&self.first[..self.nodes]);
            loop {
                // Find one augmenting path.
                self.path.clear();
                let mut node = self.source;
                let found = loop {
                    if node == self.sink {
                        break true;
                    }
                    let mut advanced = false;
                    while self.next[node] < self.first[node + 1] {
                        let e = self.adj[self.next[node]];
                        let to = self.head[e];
                        if self.open[e] && self.level[to] == self.level[node] + 1 {
                            self.path.push(e);
                            node = to;
                            advanced = true;
                            break;
                        }
                        self.next[node] += 1;
                    }
                    if advanced {
                        continue;
                    }
                    // Dead end: retreat.
                    match self.path.pop() {
                        None => break false,
                        Some(e) => {
                            // The edge we came through is exhausted at its
                            // tail; advance the tail's iterator.
                            let tail = self.head[e ^ 1];
                            self.next[tail] += 1;
                            node = tail;
                        }
                    }
                };
                if !found {
                    break;
                }
                // Bottleneck. A path of only infinite residuals would mean
                // the upfront infinite-path check missed one — report the
                // unboundedness instead of panicking.
                let mut bottleneck: Option<&Rational> = None;
                for &e in &self.path {
                    if let Some(c) = &self.resid[e] {
                        if bottleneck.is_none_or(|b| c < b) {
                            bottleneck = Some(c);
                        }
                    }
                }
                let Some(b) = bottleneck.cloned() else {
                    return Err(UnboundedFlow);
                };
                debug_assert!(b.is_positive());
                for &e in &self.path {
                    if let Some(c) = &mut self.resid[e] {
                        *c -= &b;
                        self.open[e] = c.is_positive();
                    }
                    // Reverse residuals start at zero and only grow by
                    // finite bottlenecks; forward ones stay infinite.
                    if let Some(c) = &mut self.resid[e ^ 1] {
                        *c += &b;
                    }
                    self.open[e ^ 1] = true;
                }
                *augmenting_paths += 1;
                total += &b;
            }
        }

        // Min cut: residual reachability from the source.
        let mut source_side = vec![false; self.nodes];
        source_side[self.source] = true;
        self.stack.clear();
        self.stack.push(self.source);
        while let Some(n) = self.stack.pop() {
            for &e in &self.adj[self.first[n]..self.first[n + 1]] {
                let to = self.head[e];
                if self.open[e] && !source_side[to] {
                    source_side[to] = true;
                    self.stack.push(to);
                }
            }
        }

        Ok(MaxFlow {
            value: total,
            source_side,
        })
    }

    /// Flow on arc `arc` after the last solve: the declared capacity
    /// minus the forward residual, or, for an infinite arc, the reverse
    /// residual (always finite).
    #[cfg(test)]
    fn arc_flow(&self, arc: usize) -> Rational {
        match (self.caps[arc].as_finite(), &self.resid[2 * arc]) {
            (Some(cap), Some(resid)) => cap - resid,
            _ => self.resid[2 * arc + 1]
                .clone()
                .unwrap_or_else(Rational::zero),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64) -> Rational {
        Rational::from(n)
    }

    fn fin(n: i64) -> Capacity {
        Capacity::Finite(r(n))
    }

    #[test]
    fn single_arc() {
        let mut n = FlowNetwork::new(2, 0, 1);
        n.add_arc(0, 1, fin(5));
        let mf = n.max_flow().unwrap();
        assert_eq!(mf.value, r(5));
        assert!(mf.source_side[0] && !mf.source_side[1]);
    }

    #[test]
    fn classic_diamond() {
        // s -> a (3), s -> b (2), a -> t (2), b -> t (3), a -> b (5)
        let mut n = FlowNetwork::new(4, 0, 3);
        n.add_arc(0, 1, fin(3));
        n.add_arc(0, 2, fin(2));
        n.add_arc(1, 3, fin(2));
        n.add_arc(2, 3, fin(3));
        n.add_arc(1, 2, fin(5));
        let mf = n.max_flow().unwrap();
        assert_eq!(mf.value, r(5));
    }

    #[test]
    fn rational_capacities() {
        let mut n = FlowNetwork::new(3, 0, 2);
        n.add_arc(0, 1, Capacity::Finite(Rational::new(1, 3)));
        n.add_arc(1, 2, Capacity::Finite(Rational::new(1, 2)));
        let mf = n.max_flow().unwrap();
        assert_eq!(mf.value, Rational::new(1, 3));
    }

    #[test]
    fn infinite_arcs_route_around() {
        // s -> a (inf), a -> t (4): flow 4; cut at a -> t.
        let mut n = FlowNetwork::new(3, 0, 2);
        n.add_arc(0, 1, Capacity::Infinite);
        n.add_arc(1, 2, fin(4));
        let mf = n.max_flow().unwrap();
        assert_eq!(mf.value, r(4));
        assert!(mf.source_side[1], "infinite arc is never cut");
    }

    #[test]
    fn unbounded_detected() {
        let mut n = FlowNetwork::new(3, 0, 2);
        n.add_arc(0, 1, Capacity::Infinite);
        n.add_arc(1, 2, Capacity::Infinite);
        assert!(matches!(n.max_flow(), Err(UnboundedFlow)));
    }

    #[test]
    fn min_cut_equals_max_flow() {
        // Random-ish fixed graph; verify cut value equals flow value.
        let mut n = FlowNetwork::new(6, 0, 5);
        let caps = [
            (0, 1, 7),
            (0, 2, 4),
            (1, 3, 5),
            (2, 3, 3),
            (2, 4, 2),
            (3, 5, 8),
            (4, 5, 3),
            (1, 4, 2),
        ];
        for (f, t, c) in caps {
            n.add_arc(f, t, fin(c));
        }
        let mf = n.max_flow().unwrap();
        let cut_value: Rational = n
            .arcs()
            .iter()
            .filter(|(f, t, _)| mf.source_side[*f] && !mf.source_side[*t])
            .map(|(_, _, c)| c.as_finite().unwrap().clone())
            .fold(Rational::zero(), |a, b| &a + &b);
        assert_eq!(mf.value, cut_value);
    }

    #[test]
    fn flow_conservation() {
        let mut n = FlowNetwork::new(5, 0, 4);
        for (f, t, c) in [
            (0, 1, 4),
            (0, 2, 3),
            (1, 3, 3),
            (2, 3, 5),
            (3, 4, 6),
            (1, 2, 1),
        ] {
            n.add_arc(f, t, fin(c));
        }
        let mut solver = n.solver();
        solver.solve().unwrap();
        let flow_where = |keep: &dyn Fn(usize, usize) -> bool| -> Rational {
            n.arcs()
                .iter()
                .enumerate()
                .filter(|(_, (f, t, _))| keep(*f, *t))
                .map(|(i, _)| solver.arc_flow(i))
                .fold(Rational::zero(), |a, b| &a + &b)
        };
        for node in 1..4 {
            let inflow = flow_where(&|_, t| t == node);
            let outflow = flow_where(&|f, _| f == node);
            assert_eq!(inflow, outflow, "conservation at {node}");
        }
    }

    #[test]
    fn zero_capacity_graph() {
        let mut n = FlowNetwork::new(2, 0, 1);
        n.add_arc(0, 1, Capacity::zero());
        let mf = n.max_flow().unwrap();
        assert_eq!(mf.value, Rational::zero());
    }

    #[test]
    fn resolve_after_capacity_update() {
        // The same solver, re-solved at three capacity settings, matches
        // fresh one-shot solves exactly (values and cut sides).
        let mut n = FlowNetwork::new(3, 0, 2);
        n.add_arc(0, 1, fin(2));
        n.add_arc(1, 2, fin(5));
        let mut solver = n.solver();
        for c in [1i64, 4, 9] {
            solver.set_capacity(0, fin(c));
            let (reused, st) = offload_obs::tallied(|| solver.solve().unwrap());
            let mut fresh_net = FlowNetwork::new(3, 0, 2);
            fresh_net.add_arc(0, 1, fin(c));
            fresh_net.add_arc(1, 2, fin(5));
            let mut fresh_solver = fresh_net.solver();
            let fresh = fresh_solver.solve().unwrap();
            assert_eq!(reused.value, fresh.value, "c={c}");
            assert_eq!(reused.source_side, fresh.source_side, "c={c}");
            for arc in 0..2 {
                assert_eq!(
                    solver.arc_flow(arc),
                    fresh_solver.arc_flow(arc),
                    "c={c}, arc {arc}"
                );
            }
            assert_eq!(st.flow_solves, 1, "c={c}");
            assert!(
                st.flow_phases >= 1 && st.flow_augmenting_paths >= 1,
                "c={c}"
            );
        }
    }

    #[test]
    fn capacity_update_to_infinite_and_back() {
        let mut solver = DinicSolver::new(3, 0, 2);
        let a = solver.add_arc(0, 1, fin(2));
        solver.add_arc(1, 2, fin(5));
        assert_eq!(solver.solve().unwrap().value, r(2));
        solver.set_capacity(a, Capacity::Infinite);
        assert_eq!(solver.solve().unwrap().value, r(5));
        solver.set_capacity(a, fin(3));
        assert_eq!(solver.solve().unwrap().value, r(3));
        assert_eq!(solver.arc_count(), 2);
    }

    #[test]
    fn unbounded_after_update_detected() {
        let mut solver = DinicSolver::new(3, 0, 2);
        solver.add_arc(0, 1, Capacity::Infinite);
        let b = solver.add_arc(1, 2, fin(5));
        assert_eq!(solver.solve().unwrap().value, r(5));
        solver.set_capacity(b, Capacity::Infinite);
        assert!(matches!(solver.solve(), Err(UnboundedFlow)));
    }
}
