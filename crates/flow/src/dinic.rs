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
    /// Flow on each arc, in insertion order.
    pub arc_flow: Vec<Rational>,
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

/// Residual representation: paired forward/backward edges.
#[derive(Debug, Clone)]
struct Edge {
    to: usize,
    cap: Option<Rational>, // residual; None = infinite
    paired: usize,
}

/// A reusable Dinic max-flow solver.
///
/// Owns the graph structure (adjacency lists, paired residual edges) and
/// all per-solve scratch state (BFS levels, DFS edge iterators, the
/// reachability stack). [`DinicSolver::solve`] resets residuals from the
/// declared capacities and runs — so solving the same structure at a new
/// set of capacities ([`DinicSolver::set_capacity`]) performs **zero**
/// graph construction and no per-solve vector allocation beyond the
/// returned [`MaxFlow`].
#[derive(Debug, Clone)]
pub struct DinicSolver {
    nodes: usize,
    source: usize,
    sink: usize,
    /// Declared capacity per arc (the reset source).
    caps: Vec<Capacity>,
    /// Arc endpoints, in insertion order.
    ends: Vec<(usize, usize)>,
    /// node -> incident residual-edge ids.
    graph: Vec<Vec<usize>>,
    edges: Vec<Edge>,
    /// arc index -> forward residual-edge id.
    fwd_index: Vec<usize>,
    // ---- scratch ----
    level: Vec<usize>,
    iter: Vec<usize>,
    seen: Vec<bool>,
    stack: Vec<usize>,
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
            ends: Vec::new(),
            graph: vec![Vec::new(); nodes],
            edges: Vec::new(),
            fwd_index: Vec::new(),
            level: vec![usize::MAX; nodes],
            iter: vec![0; nodes],
            seen: vec![false; nodes],
            stack: Vec::new(),
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
        let fi = self.edges.len();
        self.edges.push(Edge {
            to,
            cap: None,
            paired: fi + 1,
        });
        self.graph[from].push(fi);
        self.edges.push(Edge {
            to: from,
            cap: Some(Rational::zero()),
            paired: fi,
        });
        self.graph[to].push(fi + 1);
        self.fwd_index.push(fi);
        self.ends.push((from, to));
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

    /// Unboundedness check: an s-t path using only infinite arcs. Reuses
    /// the `seen`/`stack` scratch buffers.
    fn has_infinite_path(&mut self) -> bool {
        self.seen.iter_mut().for_each(|s| *s = false);
        self.stack.clear();
        self.stack.push(self.source);
        self.seen[self.source] = true;
        while let Some(n) = self.stack.pop() {
            if n == self.sink {
                return true;
            }
            for &ei in &self.graph[n] {
                // Forward edges are even ids; infinite arcs have no
                // residual bound once reset, but here we consult the
                // *declared* capacities so the check is valid pre-reset.
                if ei % 2 != 0 {
                    continue;
                }
                let arc = ei / 2;
                if matches!(self.caps[arc], Capacity::Infinite) {
                    let to = self.edges[ei].to;
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
            let fi = self.fwd_index[arc];
            self.edges[fi].cap = cap.as_finite().cloned();
            if matches!(cap, Capacity::Infinite) {
                self.edges[fi].cap = None;
            }
            self.edges[fi + 1].cap = Some(Rational::zero());
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
        if self.has_infinite_path() {
            return Err(UnboundedFlow);
        }
        self.reset_residuals();

        let positive = |cap: &Option<Rational>| match cap {
            None => true,
            Some(r) => r.is_positive(),
        };

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
                for &ei in &self.graph[n] {
                    let e = &self.edges[ei];
                    if positive(&e.cap) && self.level[e.to] == usize::MAX {
                        self.level[e.to] = self.level[n] + 1;
                        self.stack.push(e.to);
                    }
                }
            }
            if self.level[self.sink] == usize::MAX {
                break;
            }
            *phases += 1;
            // Blocking flow via iterative DFS with edge iterators.
            self.iter.iter_mut().for_each(|i| *i = 0);
            loop {
                // Find one augmenting path.
                let mut path: Vec<usize> = Vec::new(); // edge ids
                let mut node = self.source;
                let found = loop {
                    if node == self.sink {
                        break true;
                    }
                    let mut advanced = false;
                    while self.iter[node] < self.graph[node].len() {
                        let ei = self.graph[node][self.iter[node]];
                        let e = &self.edges[ei];
                        if positive(&e.cap) && self.level[e.to] == self.level[node] + 1 {
                            path.push(ei);
                            node = e.to;
                            advanced = true;
                            break;
                        }
                        self.iter[node] += 1;
                    }
                    if advanced {
                        continue;
                    }
                    // Dead end: retreat.
                    match path.pop() {
                        None => break false,
                        Some(ei) => {
                            // The edge we came through is exhausted at its
                            // tail; advance the tail's iterator.
                            let tail = self.edges[self.edges[ei].paired].to;
                            self.iter[tail] += 1;
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
                let mut bottleneck: Option<Rational> = None;
                for &ei in &path {
                    if let Some(c) = &self.edges[ei].cap {
                        bottleneck = Some(match bottleneck {
                            None => c.clone(),
                            Some(b) if c < &b => c.clone(),
                            Some(b) => b,
                        });
                    }
                }
                let Some(b) = bottleneck else {
                    return Err(UnboundedFlow);
                };
                debug_assert!(b.is_positive());
                for &ei in &path {
                    if let Some(c) = &mut self.edges[ei].cap {
                        *c = &*c - &b;
                    }
                    let pi = self.edges[ei].paired;
                    if let Some(c) = &mut self.edges[pi].cap {
                        *c = &*c + &b;
                    }
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
            for &ei in &self.graph[n] {
                let e = &self.edges[ei];
                if positive(&e.cap) && !source_side[e.to] {
                    source_side[e.to] = true;
                    self.stack.push(e.to);
                }
            }
        }

        // Per-arc flow = original cap - residual (for finite); for
        // infinite arcs the reverse edge's residual is the flow (reverse
        // residuals start at zero and only grow by finite bottlenecks, so
        // they are always finite).
        let arc_flow = self
            .caps
            .iter()
            .zip(&self.fwd_index)
            .map(|(c, &fi)| match (c.as_finite(), &self.edges[fi].cap) {
                (Some(orig), Some(resid)) => orig - resid,
                _ => self.edges[self.edges[fi].paired]
                    .cap
                    .clone()
                    .unwrap_or_else(Rational::zero),
            })
            .collect();

        Ok(MaxFlow {
            value: total,
            arc_flow,
            source_side,
        })
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
        let mf = n.max_flow().unwrap();
        for node in 1..4 {
            let inflow: Rational = n
                .arcs()
                .iter()
                .zip(&mf.arc_flow)
                .filter(|((_, t, _), _)| *t == node)
                .map(|(_, fl)| fl.clone())
                .fold(Rational::zero(), |a, b| &a + &b);
            let outflow: Rational = n
                .arcs()
                .iter()
                .zip(&mf.arc_flow)
                .filter(|((f, _, _), _)| *f == node)
                .map(|(_, fl)| fl.clone())
                .fold(Rational::zero(), |a, b| &a + &b);
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
            let fresh = fresh_net.max_flow().unwrap();
            assert_eq!(reused.value, fresh.value, "c={c}");
            assert_eq!(reused.source_side, fresh.source_side, "c={c}");
            assert_eq!(reused.arc_flow, fresh.arc_flow, "c={c}");
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
