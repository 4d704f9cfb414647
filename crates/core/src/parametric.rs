//! Algorithm 2: the parametric min-cut solver — the region-exploration
//! engine.
//!
//! Starting from the declared parameter region `X`, repeatedly: sample a
//! point `h ∈ X`, solve the concrete min-cut at `h`, compute the full
//! polyhedral region `H` where that cut stays minimal (Lemma 1, via
//! flow-variable elimination), record the pair `(P, H ∩ X)` and shrink
//! `X ← X \ H`. The §5.4 simplification heuristic runs first so the
//! Lemma-1 projection works on a small network; the §5.2 degeneracy
//! reduction merges choices whose assigned regions are covered by another
//! choice's full optimality region.
//!
//! The engine drains `X` as a **worklist of disjoint convex pieces**, one
//! round at a time on the calling thread: each piece of `X` as the round
//! found it is sampled in piece order, skipped when a region accepted
//! earlier in the round already covers the sample point, and otherwise
//! min-cut solved, Lemma-1 projected and accepted.

use crate::netbuild::{PartitionNetwork, Term};
use offload_flow::{Capacity, MaxFlow, ParamNetwork, UnboundedFlow};
use offload_obs::Level;
use offload_poly::{Constraint, Polyhedron, Rational, Region};
use offload_tcfg::{TaskId, Tcfg};
use std::fmt;
use std::time::Instant;

/// Direction of a data transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Client to server.
    ClientToServer,
    /// Server to client.
    ServerToClient,
}

/// One partitioning choice: a task assignment plus its parameter region.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    /// `true` = the task runs on the server.
    pub server_tasks: Vec<bool>,
    /// Planned eager transfers per TCFG edge index: `(item index,
    /// direction)` pairs, derived from the validity states of the cut.
    pub transfers: Vec<Vec<(u32, Direction)>>,
    /// The sub-region of the declared space assigned to this choice
    /// (choices' regions are pairwise disjoint and cover the space).
    pub region: Region,
    /// The full optimality region of the cut (may overlap other choices').
    pub full_region: Polyhedron,
    /// Raw node sides on the *full* (unsimplified) network.
    pub cut: Vec<bool>,
}

impl Partition {
    /// `true` if every task runs on the client (no offloading).
    pub fn is_all_local(&self) -> bool {
        self.server_tasks.iter().all(|&s| !s)
    }

    /// Tasks assigned to the server.
    pub fn server_task_ids(&self) -> Vec<TaskId> {
        self.server_tasks
            .iter()
            .enumerate()
            .filter(|(_, &s)| s)
            .map(|(i, _)| TaskId(i as u32))
            .collect()
    }
}

/// What to execute: the single plan vocabulary shared by the simulator
/// (`offload_runtime`), the TCP engine (`offload-net`) and the experiment
/// harness (`offload-bench`).
///
/// `Remote` names a partitioning choice by index without borrowing it, so
/// it can travel through configuration and over the wire; call
/// [`Plan::resolve`] against the [`ParametricPartition`] before handing it
/// to an executor.
#[derive(Debug, Clone, Copy)]
pub enum Plan<'a> {
    /// Everything on the client (the paper's normalization baseline).
    AllLocal,
    /// Run under a specific partitioning choice.
    Partitioned(&'a Partition),
    /// Partitioning choice `i` of the analysis (an index into
    /// [`ParametricPartition::choices`]), not yet resolved to a borrow.
    Remote(usize),
}

impl<'a> Plan<'a> {
    /// Resolves [`Plan::Remote`] to [`Plan::Partitioned`] against the
    /// analysis' choice table; other variants pass through unchanged.
    ///
    /// # Panics
    ///
    /// Panics if a `Remote` index is out of range.
    pub fn resolve(self, partition: &'a ParametricPartition) -> Plan<'a> {
        match self {
            Plan::Remote(i) => Plan::Partitioned(&partition.choices[i]),
            other => other,
        }
    }

    /// `true` if this plan keeps every task on the client.
    pub fn is_all_local(&self) -> bool {
        match self {
            Plan::AllLocal => true,
            Plan::Partitioned(p) => p.is_all_local(),
            Plan::Remote(_) => false,
        }
    }
}

/// Statistics of a parametric solve.
#[derive(Debug, Clone, Default)]
pub struct SolveStats {
    /// Iterations of Algorithm 2's main loop (accepted cuts in the exact
    /// engine; refinement rounds under [`RegionStrategy::Dominance`]).
    pub iterations: usize,
    /// Network nodes before simplification.
    pub nodes_before: usize,
    /// Network nodes after §5.4 simplification.
    pub nodes_after: usize,
    /// Choices removed by the §5.2 degeneracy reduction.
    pub merged_choices: usize,
    /// Unified work counters across the flow / poly / core layers.
    pub pipeline: PipelineStats,
}

pub use offload_obs::PipelineStats;

/// The complete parametric partitioning result.
#[derive(Debug, Clone)]
pub struct ParametricPartition {
    /// Partitioning choices with their (disjoint) regions.
    pub choices: Vec<Partition>,
    /// Solve statistics.
    pub stats: SolveStats,
}

/// Errors from the parametric solver.
#[derive(Debug)]
pub enum SolveError {
    /// Every cut is infinite at some sampled point (malformed network).
    Unbounded(UnboundedFlow),
    /// More than `MAX_ITERATIONS` (64) cuts were accepted before covering
    /// the region, or a cut's region missed its own sample point
    /// (indicates a degenerate region computation).
    IterationLimit {
        /// Choices found before giving up.
        found: usize,
    },
    /// A cut's optimality-region projection exceeded
    /// `PROJECTION_BUDGET` (4 000 000) Fourier–Motzkin rows — the network's
    /// flow-variable elimination is intractable, and letting it run would
    /// effectively hang the solve. Enforced two ways: an up-front
    /// admission check against the worst-case estimate
    /// `vars × ⌈rows/2⌉²` of the post-substitution system (the trigger
    /// that matters in practice — fuzzer-found pathological programs keep
    /// hundreds of flow variables whose elimination spends hours in
    /// per-round redundancy sweeps while generating few rows), and a
    /// mid-flight count of rows actually derived. Deterministic: the same
    /// program fails (or doesn't) identically on every run.
    ProjectionBudget {
        /// Rows the offending projection generated — or, for a projection
        /// rejected up front, its worst-case admission estimate
        /// `vars × ⌈rows/2⌉²` (see
        /// [`offload_poly::ProjectionBudgetExceeded`]).
        generated: u64,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Unbounded(e) => write!(f, "{e}"),
            SolveError::IterationLimit { found } => {
                write!(f, "parameter region not covered after finding {found} cuts")
            }
            SolveError::ProjectionBudget { generated } => write!(
                f,
                "optimality-region projection exceeded the Fourier\u{2013}Motzkin row budget \
                 ({generated} rows estimated or generated)"
            ),
        }
    }
}
impl std::error::Error for SolveError {}

/// How optimality regions are computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RegionStrategy {
    /// The paper's Lemma 1: exact regions via flow-variable elimination.
    /// Exact but expensive on large networks (the paper's own analysis
    /// took 164–3482 s per benchmark).
    #[default]
    Exact,
    /// Fast heuristic: regions are defined by pairwise cut-value
    /// dominance among the cuts discovered so far, refined by probing
    /// each region for better cuts until no probe improves. Produces the
    /// same dispatch behaviour whenever the probe points expose every
    /// optimal cut; not certified exact.
    Dominance,
}

/// Fourier–Motzkin rows one optimality-region projection may cost before
/// the solve aborts with [`SolveError::ProjectionBudget`], calibrated
/// empirically: the checked-in benchmarks' projections stay under an
/// admission estimate of ~115 k and the seeded-fuzz corpus' largest
/// completing projection sits at ~1.9 M, while the smallest
/// known-pathological program (seed `0x2e94fb30ba8d3dfb`: 160
/// post-substitution flow variables over ~495 constraints, ~15 s per
/// elimination round) starts at ~9.8 M. 4 M splits the gap with ~2×
/// margin on both sides.
const PROJECTION_BUDGET: u64 = 4_000_000;

/// Safety bound on Algorithm 2 iterations (accepted cuts of the exact
/// engine).
const MAX_ITERATIONS: usize = 64;

/// Options controlling the solver.
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Apply the §5.4 network simplification before solving.
    pub simplify: bool,
    /// Apply the §5.2 degeneracy reduction afterwards.
    pub reduce_degeneracy: bool,
    /// Region computation strategy.
    pub region_strategy: RegionStrategy,
    /// Ignored: a solve runs on its calling thread. Kept so existing
    /// struct literals still compile.
    pub threads: usize,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            simplify: true,
            reduce_degeneracy: true,
            region_strategy: RegionStrategy::Exact,
            threads: 0,
        }
    }
}

/// Emits a leveled progress message as a structured `offload-obs`
/// event; the message is only formatted while recording is enabled.
fn log(level: Level, msg: impl FnOnce() -> String) {
    if offload_obs::enabled() {
        offload_obs::log_event(level, "core", msg());
    }
}

/// Runs Algorithm 2 on a partitioning network.
///
/// # Errors
///
/// Returns [`SolveError::Unbounded`] if the network admits no finite cut
/// (impossible for well-formed partitioning problems: running everything
/// on the client is always finite), or [`SolveError::IterationLimit`].
pub fn solve(
    pnet: &PartitionNetwork,
    tcfg: &Tcfg,
    n_items: usize,
    options: &SolveOptions,
) -> Result<ParametricPartition, SolveError> {
    solve_with_probes(pnet, tcfg, n_items, options, &[])
}

/// Like [`solve`], with additional caller-supplied probe points (in the
/// linearized dimension space, consistent with the monomial structure).
/// The [`RegionStrategy::Dominance`] strategy seeds its cut discovery
/// from these; the exact strategy ignores them.
///
/// # Errors
///
/// See [`solve`].
pub fn solve_with_probes(
    pnet: &PartitionNetwork,
    tcfg: &Tcfg,
    n_items: usize,
    options: &SolveOptions,
    probes: &[Vec<Rational>],
) -> Result<ParametricPartition, SolveError> {
    let mut stats = SolveStats {
        nodes_before: pnet.net.node_count(),
        ..Default::default()
    };
    let mut solve_span = offload_obs::span!(
        "parametric",
        "solve",
        nodes = pnet.net.node_count(),
        dims = pnet.dims.len(),
    );

    // This solve's own record: the engine counts rounds and timings into
    // `stats.pipeline` directly, and the flow and poly layers tally into
    // this thread's record, so concurrent solves never mix counts. The
    // §5.2 degeneracy reduction runs inside it, so its LPs are counted.
    let (result, counted) = offload_obs::tallied(|| {
        let t_simplify = Instant::now();
        let simplify_span = offload_obs::span!(
            "parametric",
            "simplify",
            enabled = options.simplify,
            nodes_in = pnet.net.node_count(),
        );
        let (snet, mapping): (ParamNetwork, Vec<usize>) = if options.simplify {
            pnet.net.simplify(&pnet.param_space)
        } else {
            (pnet.net.clone(), (0..pnet.net.node_count()).collect())
        };
        drop(simplify_span);
        stats.nodes_after = snet.node_count();
        stats.pipeline.simplify_micros = t_simplify.elapsed().as_micros() as u64;
        log(Level::Info, || {
            format!(
                "simplify {:?}: {} -> {} nodes, {} arcs, {} dims",
                t_simplify.elapsed(),
                stats.nodes_before,
                stats.nodes_after,
                snet.arcs().len(),
                pnet.dims.len(),
            )
        });

        let t_solve = Instant::now();
        let result = if options.region_strategy == RegionStrategy::Dominance {
            solve_dominance(pnet, tcfg, n_items, &snet, &mapping, probes, &mut stats)
        } else {
            explore_regions(pnet, tcfg, n_items, &snet, &mapping, &mut stats)
        };
        stats.pipeline.solve_micros = t_solve.elapsed().as_micros() as u64;
        let mut choices = result?;
        if options.region_strategy == RegionStrategy::Exact && options.reduce_degeneracy {
            stats.merged_choices = reduce_degeneracy(&mut choices);
        }
        Ok(choices)
    });
    stats.pipeline += counted;

    let choices = result?;
    log(Level::Info, || {
        format!(
            "solved: {} choices ({} merged) in {} us\n{}",
            choices.len(),
            stats.merged_choices,
            stats.pipeline.solve_micros,
            stats.pipeline,
        )
    });
    if offload_obs::enabled() {
        solve_span.record("choices", choices.len());
        solve_span.record("rounds", stats.pipeline.rounds);
    }
    stats.pipeline.publish_metrics();
    Ok(ParametricPartition { choices, stats })
}

/// The exact region-exploration engine: a round-by-round worklist over
/// the disjoint pieces of the uncovered region `X`.
///
/// Each round walks a snapshot of `X`'s pieces **in piece order**. A
/// piece whose sample point a region accepted earlier in the same round
/// already covers is skipped: the shrunken `X` re-queues whatever is left
/// of it next round. Any other piece has its concrete min-cut solved at
/// the sample point and projected to its Lemma-1 optimality region, and
/// that cut is accepted, shrinking `X`. An accepted cut is optimal only
/// inside its region, which leaves `X` (Theorem 2), so no cut is ever
/// found twice.
fn explore_regions(
    pnet: &PartitionNetwork,
    tcfg: &Tcfg,
    n_items: usize,
    snet: &ParamNetwork,
    mapping: &[usize],
    stats: &mut SolveStats,
) -> Result<Vec<Partition>, SolveError> {
    let mut solver = snet.solver();

    let mut x = Region::from(pnet.param_space.clone());
    let mut choices: Vec<Partition> = Vec::new();

    while !x.is_empty() {
        stats.pipeline.rounds += 1;
        let round = x.clone();
        let t_round = Instant::now();
        let mut round_span = offload_obs::span!(
            "parametric",
            "round",
            round = stats.pipeline.rounds,
            pieces = round.pieces().len(),
        );
        let mut accepted: Vec<Polyhedron> = Vec::new();
        for piece in round.pieces() {
            let _span = offload_obs::span!("parametric", "piece");
            // Stored pieces are non-empty, so every piece has a sample.
            let Some(point) = piece.sample() else {
                continue;
            };
            if accepted.iter().any(|full| full.contains(&point)) {
                continue;
            }
            let mf = solver.solve_at(&point).map_err(SolveError::Unbounded)?;
            // Every projection gets a fresh budget, so whether a cut's
            // region is affordable depends only on the cut.
            let mut budget = PROJECTION_BUDGET;
            let full_region = snet
                .try_optimality_region(&mf.source_side, &pnet.param_space, &mut budget)
                .map_err(|e| SolveError::ProjectionBudget {
                    generated: e.generated,
                })?;
            stats.iterations += 1;
            if stats.iterations > MAX_ITERATIONS {
                return Err(SolveError::IterationLimit {
                    found: choices.len(),
                });
            }
            if !full_region.contains(&point) {
                // Should be impossible (Theorem 2); fail fast rather than
                // loop forever.
                return Err(SolveError::IterationLimit {
                    found: choices.len(),
                });
            }
            let assigned = x.intersect(&full_region);
            x = x.subtract(&full_region);
            let cut = pnet.net.expand_cut(mapping, &mf.source_side);
            choices.push(extract_partition(
                pnet,
                tcfg,
                n_items,
                cut,
                assigned,
                full_region.clone(),
            ));
            accepted.push(full_region);
        }
        stats.pipeline.regions_explored += accepted.len() as u64;
        round_span.record("accepted", accepted.len());
        drop(round_span);
        log(Level::Debug, || {
            format!(
                "round {}: {} pieces -> {} accepted cuts ({} total) in {:?}, {} pieces left",
                stats.pipeline.rounds,
                round.pieces().len(),
                accepted.len(),
                choices.len(),
                t_round.elapsed(),
                x.pieces().len(),
            )
        });
    }
    Ok(choices)
}

/// The symbolic value of a cut: the sum of forward-arc capacities
/// (`None` when the cut severs an infinite arc).
fn cut_value_expr(net: &ParamNetwork, side: &[bool]) -> Option<offload_poly::LinExpr> {
    let mut total = offload_poly::LinExpr::zero(net.params);
    for a in net.arcs() {
        if side[a.from] && !side[a.to] {
            match &a.cap {
                offload_flow::ParamCap::Affine(e) => total = total.add(e),
                offload_flow::ParamCap::Infinite => return None,
            }
        }
    }
    Some(total)
}

/// The [`RegionStrategy::Dominance`] solver: discover cuts by probing,
/// define each cut's region by pairwise cut-value dominance (cheap affine
/// constraints — no flow-variable elimination), and iterate until no
/// probe point finds a better cut.
///
/// Each round enumerates probe points from the cut list as it stood at
/// the round's start, in a fixed order, and solves each probe's concrete
/// min-cut in that order, adopting the cuts that beat every cut adopted
/// so far.
fn solve_dominance(
    pnet: &PartitionNetwork,
    tcfg: &Tcfg,
    n_items: usize,
    snet: &ParamNetwork,
    mapping: &[usize],
    probes: &[Vec<Rational>],
    stats: &mut SolveStats,
) -> Result<Vec<Partition>, SolveError> {
    use offload_poly::Rational;
    let space = &pnet.param_space;
    let mut cuts: Vec<(Vec<bool>, offload_poly::LinExpr)> = Vec::new();

    // Adopt the concrete min-cut `mf` found at `point` if its signature
    // is new and it strictly beats every already-adopted cut at that
    // point. Callers invoke this in a fixed probe order.
    fn absorb(
        snet: &ParamNetwork,
        mf: MaxFlow,
        point: &[Rational],
        cuts: &mut Vec<(Vec<bool>, offload_poly::LinExpr)>,
    ) -> bool {
        if cuts.iter().any(|(s, _)| *s == mf.source_side) {
            return false;
        }
        let better = cuts.iter().all(|(_, e)| mf.value < e.eval(point));
        if !better && !cuts.is_empty() {
            return false;
        }
        let Some(expr) = cut_value_expr(snet, &mf.source_side) else {
            return false;
        };
        cuts.push((mf.source_side, expr));
        true
    }

    // Seed with the region's interior point and the caller's
    // parameter-consistent probe points (realistic monomial values —
    // dimension-space bumps alone would violate the product relations and
    // land outside the declared space).
    let Some(seed) = space.sample() else {
        return Ok(Vec::new());
    };
    let mut solver = snet.solver();
    let mf = solver.solve_at(&seed).map_err(SolveError::Unbounded)?;
    absorb(snet, mf, &seed, &mut cuts);
    for p in probes {
        if space.contains(p) {
            let mf = solver.solve_at(p).map_err(SolveError::Unbounded)?;
            absorb(snet, mf, p, &mut cuts);
        }
    }

    // Refinement rounds: probe each dominance region (its interior sample
    // plus scaled-out points along the diagonal) for better cuts. A round
    // that adopts no cut leaves `cuts` as its regions were built from, so
    // they are kept for the assembly below.
    let mut settled: Option<Vec<Polyhedron>> = None;
    for _round in 0..12 {
        stats.iterations += 1;
        let regions = dominance_regions(space, &cuts);
        let mut points: Vec<Vec<Rational>> = Vec::new();
        for region in &regions {
            let Some(p) = region.sample() else { continue };
            let k = p.len();
            let mut cand: Vec<Vec<Rational>> = vec![p.clone()];
            for step in [1i64, 100, 10_000, 1_000_000] {
                // Diagonal bump.
                let diag: Vec<Rational> = p.iter().map(|v| v + &Rational::from(step)).collect();
                cand.push(diag);
                // Per-dimension bumps.
                for d in 0..k {
                    let mut q = p.clone();
                    q[d] = &q[d] + &Rational::from(step);
                    cand.push(q);
                }
            }
            for q in cand {
                // Probe within this cut's claimed region (and the declared
                // space): that is exactly where a better cut would falsify
                // the region.
                if region.contains(&q) {
                    points.push(q);
                }
            }
        }
        let mut improved = false;
        for q in &points {
            let mf = solver.solve_at(q).map_err(SolveError::Unbounded)?;
            improved |= absorb(snet, mf, q, &mut cuts);
        }
        if !improved {
            settled = Some(regions);
            break;
        }
    }

    // Assemble the partitions. Choice `i` gets the points where cut `i`
    // is the first cheapest: its dominance region `full_i` with every
    // earlier cut strictly dearer. For `h ∈ full_i` and `j < i`, `h ∈
    // full_j` iff the two cuts cost the same at `h`, so this is `full_i`
    // minus every earlier `full_j`, as one polyhedron. A cut that is
    // never the first cheapest gets no choice. (Degeneracy reduction is
    // unnecessary here — dominance regions are already one-per-cut.) The
    // solver is not needed in this LP-heavy tail, where the solve's
    // memory peaks.
    drop(solver);
    let regions = settled.unwrap_or_else(|| dominance_regions(space, &cuts));
    let mut out = Vec::new();
    for (i, ((side, ei), full)) in cuts.iter().zip(regions).enumerate() {
        let mut first = full.clone();
        for (_, ej) in &cuts[..i] {
            first.add(Constraint::gt0(ej.sub(ei)));
        }
        let region = Region::from(first);
        if region.is_empty() {
            continue;
        }
        let cut = pnet.net.expand_cut(mapping, side);
        out.push(extract_partition(pnet, tcfg, n_items, cut, region, full));
    }
    stats.pipeline.regions_explored += out.len() as u64;
    return Ok(out);

    fn dominance_regions(
        space: &offload_poly::Polyhedron,
        cuts: &[(Vec<bool>, offload_poly::LinExpr)],
    ) -> Vec<offload_poly::Polyhedron> {
        cuts.iter()
            .enumerate()
            .map(|(i, (_, ei))| {
                let mut r = space.clone();
                for (j, (_, ej)) in cuts.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    // val_i <= val_j  <=>  ej - ei >= 0.
                    r.add(Constraint::ge0(ej.sub(ei)));
                }
                r.reduce_redundancy()
            })
            .collect()
    }
}

/// §5.2: drop choice `i` when another choice's full optimality region
/// covers `i`'s assigned region; the survivor absorbs the region.
fn reduce_degeneracy(choices: &mut Vec<Partition>) -> usize {
    let mut merged = 0;
    let mut i = 0;
    while i < choices.len() {
        let mut absorbed = false;
        for j in 0..choices.len() {
            if i == j {
                continue;
            }
            let covered = choices[i]
                .region
                .subtract(&choices[j].full_region)
                .is_empty();
            if covered {
                let region = std::mem::replace(&mut choices[i].region, Region::empty(0));
                choices[j].region.absorb(region);
                choices.remove(i);
                merged += 1;
                absorbed = true;
                break;
            }
        }
        if !absorbed {
            i += 1;
        }
    }
    merged
}

fn extract_partition(
    pnet: &PartitionNetwork,
    tcfg: &Tcfg,
    n_items: usize,
    cut: Vec<bool>,
    region: Region,
    full_region: Polyhedron,
) -> Partition {
    let value = |t: Term| -> Option<bool> { pnet.node(t).map(|n| cut[n]) };
    let server_tasks: Vec<bool> = (0..tcfg.tasks().len())
        .map(|i| value(Term::M(TaskId(i as u32))).unwrap_or(false))
        .collect();

    let mut transfers: Vec<Vec<(u32, Direction)>> = vec![Vec::new(); tcfg.edges().len()];
    for (ei, e) in tcfg.edges().iter().enumerate() {
        for d in 0..n_items as u32 {
            // c→s on (vi,vj): Vso(vi,d) = 0 and Vsi(vj,d) = 1.
            if let (Some(vso), Some(vsi)) = (value(Term::Vso(e.from, d)), value(Term::Vsi(e.to, d)))
            {
                if !vso && vsi {
                    transfers[ei].push((d, Direction::ClientToServer));
                }
            }
            // s→c on (vi,vj): Vco(vi,d) = 0 and Vci(vj,d) = 1, i.e.
            // ¬Vco(vi,d) = 1 and ¬Vci(vj,d) = 0.
            if let (Some(nvco), Some(nvci)) =
                (value(Term::NotVco(e.from, d)), value(Term::NotVci(e.to, d)))
            {
                if nvco && !nvci {
                    transfers[ei].push((d, Direction::ServerToClient));
                }
            }
        }
    }

    Partition {
        server_tasks,
        transfers,
        region,
        full_region,
        cut,
    }
}

/// Evaluates the total cost of a partition's cut at a concrete point of
/// the linearized parameter space.
pub fn cut_cost_at(
    pnet: &PartitionNetwork,
    partition: &Partition,
    point: &[Rational],
) -> Option<Rational> {
    match pnet.net.cut_value_at(&partition.cut, point) {
        Capacity::Finite(v) => Some(v),
        Capacity::Infinite => None,
    }
}
