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
//! round at a time on the calling thread: every current piece of `X` is
//! sampled, min-cut solved and Lemma-1 projected in piece order, then a
//! merge in the same order accepts each discovered cut unless an
//! earlier-accepted region of the same round already covers its sample
//! point. A memo cache keyed by cut signature (the source-side bit
//! vector) reuses projected regions when the same cut is rediscovered
//! ([`SolveOptions::cut_cache`]).

use crate::netbuild::{PartitionNetwork, Term};
use offload_flow::{Capacity, MaxFlow, ParamNetwork, ParamSolver, UnboundedFlow};
use offload_obs::Level;
use offload_poly::{Polyhedron, ProjectionBudgetExceeded, Rational, Region};
use offload_tcfg::{TaskId, Tcfg};
use std::collections::HashMap;
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
    /// Reuse projected optimality regions when the same cut signature is
    /// rediscovered (default `true`; sound — the projection is a pure
    /// function of the signature).
    pub cut_cache: bool,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            simplify: true,
            reduce_degeneracy: true,
            region_strategy: RegionStrategy::Exact,
            threads: 0,
            cut_cache: true,
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
            explore_regions(pnet, tcfg, n_items, options, &snet, &mapping, &mut stats)
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

/// The result of exploring one worklist piece: its deterministic sample
/// point, the cut found there (on the simplified network), and the cut's
/// full Lemma-1 optimality region.
struct PieceResult {
    point: Vec<Rational>,
    side: Vec<bool>,
    full_region: Polyhedron,
}

/// The memo cache mapping a cut signature (source-side bit vector on the
/// simplified network) to its projected optimality region, so each
/// unique signature is projected once (one miss). A projection that
/// blows its row budget is memoized as the typed failure.
type CutCache = HashMap<Vec<bool>, Result<Polyhedron, ProjectionBudgetExceeded>>;

/// The exact region-exploration engine: a round-by-round worklist over
/// the disjoint pieces of the uncovered region `X`.
///
/// Each round takes a snapshot of `X`'s pieces in order and explores all
/// of them (sample → concrete min-cut → optimality region); a merge then
/// walks the results **in piece order**, accepting a cut unless a region
/// accepted earlier in the same round already covers its sample point,
/// and shrinking `X` per accepted cut.
fn explore_regions(
    pnet: &PartitionNetwork,
    tcfg: &Tcfg,
    n_items: usize,
    options: &SolveOptions,
    snet: &ParamNetwork,
    mapping: &[usize],
    stats: &mut SolveStats,
) -> Result<Vec<Partition>, SolveError> {
    let mut cache: Option<CutCache> = options.cut_cache.then(HashMap::new);
    let mut solver = snet.solver();

    let mut x = Region::from(pnet.param_space.clone());
    let mut choices: Vec<Partition> = Vec::new();

    loop {
        let pieces = x.pieces();
        if pieces.is_empty() {
            break;
        }
        stats.pipeline.rounds += 1;
        let n_pieces = pieces.len();
        let t_round = Instant::now();
        let mut round_span = offload_obs::span!(
            "parametric",
            "round",
            round = stats.pipeline.rounds,
            pieces = n_pieces,
        );
        let results: Vec<_> = pieces
            .iter()
            .map(|piece| explore_piece(snet, &pnet.param_space, piece, &mut solver, cache.as_mut()))
            .collect();

        let mut accepted: Vec<PieceResult> = Vec::new();
        for result in results {
            let r = match result {
                None => continue, // piece was empty (cannot happen: X holds non-empty pieces)
                Some(Err(PieceError::Unbounded(e))) => return Err(SolveError::Unbounded(e)),
                Some(Err(PieceError::Budget(e))) => {
                    return Err(SolveError::ProjectionBudget {
                        generated: e.generated,
                    })
                }
                Some(Ok(r)) => r,
            };
            if accepted.iter().any(|a| a.full_region.contains(&r.point)) {
                // An earlier-accepted cut of this round already covers
                // this sample; the shrunken X re-queues whatever remains
                // of the piece next round.
                continue;
            }
            stats.iterations += 1;
            if stats.iterations > MAX_ITERATIONS {
                return Err(SolveError::IterationLimit {
                    found: choices.len(),
                });
            }
            if !r.full_region.contains(&r.point) {
                // Should be impossible (Theorem 2); fail fast rather than
                // loop forever.
                return Err(SolveError::IterationLimit {
                    found: choices.len(),
                });
            }
            let assigned = x.intersect(&r.full_region);
            x = x.subtract(&r.full_region);
            let cut = expand_cut(mapping, &r.side, pnet.net.node_count());
            choices.push(extract_partition(
                pnet,
                tcfg,
                n_items,
                cut,
                assigned,
                r.full_region.clone(),
            ));
            accepted.push(r);
        }
        stats.pipeline.regions_explored += accepted.len() as u64;
        round_span.record("accepted", accepted.len());
        drop(round_span);
        log(Level::Debug, || {
            format!(
                "round {}: {} pieces -> {} accepted cuts ({} total) in {:?}, {} pieces left",
                stats.pipeline.rounds,
                n_pieces,
                accepted.len(),
                choices.len(),
                t_round.elapsed(),
                x.pieces().len(),
            )
        });
    }
    Ok(choices)
}

/// Explores one worklist piece: sample its deterministic interior point,
/// solve the concrete min-cut there, and obtain the cut's optimality
/// region (from the signature cache when enabled). Returns `None` for an
/// empty piece.
fn explore_piece(
    snet: &ParamNetwork,
    param_space: &Polyhedron,
    piece: &Polyhedron,
    solver: &mut ParamSolver,
    cache: Option<&mut CutCache>,
) -> Option<Result<PieceResult, PieceError>> {
    let mut span = offload_obs::span!("parametric", "piece");
    let point = piece.sample()?;
    let mf = match solver.solve_at(&point) {
        Ok(mf) => mf,
        Err(e) => return Some(Err(PieceError::Unbounded(e))),
    };
    // Every projection call gets a fresh budget: whether a signature's
    // region is affordable depends only on the signature, never on what
    // other pieces spent.
    let project = || {
        let mut budget = PROJECTION_BUDGET;
        snet.try_optimality_region(&mf.source_side, param_space, &mut budget)
    };
    let region = match cache {
        Some(cache) => {
            let hit = cache.contains_key(&mf.source_side);
            offload_obs::tally(|t| {
                if hit {
                    t.cache_hits += 1;
                } else {
                    t.cache_misses += 1;
                }
            });
            span.record("cache_hit", hit);
            cache
                .entry(mf.source_side.clone())
                .or_insert_with(project)
                .clone()
        }
        None => project(),
    };
    let full_region = match region {
        Ok(r) => r,
        Err(e) => return Some(Err(PieceError::Budget(e))),
    };
    Some(Ok(PieceResult {
        point,
        side: mf.source_side,
        full_region,
    }))
}

/// Why one piece's exploration failed (folded into a [`SolveError`] by
/// the round loop).
enum PieceError {
    Unbounded(UnboundedFlow),
    Budget(ProjectionBudgetExceeded),
}

fn expand_cut(mapping: &[usize], simplified_side: &[bool], nodes: usize) -> Vec<bool> {
    (0..nodes).map(|n| simplified_side[mapping[n]]).collect()
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

    // Assemble disjoint regions and partitions. Choice `i`'s final
    // region is its dominance region minus the full regions of all
    // earlier choices. The solver is not needed in this LP-heavy tail,
    // where the solve's memory peaks.
    drop(solver);
    let regions = settled.unwrap_or_else(|| dominance_regions(space, &cuts));
    let disjoint: Vec<Region> = (0..regions.len())
        .map(|i| {
            let mut region = Region::from(regions[i].clone());
            for earlier in &regions[..i] {
                region = region.subtract(earlier);
            }
            region
        })
        .collect();
    let mut out = Vec::new();
    for (((side, _), region_poly), region) in cuts.iter().zip(regions).zip(disjoint) {
        let cut = expand_cut(mapping, side, pnet.net.node_count());
        out.push(extract_partition(
            pnet,
            tcfg,
            n_items,
            cut,
            region,
            region_poly,
        ));
    }
    // Drop choices whose region vanished after disjointification.
    // (Degeneracy reduction is unnecessary here — dominance regions are
    // already one-per-cut.)
    out.retain(|p| !p.region.is_empty());
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
                    r.add(offload_poly::Constraint::ge0(ej.sub(ei)));
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
