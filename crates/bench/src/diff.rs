//! Differential testing harness over generated programs.
//!
//! [`run_differential`] feeds programs from [`crate::gen`] through the
//! whole stack and cross-checks the layers against each other. For every
//! generated program it verifies:
//!
//! 1. **Typed completion** — `Analysis::from_source` either succeeds or
//!    returns a typed [`AnalyzeError`]; a panic anywhere in the pipeline
//!    is a harness failure carrying the program's seed and source. A
//!    front-end rejection is also a failure (the generator promises
//!    well-formed programs), while a solver failure is recorded as an
//!    accepted typed outcome.
//! 2. **Repeat determinism** — analyzing the program a second time in
//!    the same process gives bit-identical partitioning choices and
//!    solver work counters, under both region strategies, so no
//!    hash-iteration order leaks into the result.
//! 3. **Dispatch optimality** — at sampled parameter points, the choice
//!    the compiled dispatcher picks is the linear-scan reference's
//!    choice (`Dispatcher::select_linear`), bit for bit, and has minimal
//!    predicted cost among *all* enumerated choices, by exact rational
//!    comparison of [`cut_cost_at`] (the differential form of Theorem 1's
//!    guarantee). Wherever the point lies in the declared parameter
//!    space, that cost also equals the concrete minimum cut of the
//!    network at the point (Theorem 2). Besides the small points that
//!    check 4 simulates, each program gets four check-3-only points per
//!    sampled point, drawn wide: large magnitudes, and every fourth one
//!    at `i64` extremes and ± powers of two, where the compiled
//!    dispatcher's fixed-width arithmetic overflows or the point leaves
//!    every region. Check 3 runs on the exact and the dominance analysis
//!    alike.
//! 4. **Behaviour preservation** — simulating the program all-local and
//!    under *every* partitioning choice produces identical outputs, and
//!    the dispatched run agrees with them. Every run's ledger adds up:
//!    `total_time == client_compute + server_compute + comm_time`
//!    exactly (each clock increment goes to exactly one of the three),
//!    and the dispatched run's `RunStats` equal those of
//!    `run_choice(chosen)`.
//!
//! Every failure reports the per-program seed so the offending program
//! can be regenerated exactly: `fuzzgen --seed <seed> --count 1 --emit`.

use crate::gen::{generate, GenConfig};
use offload_core::{
    cut_cost_at, Analysis, AnalysisOptions, AnalyzeError, RegionStrategy, SolveOptions,
};
use offload_poly::Rational;
use offload_runtime::{DeviceModel, RunStats, Simulator};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The documented default root seed for reproducible runs (CI and the
/// checked-in smoke test use this value).
pub const DEFAULT_SEED: u64 = 0x0FF1_0AD5;

/// Configuration for one differential run.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Root seed; per-program seeds derive from it via [`program_seed`].
    pub seed: u64,
    /// Number of programs to generate and check.
    pub count: usize,
    /// Parameter points sampled per program for dispatch/simulation.
    pub points: usize,
    /// Program-shape budgets.
    pub gen: GenConfig,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            seed: DEFAULT_SEED,
            count: 50,
            points: 3,
            gen: GenConfig::default(),
        }
    }
}

/// Aggregate statistics of a successful differential run.
#[derive(Debug, Default, Clone)]
pub struct DiffSummary {
    /// Programs generated.
    pub programs: usize,
    /// Programs the full pipeline analyzed successfully.
    pub analyzed: usize,
    /// Programs rejected with an accepted typed error: `(seed, error)`.
    pub typed_failures: Vec<(u64, String)>,
    /// Programs additionally cross-checked under the dominance strategy.
    pub dominance_checked: usize,
    /// Parameter points at which dispatch optimality was verified, once
    /// per analysis (exact, and dominance where it succeeded).
    pub points_checked: usize,
    /// Of those, the points inside the declared parameter space, where
    /// the dispatched cut was also compared with the concrete min-cut.
    pub mincut_checked: usize,
    /// Simulator runs executed (local + every choice + dispatched).
    pub plans_executed: usize,
}

/// One differential mismatch: the cross-check that failed plus enough
/// context (seed and full source) to reproduce it.
#[derive(Debug)]
pub struct DiffFailure {
    /// Index of the program in the run.
    pub index: usize,
    /// The program's derived seed (regenerate with `fuzzgen --seed`).
    pub seed: u64,
    /// What went wrong.
    pub reason: String,
    /// The generated source.
    pub source: String,
}

impl fmt::Display for DiffFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "program {} (seed {:#x}): {}\n--- source ---\n{}",
            self.index, self.seed, self.reason, self.source
        )
    }
}
impl std::error::Error for DiffFailure {}

/// Derives the seed of program `index` from the root seed (splitmix64,
/// so neighbouring indices give uncorrelated generator streams).
pub fn program_seed(root: u64, index: usize) -> u64 {
    let mut z = root.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Check-3-only points drawn per simulated point.
const WIDE_PER_POINT: usize = 4;

/// Deterministic per-point parameter values in a range the simulator
/// handles quickly (small non-negative trip counts).
fn sample_params(seed: u64, point: usize, arity: usize) -> Vec<i64> {
    (0..arity)
        .map(|i| {
            let z = program_seed(seed ^ 0x5EED_F00D, point * 64 + i);
            (z % 21) as i64 // 0..=20
        })
        .collect()
}

/// Deterministic check-3-only parameter values, far outside what the
/// simulator could run: every fourth point takes each value from the
/// `i64` extremes and ± powers of two, the others a random sign and a
/// magnitude of uniformly drawn bit length (1..=62).
fn wide_params(seed: u64, point: usize, arity: usize) -> Vec<i64> {
    (0..arity)
        .map(|i| {
            let z = program_seed(seed ^ 0x0057_1DE5, point * 64 + i);
            let r = program_seed(z, 1);
            if point % 4 == 3 {
                let near = (r & 1) as i64;
                match z % 4 {
                    0 => i64::MIN + near,
                    1 => i64::MAX - near,
                    2 => 1i64 << (r % 63),
                    _ => -(1i64 << (r % 63)),
                }
            } else {
                let bits = 1 + z % 62;
                let magnitude = (r >> (64 - bits)) as i64;
                if z & (1 << 40) == 0 {
                    magnitude
                } else {
                    -magnitude
                }
            }
        })
        .collect()
}

/// Check 3 at one point: the compiled dispatcher's choice equals the
/// linear scan's, has minimal exact predicted cost among all choices,
/// and, inside the declared space, costs the concrete min-cut. Returns
/// that choice, or why the check failed.
fn check_dispatch(
    base: &Analysis,
    params: &[i64],
    summary: &mut DiffSummary,
) -> Result<usize, String> {
    let chosen = base
        .select(params)
        .map_err(|e| format!("dispatch failed at {params:?}: {e}"))?;
    // The compiled dispatcher must pick the linear scan's choice, not
    // merely another choice of minimal cost.
    let linear = base
        .dispatcher
        .select_linear(&base.network, &base.partition, params)
        .map_err(|e| format!("linear dispatch failed at {params:?}: {e}"))?;
    if linear != chosen {
        return Err(format!(
            "compiled dispatch chose {chosen} at {params:?}, the linear scan {linear}"
        ));
    }
    // Exact predicted-cost minimality over all enumerated choices.
    let rp: Vec<Rational> = params.iter().map(|&v| Rational::from(v)).collect();
    let dim_point = base
        .dispatcher
        .dim_point(&base.network, &rp)
        .map_err(|e| format!("dim_point failed at {params:?}: {e}"))?;
    let chosen_cost = cut_cost_at(&base.network, &base.partition.choices[chosen], &dim_point)
        .ok_or_else(|| format!("dispatched choice {chosen} has infinite cut cost at {params:?}"))?;
    for (i, choice) in base.partition.choices.iter().enumerate() {
        if let Some(cost) = cut_cost_at(&base.network, choice, &dim_point) {
            if cost < chosen_cost {
                return Err(format!(
                    "choice {i} is cheaper than dispatched choice {chosen} at {params:?} \
                     ({cost:?} < {chosen_cost:?})"
                ));
            }
        }
    }
    summary.points_checked += 1;
    if base.network.param_space.contains(&dim_point) {
        let min_cut = base
            .network
            .net
            .solve_at(&dim_point)
            .map_err(|e| format!("concrete min-cut failed at {params:?}: {e}"))?;
        if min_cut.value != chosen_cost {
            return Err(format!(
                "dispatched choice {chosen} costs {chosen_cost:?} at {params:?}, \
                 the concrete min-cut {:?}",
                min_cut.value
            ));
        }
        summary.mincut_checked += 1;
    }
    Ok(chosen)
}

/// Check 4's ledger identity: every clock increment is client compute,
/// server compute or communication, so the three add up to the total.
fn ledger_adds_up(stats: &RunStats) -> bool {
    stats.total_time == &(&stats.client_compute + &stats.server_compute) + &stats.comm_time
}

fn analyze(src: &str, region_strategy: RegionStrategy) -> Result<Analysis, AnalyzeError> {
    let opts = AnalysisOptions::builder()
        .annotate_with(offload_benchmarks::default_annotations)
        .solve(SolveOptions {
            region_strategy,
            ..SolveOptions::default()
        })
        .build();
    Analysis::from_source(src, opts)
}

/// Why two analyses of one program disagree, if they do: a different
/// partition, different work counters, or different typed outcomes.
fn divergence(
    a: &Result<Analysis, AnalyzeError>,
    b: &Result<Analysis, AnalyzeError>,
) -> Option<String> {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            if format!("{:?}", a.partition.choices) != format!("{:?}", b.partition.choices) {
                return Some("partition diverged".into());
            }
            let (wa, wb) = (
                a.pipeline_stats().work_counters(),
                b.pipeline_stats().work_counters(),
            );
            (wa != wb).then(|| format!("work counters diverged:\nfirst:  {wa:?}\nsecond: {wb:?}"))
        }
        (Err(ea), Err(eb)) => {
            (ea.to_string() != eb.to_string()).then(|| format!("errors diverged: {ea} vs {eb}"))
        }
        (Ok(_), Err(e)) => Some(format!("succeeded, then failed: {e}")),
        (Err(e), Ok(_)) => Some(format!("failed ({e}), then succeeded")),
    }
}

/// Runs the differential harness.
///
/// Returns the aggregate [`DiffSummary`] when every cross-check holds on
/// every generated program, and the first [`DiffFailure`] otherwise.
///
/// # Errors
///
/// Returns a [`DiffFailure`] describing the first mismatch (boxed — it
/// carries the full program source).
#[allow(clippy::too_many_lines)]
pub fn run_differential(cfg: &DiffConfig) -> Result<DiffSummary, Box<DiffFailure>> {
    let mut summary = DiffSummary::default();
    for index in 0..cfg.count {
        // A single-program run uses the root seed verbatim so a reported
        // per-program seed reproduces directly with `--seed S --count 1`.
        let seed = if cfg.count == 1 {
            cfg.seed
        } else {
            program_seed(cfg.seed, index)
        };
        let source = generate(seed, &cfg.gen);
        summary.programs += 1;
        let fail = |reason: String, source: &str| {
            Box::new(DiffFailure {
                index,
                seed,
                reason,
                source: source.to_string(),
            })
        };

        // (1) Typed completion: panics and front-end rejections are
        // failures; solver errors are accepted typed outcomes.
        let analyze_caught = |strategy| {
            catch_unwind(AssertUnwindSafe(|| analyze(&source, strategy))).map_err(|panic| {
                let msg = panic_text(&panic);
                fail(format!("{strategy:?} analysis panicked: {msg}"), &source)
            })
        };
        let first = analyze_caught(RegionStrategy::Exact)?;
        let base = match &first {
            Err(AnalyzeError::Lang(e)) => {
                return Err(fail(
                    format!("generator emitted an ill-formed program: {e}"),
                    &source,
                ));
            }
            Err(e) => {
                summary.typed_failures.push((seed, e.to_string()));
                continue;
            }
            Ok(a) => a,
        };
        summary.analyzed += 1;

        // (2) Repeat determinism: a second analysis in the same process
        // must agree on choices and work counters, under both strategies.
        // Dominance legitimately partitions differently from the exact
        // strategy, so each strategy is compared with itself; a typed
        // dominance error is an accepted outcome, but it must repeat.
        let dom = analyze_caught(RegionStrategy::Dominance)?;
        for (strategy, a) in [
            (RegionStrategy::Exact, &first),
            (RegionStrategy::Dominance, &dom),
        ] {
            let b = analyze_caught(strategy)?;
            if let Some(why) = divergence(a, &b) {
                return Err(fail(format!("{strategy:?} re-analysis: {why}"), &source));
            }
        }
        if dom.is_ok() {
            summary.dominance_checked += 1;
        }

        // (3) + (4): dispatch optimality and behaviour preservation at
        // sampled parameter points.
        let sim = Simulator::new(base, DeviceModel::ipaq_testbed());
        let arity = base.symbolic.dict.param_count();
        let nchoices = base.partition.choices.len();
        let input = [3i64, 5, 7, 11];
        let dom = dom.as_ref().ok();
        let check = |params: &[i64], summary: &mut DiffSummary| -> Result<_, Box<DiffFailure>> {
            let chosen = check_dispatch(base, params, summary).map_err(|why| fail(why, &source))?;
            if let Some(dom) = dom {
                check_dispatch(dom, params, summary)
                    .map_err(|why| fail(format!("dominance analysis: {why}"), &source))?;
            }
            Ok(chosen)
        };
        for point in 0..cfg.points {
            let params = sample_params(seed, point, arity);
            let chosen = check(&params, &mut summary)?;

            // Simulate all-local and every choice: identical outputs, and
            // ledgers that add up.
            let local = match sim.run_local(&params, &input) {
                Ok(r) => r,
                Err(e) => {
                    return Err(fail(
                        format!("local simulation failed at {params:?}: {e}"),
                        &source,
                    ));
                }
            };
            summary.plans_executed += 1;
            if !ledger_adds_up(&local.stats) {
                return Err(fail(
                    format!(
                        "local run's ledger does not add up at {params:?}: {:?}",
                        local.stats
                    ),
                    &source,
                ));
            }
            let mut chosen_stats = None;
            for i in 0..nchoices {
                let r = match sim.run_choice(i, &params, &input) {
                    Ok(r) => r,
                    Err(e) => {
                        return Err(fail(
                            format!("choice {i} simulation failed at {params:?}: {e}"),
                            &source,
                        ));
                    }
                };
                summary.plans_executed += 1;
                if r.outputs != local.outputs {
                    return Err(fail(
                        format!(
                            "choice {i} changed observable behaviour at {params:?}: \
                             {:?} vs local {:?}",
                            r.outputs, local.outputs
                        ),
                        &source,
                    ));
                }
                if !ledger_adds_up(&r.stats) {
                    return Err(fail(
                        format!(
                            "choice {i}'s ledger does not add up at {params:?}: {:?}",
                            r.stats
                        ),
                        &source,
                    ));
                }
                if i == chosen {
                    chosen_stats = Some(r.stats);
                }
            }
            // The adaptive path must agree too, down to its statistics.
            match sim.run_dispatched(&params, &input) {
                Ok((idx, r)) => {
                    summary.plans_executed += 1;
                    if idx != chosen || r.outputs != local.outputs {
                        return Err(fail(
                            format!("dispatched run diverged at {params:?}"),
                            &source,
                        ));
                    }
                    if chosen_stats.as_ref() != Some(&r.stats) {
                        return Err(fail(
                            format!(
                                "dispatched run's statistics differ from choice {chosen}'s \
                                 at {params:?}: {:?} vs {chosen_stats:?}",
                                r.stats
                            ),
                            &source,
                        ));
                    }
                }
                Err(e) => {
                    return Err(fail(
                        format!("dispatched simulation failed at {params:?}: {e}"),
                        &source,
                    ));
                }
            }
        }

        // Check 3 alone at wide points, which no simulation could run.
        for point in 0..cfg.points * WIDE_PER_POINT {
            check(&wide_params(seed, point, arity), &mut summary)?;
        }
    }
    Ok(summary)
}

fn panic_text(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}
