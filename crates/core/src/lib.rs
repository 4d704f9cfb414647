//! # offload-core
//!
//! The primary contribution of *Wang & Li, "Parametric Analysis for
//! Adaptive Computation Offloading" (PLDI 2004)*: parametric cost
//! analysis and parametric program partitioning for client/server
//! computation offloading.
//!
//! The pipeline, end to end:
//!
//! 1. front end + IR (`offload-lang`, `offload-ir`);
//! 2. points-to & memory abstraction (`offload-pta`, §2.3);
//! 3. task formation (`offload-tcfg`, Algorithm 1);
//! 4. per-task mod/ref classification (§2.4's constraint inputs);
//! 5. symbolic flow-constraint analysis (`offload-symbolic`, §3.3–3.4);
//! 6. the Theorem 1 reduction to a parametric min-cut network
//!    ([`NetBuilder`]);
//! 7. Algorithm 2 ([`solve`]): one optimal partitioning per polyhedral
//!    region of the parameter space;
//! 8. dispatch-guard generation ([`Dispatcher`], the Figure 2 program
//!    transformation).
//!
//! ```
//! use offload_core::{Analysis, AnalysisOptions};
//!
//! let src = "
//!     int work(int k) {
//!         int j; int acc;
//!         acc = 0;
//!         for (j = 0; j < k; j++) { acc = acc + j * j; }
//!         return acc;
//!     }
//!     void main(int n) { output(work(n)); }";
//! let analysis = Analysis::from_source(src, AnalysisOptions::default())?;
//! // Small n: stay local. Huge n: offload the worker.
//! let small = analysis.select(&[1])?;
//! let large = analysis.select(&[100000])?;
//! assert!(analysis.partition.choices[small].is_all_local());
//! assert!(!analysis.partition.choices[large].is_all_local());
//! # Ok::<(), offload_core::AnalyzeError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod compiled;
mod costmodel;
mod dispatch;
mod items;
mod netbuild;
mod parametric;
pub mod passes;

pub use compiled::{CompiledDispatcher, CompiledStats};
pub use costmodel::CostModel;
pub use dispatch::{dummies_in_solution, AnnotationRule, Annotations, DispatchError, Dispatcher};
pub use items::{ItemTable, TrackedItem};
pub use netbuild::{NetBuilder, ParamBounds, PartitionNetwork, Term, ValidityModel};
pub use parametric::{
    cut_cost_at, solve, Direction, ParametricPartition, Partition, PipelineStats, Plan,
    RegionStrategy, SolveError, SolveOptions, SolveStats,
};
pub use passes::{Pass, PassContext, PassError, PassManager, PassReport};

use offload_ir::Module;
use offload_pta::{ModRef, PointsTo};
use offload_symbolic::Symbolic;
use offload_tcfg::Tcfg;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An annotation hook: builds [`Annotations`] from the discovered dummies.
///
/// Dummy ids only exist after the symbolic analysis runs, so callers that
/// want to annotate supply a hook instead of a fixed table.
pub type AnnotateFn = dyn Fn(&Symbolic) -> Annotations + Send + Sync;

/// Options for a whole-program analysis.
///
/// Construct via [`AnalysisOptions::builder`] (preferred), or field-by-field
/// from [`Default`] — both remain supported:
///
/// ```
/// use offload_core::{AnalysisOptions, RegionStrategy};
///
/// let opts = AnalysisOptions::builder()
///     .region_strategy(RegionStrategy::Dominance)
///     .annotate_with(|_sym| offload_core::Annotations::default())
///     .build();
/// # let _ = opts;
/// ```
#[derive(Clone, Default)]
pub struct AnalysisOptions {
    /// Cost constants (defaults to the iPAQ-like testbed).
    pub cost: CostModel,
    /// Declared parameter bounds (defaults to `h ≥ 0`).
    pub bounds: ParamBounds,
    /// User annotations for unresolvable dummies.
    pub annotations: Annotations,
    /// Builds annotations from the discovered dummies (dummy ids only
    /// exist after the symbolic analysis runs, so benchmark-style callers
    /// supply a function instead of a fixed table). Takes precedence over
    /// `annotations` when set.
    pub annotate: Option<fn(&Symbolic) -> Annotations>,
    /// Closure form of [`AnalysisOptions::annotate`]; set via the builder's
    /// [`AnalysisOptionsBuilder::annotate_with`]. Takes precedence over both
    /// `annotate` and `annotations` when set.
    pub annotate_with: Option<Arc<AnnotateFn>>,
    /// Data-transfer model: the paper's validity states (default) or the
    /// traditional per-DU-chain charging it improves upon (§2.2 ablation).
    pub validity_model: ValidityModel,
    /// Solver options (simplification, degeneracy reduction).
    pub solve: SolveOptions,
}

impl fmt::Debug for AnalysisOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AnalysisOptions")
            .field("cost", &self.cost)
            .field("bounds", &self.bounds)
            .field("annotations", &self.annotations)
            .field("annotate", &self.annotate.map(|_| "fn"))
            .field(
                "annotate_with",
                &self.annotate_with.as_ref().map(|_| "closure"),
            )
            .field("validity_model", &self.validity_model)
            .field("solve", &self.solve)
            .finish()
    }
}

impl AnalysisOptions {
    /// Starts a builder with all-default options.
    pub fn builder() -> AnalysisOptionsBuilder {
        AnalysisOptionsBuilder {
            opts: AnalysisOptions::default(),
        }
    }

    /// Resolves the effective annotations for an analyzed program, honoring
    /// the precedence `annotate_with` > `annotate` > `annotations`.
    pub(crate) fn resolve_annotations(&self, symbolic: &Symbolic) -> Annotations {
        if let Some(f) = &self.annotate_with {
            f(symbolic)
        } else if let Some(f) = self.annotate {
            f(symbolic)
        } else {
            self.annotations.clone()
        }
    }
}

/// Fluent constructor for [`AnalysisOptions`].
#[derive(Debug, Clone, Default)]
pub struct AnalysisOptionsBuilder {
    opts: AnalysisOptions,
}

impl AnalysisOptionsBuilder {
    /// Sets the cost constants.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.opts.cost = cost;
        self
    }

    /// Sets the declared parameter bounds.
    pub fn bounds(mut self, bounds: ParamBounds) -> Self {
        self.opts.bounds = bounds;
        self
    }

    /// Sets a fixed annotation table.
    pub fn annotations(mut self, annotations: Annotations) -> Self {
        self.opts.annotations = annotations;
        self
    }

    /// Sets a closure that builds annotations from the discovered dummies
    /// (runs after symbolic analysis; overrides `annotations`).
    pub fn annotate_with<F>(mut self, f: F) -> Self
    where
        F: Fn(&Symbolic) -> Annotations + Send + Sync + 'static,
    {
        self.opts.annotate_with = Some(Arc::new(f));
        self
    }

    /// Sets the data-transfer charging model.
    pub fn validity_model(mut self, model: ValidityModel) -> Self {
        self.opts.validity_model = model;
        self
    }

    /// Sets the full solver option block.
    pub fn solve(mut self, solve: SolveOptions) -> Self {
        self.opts.solve = solve;
        self
    }

    /// Convenience: sets just the region strategy within the solver options.
    pub fn region_strategy(mut self, strategy: RegionStrategy) -> Self {
        self.opts.solve.region_strategy = strategy;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> AnalysisOptions {
        self.opts
    }
}

/// Errors from [`Analysis::from_source`].
#[derive(Debug)]
pub enum AnalyzeError {
    /// Front-end rejection.
    Lang(offload_lang::LangError),
    /// Parametric solver failure.
    Solve(SolveError),
    /// Run-time dispatch failure (from helper methods).
    Dispatch(DispatchError),
    /// Pass-manager failure (mis-registered pipeline or a failing pass
    /// other than the solver; see [`PassError`]).
    Pass(PassError),
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::Lang(e) => write!(f, "{e}"),
            AnalyzeError::Solve(e) => write!(f, "{e}"),
            AnalyzeError::Dispatch(e) => write!(f, "{e}"),
            AnalyzeError::Pass(e) => write!(f, "{e}"),
        }
    }
}
impl std::error::Error for AnalyzeError {}

impl From<offload_lang::LangError> for AnalyzeError {
    fn from(e: offload_lang::LangError) -> Self {
        AnalyzeError::Lang(e)
    }
}
impl From<SolveError> for AnalyzeError {
    fn from(e: SolveError) -> Self {
        AnalyzeError::Solve(e)
    }
}
impl From<DispatchError> for AnalyzeError {
    fn from(e: DispatchError) -> Self {
        AnalyzeError::Dispatch(e)
    }
}
impl From<PassError> for AnalyzeError {
    fn from(e: PassError) -> Self {
        // Solver failures keep their historical variant so existing
        // callers matching `AnalyzeError::Solve` are unaffected.
        match e {
            PassError::Solve(e) => AnalyzeError::Solve(e),
            other => AnalyzeError::Pass(other),
        }
    }
}

/// Builds a grid of parameter-consistent probe points in the linearized
/// dimension space: per-parameter geometric ladders (within the declared
/// bounds) swept individually and diagonally, crossed with a few dummy
/// assignments. Used to seed the dominance-probing region strategy.
pub(crate) fn probe_points(
    dict: &offload_symbolic::ParamDict,
    network: &PartitionNetwork,
    bounds: &ParamBounds,
) -> Vec<Vec<offload_poly::Rational>> {
    use offload_poly::Rational;
    use offload_symbolic::Atom;
    let k = dict.param_count();
    let ladder = |i: usize| -> Vec<i64> {
        let lb = bounds.lower(i).unwrap_or(0).max(1);
        let ub = bounds.upper(i);
        let mut vals = vec![lb];
        let mut v = lb.saturating_mul(8);
        loop {
            match ub {
                Some(u) if v >= u => {
                    if vals.last() != Some(&u) {
                        vals.push(u);
                    }
                    break;
                }
                None if v > 1_000_000 => {
                    vals.push(1_000_000);
                    break;
                }
                _ => vals.push(v),
            }
            if vals.len() >= 5 {
                break;
            }
            v = v.saturating_mul(8);
        }
        vals
    };
    let ladders: Vec<Vec<i64>> = (0..k).map(ladder).collect();
    let max_levels = ladders.iter().map(Vec::len).max().unwrap_or(1);

    let mut param_vecs: Vec<Vec<i64>> = Vec::new();
    // Diagonals: every parameter at its level-L value.
    for level in 0..max_levels {
        param_vecs.push(
            ladders
                .iter()
                .map(|l| {
                    l.get(level.min(l.len().saturating_sub(1)))
                        .copied()
                        .unwrap_or(1)
                })
                .collect(),
        );
    }
    // Per-parameter sweeps with the others at their second level.
    let base: Vec<i64> = ladders
        .iter()
        .map(|l| {
            l.get(1.min(l.len().saturating_sub(1)))
                .copied()
                .unwrap_or(1)
        })
        .collect();
    for (i, l) in ladders.iter().enumerate() {
        for &v in l {
            let mut p = base.clone();
            p[i] = v;
            param_vecs.push(p);
        }
    }

    let dummy_values = [Rational::zero(), Rational::one(), Rational::new(1, 2)];
    let mut out = Vec::new();
    for params in &param_vecs {
        for dv in &dummy_values {
            let point: Vec<Rational> = network
                .dims
                .iter()
                .map(|m| {
                    dict.eval_monomial(*m, &|a| match a {
                        Atom::Param(i) => Rational::from(params[i as usize]),
                        Atom::Dummy(_) => dv.clone(),
                    })
                })
                .collect();
            out.push(point);
        }
    }
    out.sort();
    out.dedup();
    out
}

/// A complete parametric offloading analysis of one program.
#[derive(Debug)]
pub struct Analysis {
    /// The lowered program.
    pub module: Module,
    /// Task control flow graph.
    pub tcfg: Tcfg,
    /// Points-to results.
    pub pta: PointsTo,
    /// Per-task access classification.
    pub modref: ModRef,
    /// Symbolic counts and the parameter dictionary.
    pub symbolic: Symbolic,
    /// Tracked data items.
    pub items: ItemTable,
    /// The Theorem 1 network.
    pub network: PartitionNetwork,
    /// The Algorithm 2 solution.
    pub partition: ParametricPartition,
    /// The run-time selector.
    pub dispatcher: Dispatcher,
    /// The selector compiled to a hyperplane decision DAG (what
    /// [`Analysis::select`] actually queries).
    pub compiled: CompiledDispatcher,
    /// One structured report per pipeline pass, in execution order
    /// (timings, counters, warnings — see [`PassReport`]).
    pub reports: Vec<PassReport>,
    /// Wall-clock time of the whole analysis.
    pub analysis_time: Duration,
}

impl Analysis {
    /// Runs the full pipeline on mini-C source text.
    ///
    /// # Errors
    ///
    /// Returns front-end errors verbatim and solver failures (see
    /// [`AnalyzeError`]).
    pub fn from_source(src: &str, options: AnalysisOptions) -> Result<Analysis, AnalyzeError> {
        let start = Instant::now();
        let checked = offload_lang::frontend(src)?;
        let module = offload_ir::lower(&checked);
        Self::from_module(module, options, start)
    }

    fn from_module(
        module: Module,
        options: AnalysisOptions,
        start: Instant,
    ) -> Result<Analysis, AnalyzeError> {
        // The pipeline itself lives in the pass manager (`passes`): each
        // analysis is a registered pass with declared inputs/outputs and
        // a structured report; this driver only seeds the context and
        // unpacks the artifacts.
        use passes::keys;
        let mut cx = PassContext::new();
        cx.put(keys::MODULE, module);
        cx.put(keys::OPTIONS, options);
        let reports = PassManager::standard().run(&mut cx)?;
        Ok(Analysis {
            module: cx.take(keys::MODULE)?,
            tcfg: cx.take(keys::TCFG)?,
            pta: cx.take(keys::POINTS_TO)?,
            modref: cx.take(keys::MODREF)?,
            symbolic: cx.take(keys::SYMBOLIC)?,
            items: cx.take(keys::ITEMS)?,
            network: cx.take(keys::NETWORK)?,
            partition: cx.take(keys::PARTITION)?,
            dispatcher: cx.take(keys::DISPATCHER)?,
            compiled: cx.take(keys::COMPILED)?,
            reports,
            analysis_time: start.elapsed(),
        })
    }

    /// Selects the partitioning choice for concrete parameter values,
    /// via the compiled decision DAG (O(depth) sign tests per query).
    ///
    /// # Errors
    ///
    /// Returns [`DispatchError`] for missing annotations or wrong arity.
    pub fn select(&self, params: &[i64]) -> Result<usize, DispatchError> {
        self.compiled.select(params)
    }

    /// Unified work counters of the parametric solve (flow / poly / core
    /// layers), as recorded on the partitioning result.
    pub fn pipeline_stats(&self) -> PipelineStats {
        self.partition.stats.pipeline
    }

    /// The structured per-pass reports of this analysis, in execution
    /// order.
    pub fn pass_reports(&self) -> &[PassReport] {
        &self.reports
    }

    /// The report of one pass, by name (e.g. `"points-to"`).
    pub fn pass_report(&self, name: &str) -> Option<&PassReport> {
        self.reports.iter().find(|r| r.pass == name)
    }

    /// Warnings across every pass, prefixed with the pass name.
    pub fn pass_warnings(&self) -> Vec<String> {
        self.reports
            .iter()
            .flat_map(|r| r.warnings.iter().map(move |w| format!("{}: {w}", r.pass)))
            .collect()
    }

    /// Selects the partitioning choice for concrete parameter values and
    /// returns it as an executable [`Plan`] alongside the choice index.
    ///
    /// This is the one-call bridge from analysis to execution: the result
    /// feeds directly into the simulator's and the TCP engine's `run`
    /// entry points.
    ///
    /// # Errors
    ///
    /// Returns [`DispatchError`] for missing annotations or wrong arity.
    pub fn plan_for(&self, params: &[i64]) -> Result<(usize, Plan<'_>), DispatchError> {
        let choice = self.select(params)?;
        let partition = &self.partition.choices[choice];
        let plan = if partition.is_all_local() {
            Plan::AllLocal
        } else {
            Plan::Partitioned(partition)
        };
        Ok((choice, plan))
    }

    /// The Figure 2-style guard text of each choice.
    pub fn guards(&self) -> Vec<String> {
        self.partition
            .choices
            .iter()
            .map(|c| self.dispatcher.guard_text(&self.network, c))
            .collect()
    }

    /// Dummy parameters that appear in the solution and lack both an
    /// automatic rule and a user annotation (§3.4: these must be
    /// annotated before dispatch).
    pub fn missing_annotations(&self) -> Vec<u32> {
        dummies_in_solution(&self.network, &self.partition, &self.symbolic.dict)
            .into_iter()
            .filter(|d| {
                let auto = self
                    .symbolic
                    .dict
                    .dummies()
                    .get(*d as usize)
                    .map(|o| o.is_auto())
                    .unwrap_or(false);
                !auto && !self.dispatcher.annotations().exprs.contains_key(d)
            })
            .collect()
    }

    /// One-line summary per choice (for reports).
    pub fn describe_choices(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, c) in self.partition.choices.iter().enumerate() {
            let server: Vec<String> = c
                .server_task_ids()
                .iter()
                .map(|t| {
                    let task = self.tcfg.task(*t);
                    format!("{}@{}", t, self.module.function(task.func).name)
                })
                .collect();
            let _ = writeln!(
                out,
                "choice {i}: server tasks = [{}]\n  when {}",
                server.join(", "),
                self.dispatcher.guard_text(&self.network, c)
            );
        }
        out
    }
}
