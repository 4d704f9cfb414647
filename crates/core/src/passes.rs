//! Pluggable analysis pass manager.
//!
//! Every stage of the offloading pipeline — points-to, task formation,
//! mod/ref classification, symbolic costs, annotation substitution, item
//! tracking, network construction, the parametric solve and dispatcher
//! compilation — is a [`Pass`] registered with a [`PassManager`]. Passes
//! declare their inputs and outputs by artifact key, exchange artifacts
//! through the typed [`PassContext`] store, and produce a structured
//! [`PassReport`] (wall-clock timing, counters, warnings). The manager
//! runs them in deterministic registration order and verifies the
//! declared dataflow up front: a pass whose input is missing fails with a
//! typed [`PassError`] instead of panicking deep inside an analysis.
//!
//! [`Analysis::from_source`](crate::Analysis::from_source) is a thin
//! driver over [`PassManager::standard`]; embedders can run a prefix of
//! the pipeline (e.g. only the front-end analyses, for analysis-fact
//! tests) or interpose their own passes between the standard ones:
//!
//! ```
//! use offload_core::passes::{self, PassContext, PassManager};
//! use offload_core::AnalysisOptions;
//!
//! let checked = offload_lang::frontend("void main(int n) { output(n); }")?;
//! let mut cx = PassContext::new();
//! cx.put(passes::keys::MODULE, offload_ir::lower(&checked));
//! cx.put(passes::keys::OPTIONS, AnalysisOptions::default());
//! let mut manager = PassManager::new();
//! manager.register(Box::new(passes::PointsToPass));
//! manager.register(Box::new(passes::TcfgPass));
//! let reports = manager.run(&mut cx)?;
//! assert_eq!(reports.len(), 2);
//! assert!(reports[1].counter("tasks").unwrap() >= 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::dispatch::{AnnotationRule, Annotations, Dispatcher};
use crate::items::ItemTable;
use crate::netbuild::{NetBuilder, ParamBounds, PartitionNetwork};
use crate::parametric::{self, ParametricPartition, SolveError};
use crate::AnalysisOptions;
use offload_ir::Module;
use offload_pta::{ModRef, PointsTo};
use offload_symbolic::{DummyOrigin, Symbolic};
use offload_tcfg::{TaskId, Tcfg};
use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::time::Instant;

/// Artifact keys of the standard pipeline. The key namespace is open:
/// custom passes may publish artifacts under their own keys.
pub mod keys {
    /// The lowered [`offload_ir::Module`] under analysis (input).
    pub const MODULE: &str = "module";
    /// The [`crate::AnalysisOptions`] for this run (input).
    pub const OPTIONS: &str = "options";
    /// [`offload_pta::PointsTo`] results.
    pub const POINTS_TO: &str = "points-to";
    /// The [`offload_tcfg::Tcfg`].
    pub const TCFG: &str = "tcfg";
    /// [`offload_pta::ModRef`] per-task access classification.
    pub const MODREF: &str = "modref";
    /// [`offload_symbolic::Symbolic`] costs (annotation substitution
    /// mutates this artifact in place).
    pub const SYMBOLIC: &str = "symbolic";
    /// Resolved [`crate::Annotations`].
    pub const ANNOTATIONS: &str = "annotations";
    /// The [`crate::ItemTable`] of tracked data items.
    pub const ITEMS: &str = "items";
    /// Effective [`crate::ParamBounds`] (defaulted when undeclared).
    pub const BOUNDS: &str = "bounds";
    /// The Theorem 1 [`crate::PartitionNetwork`].
    pub const NETWORK: &str = "network";
    /// The Algorithm 2 [`crate::ParametricPartition`].
    pub const PARTITION: &str = "partition";
    /// The linear-scan [`crate::Dispatcher`].
    pub const DISPATCHER: &str = "dispatcher";
    /// The [`crate::CompiledDispatcher`].
    pub const COMPILED: &str = "compiled";
}

/// Typed artifact store shared by the passes of one pipeline run.
///
/// Artifacts are keyed by `&'static str` (see [`keys`]) and stored as
/// `Box<dyn Any>`; accessors downcast to the requested type and fail with
/// a typed [`PassError`] on a missing key or a type mismatch.
#[derive(Default)]
pub struct PassContext {
    slots: HashMap<&'static str, Box<dyn Any>>,
}

impl fmt::Debug for PassContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names: Vec<&str> = self.slots.keys().copied().collect();
        names.sort_unstable();
        f.debug_struct("PassContext")
            .field("slots", &names)
            .finish()
    }
}

impl PassContext {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes an artifact, replacing any previous value under `key`.
    pub fn put<T: Any>(&mut self, key: &'static str, value: T) {
        self.slots.insert(key, Box::new(value));
    }

    /// Whether an artifact is present.
    pub fn contains(&self, key: &str) -> bool {
        self.slots.contains_key(key)
    }

    /// Borrows an artifact.
    ///
    /// # Errors
    ///
    /// [`PassError::MissingArtifact`] when absent,
    /// [`PassError::TypeMismatch`] when present under a different type.
    pub fn get<T: Any>(&self, key: &'static str) -> Result<&T, PassError> {
        self.slots
            .get(key)
            .ok_or(PassError::MissingArtifact { key })?
            .downcast_ref::<T>()
            .ok_or(PassError::TypeMismatch { key })
    }

    /// Removes and returns an artifact (for passes that mutate an input
    /// in place and re-publish it).
    ///
    /// # Errors
    ///
    /// Same conditions as [`PassContext::get`].
    pub fn take<T: Any>(&mut self, key: &'static str) -> Result<T, PassError> {
        let boxed = self
            .slots
            .remove(key)
            .ok_or(PassError::MissingArtifact { key })?;
        match boxed.downcast::<T>() {
            Ok(v) => Ok(*v),
            Err(boxed) => {
                // Put the artifact back so a failed take is non-destructive.
                self.slots.insert(key, boxed);
                Err(PassError::TypeMismatch { key })
            }
        }
    }
}

/// Structured result of one pass execution: identity, wall-clock time,
/// counters, and human-readable warnings (unresolved indirect targets,
/// unannotated dummies, ...).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassReport {
    /// Pass name (unique within a manager).
    pub pass: &'static str,
    /// Wall-clock microseconds spent inside the pass.
    pub micros: u64,
    /// Named counters, in emission order.
    pub counters: Vec<(&'static str, u64)>,
    /// Human-readable warnings, in emission order.
    pub warnings: Vec<String>,
}

impl PassReport {
    /// Records a counter.
    pub fn count(&mut self, name: &'static str, value: u64) {
        self.counters.push((name, value));
    }

    /// Records a warning.
    pub fn warn(&mut self, message: impl Into<String>) {
        self.warnings.push(message.into());
    }

    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

/// Typed failure of a pipeline run.
#[derive(Debug)]
pub enum PassError {
    /// A pass asked for an artifact nothing has published.
    MissingArtifact {
        /// The artifact key.
        key: &'static str,
    },
    /// An artifact exists under `key` but with a different type.
    TypeMismatch {
        /// The artifact key.
        key: &'static str,
    },
    /// A pass declared an output it did not publish.
    MissingOutput {
        /// The pass at fault.
        pass: &'static str,
        /// The undeclared-but-promised artifact key.
        key: &'static str,
    },
    /// The parametric solve failed.
    Solve(SolveError),
}

impl fmt::Display for PassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PassError::MissingArtifact { key } => {
                write!(f, "no pass published required artifact `{key}`")
            }
            PassError::TypeMismatch { key } => {
                write!(f, "artifact `{key}` has an unexpected type")
            }
            PassError::MissingOutput { pass, key } => {
                write!(f, "pass `{pass}` did not publish declared output `{key}`")
            }
            PassError::Solve(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PassError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PassError::Solve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SolveError> for PassError {
    fn from(e: SolveError) -> Self {
        PassError::Solve(e)
    }
}

/// One pipeline stage. Implementations read their declared inputs from
/// the [`PassContext`], publish their declared outputs back into it, and
/// report counters/warnings through the provided [`PassReport`] (timing
/// is recorded by the manager).
pub trait Pass {
    /// Unique pass name (also the report and span label).
    fn name(&self) -> &'static str;
    /// Artifact keys this pass reads.
    fn inputs(&self) -> &'static [&'static str];
    /// Artifact keys this pass publishes.
    fn outputs(&self) -> &'static [&'static str];
    /// Runs the pass.
    ///
    /// # Errors
    ///
    /// Returns a typed [`PassError`] on failure.
    fn run(&self, cx: &mut PassContext, report: &mut PassReport) -> Result<(), PassError>;
}

/// Runs an ordered list of [`Pass`]es over a [`PassContext`], enforcing
/// the declared dataflow and collecting one [`PassReport`] per pass.
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl fmt::Debug for PassManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PassManager")
            .field("passes", &self.pass_names())
            .finish()
    }
}

impl PassManager {
    /// An empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// The standard pipeline, in its fixed deterministic order:
    /// points-to → tcfg → modref → symbolic → annotate → items →
    /// netbuild → solve → compile.
    pub fn standard() -> Self {
        let mut m = Self::new();
        m.register(Box::new(PointsToPass));
        m.register(Box::new(TcfgPass));
        m.register(Box::new(ModRefPass));
        m.register(Box::new(SymbolicPass));
        m.register(Box::new(AnnotatePass));
        m.register(Box::new(ItemsPass));
        m.register(Box::new(NetBuildPass));
        m.register(Box::new(SolvePass));
        m.register(Box::new(CompilePass));
        m
    }

    /// Appends a pass. Execution order is registration order.
    pub fn register(&mut self, pass: Box<dyn Pass>) {
        self.passes.push(pass);
    }

    /// Registered pass names, in execution order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs every registered pass in order over `cx`.
    ///
    /// Before each pass runs, its declared inputs must be present in the
    /// context; after it runs, its declared outputs must be. Either
    /// violation aborts the run with a typed error, so a mis-registered
    /// pipeline fails at the pass boundary instead of deep inside an
    /// analysis.
    ///
    /// # Errors
    ///
    /// The first [`PassError`] encountered.
    pub fn run(&self, cx: &mut PassContext) -> Result<Vec<PassReport>, PassError> {
        let mut reports = Vec::with_capacity(self.passes.len());
        for pass in &self.passes {
            for &key in pass.inputs() {
                if !cx.contains(key) {
                    return Err(PassError::MissingArtifact { key });
                }
            }
            let mut report = PassReport {
                pass: pass.name(),
                ..PassReport::default()
            };
            let span = if offload_obs::enabled() {
                offload_obs::begin_span("passes", pass.name(), Vec::new())
            } else {
                offload_obs::SpanGuard::disabled()
            };
            let start = Instant::now();
            pass.run(cx, &mut report)?;
            report.micros = start.elapsed().as_micros() as u64;
            drop(span);
            for &key in pass.outputs() {
                if !cx.contains(key) {
                    return Err(PassError::MissingOutput {
                        pass: pass.name(),
                        key,
                    });
                }
            }
            reports.push(report);
        }
        Ok(reports)
    }
}

fn origin_site(origin: &DummyOrigin) -> &str {
    match origin {
        DummyOrigin::AutoCond { site, .. }
        | DummyOrigin::BranchFreq { site }
        | DummyOrigin::TripCount { site }
        | DummyOrigin::AllocSize { site }
        | DummyOrigin::Recursion { site } => site,
    }
}

fn origin_kind(origin: &DummyOrigin) -> &'static str {
    match origin {
        DummyOrigin::AutoCond { .. } => "auto condition",
        DummyOrigin::BranchFreq { .. } => "branch frequency",
        DummyOrigin::TripCount { .. } => "trip count",
        DummyOrigin::AllocSize { .. } => "allocation size",
        DummyOrigin::Recursion { .. } => "recursion count",
    }
}

/// §2.3: Andersen-style points-to analysis ([`PointsTo::analyze`]).
pub struct PointsToPass;

impl Pass for PointsToPass {
    fn name(&self) -> &'static str {
        "points-to"
    }

    fn inputs(&self) -> &'static [&'static str] {
        &[keys::MODULE]
    }

    fn outputs(&self) -> &'static [&'static str] {
        &[keys::POINTS_TO]
    }

    fn run(&self, cx: &mut PassContext, report: &mut PassReport) -> Result<(), PassError> {
        let module = cx.get::<Module>(keys::MODULE)?;
        let pta = PointsTo::analyze(module);
        report.count("abs_locs", pta.locs().len() as u64);
        report.count("alloc_sites", pta.alloc_site_locs().count() as u64);
        let per_site = &pta.indirect_targets().per_site;
        report.count("indirect_sites", per_site.len() as u64);
        report.count(
            "resolved_targets",
            per_site.values().map(|t| t.len() as u64).sum(),
        );
        // HashMap iteration order is arbitrary: sort the warning sites so
        // reports are bit-stable run to run.
        let mut unresolved: Vec<_> = per_site
            .iter()
            .filter(|(_, targets)| targets.is_empty())
            .map(|(&(func, block, inst), _)| (func.index(), block, inst))
            .collect();
        unresolved.sort_unstable();
        for (func, block, inst) in unresolved {
            report.warn(format!(
                "indirect call in `{}` ({block:?}, inst {inst}) has no resolved targets",
                module.functions[func].name
            ));
        }
        cx.put(keys::POINTS_TO, pta);
        Ok(())
    }
}

/// Algorithm 1: task formation over the IR ([`Tcfg::build`]).
pub struct TcfgPass;

impl Pass for TcfgPass {
    fn name(&self) -> &'static str {
        "tcfg"
    }

    fn inputs(&self) -> &'static [&'static str] {
        &[keys::MODULE, keys::POINTS_TO]
    }

    fn outputs(&self) -> &'static [&'static str] {
        &[keys::TCFG]
    }

    fn run(&self, cx: &mut PassContext, report: &mut PassReport) -> Result<(), PassError> {
        let module = cx.get::<Module>(keys::MODULE)?;
        let pta = cx.get::<PointsTo>(keys::POINTS_TO)?;
        let tcfg = Tcfg::build(module, pta.indirect_targets());
        report.count("segments", tcfg.segments().len() as u64);
        report.count("tasks", tcfg.tasks().len() as u64);
        report.count("edges", tcfg.edges().len() as u64);
        report.count(
            "io_tasks",
            tcfg.tasks().iter().filter(|t| t.is_io).count() as u64,
        );
        cx.put(keys::TCFG, tcfg);
        Ok(())
    }
}

/// §2.4 inputs: per-task mod/ref classification ([`ModRef::compute`]).
pub struct ModRefPass;

impl Pass for ModRefPass {
    fn name(&self) -> &'static str {
        "modref"
    }

    fn inputs(&self) -> &'static [&'static str] {
        &[keys::MODULE, keys::TCFG, keys::POINTS_TO]
    }

    fn outputs(&self) -> &'static [&'static str] {
        &[keys::MODREF]
    }

    fn run(&self, cx: &mut PassContext, report: &mut PassReport) -> Result<(), PassError> {
        let module = cx.get::<Module>(keys::MODULE)?;
        let tcfg = cx.get::<Tcfg>(keys::TCFG)?;
        let pta = cx.get::<PointsTo>(keys::POINTS_TO)?;
        let modref = ModRef::compute(module, tcfg, pta);
        report.count("locs_touched", modref.touched_locs().len() as u64);
        let mut entries = 0u64;
        let mut definite_writes = 0u64;
        let mut partial_writes = 0u64;
        let mut upward_reads = 0u64;
        for i in 0..tcfg.tasks().len() {
            for summary in modref.task(TaskId(i as u32)).per_loc.values() {
                entries += 1;
                definite_writes += u64::from(summary.definite_write);
                partial_writes += u64::from(summary.partial_write);
                upward_reads += u64::from(summary.upward_exposed_read);
            }
        }
        report.count("access_entries", entries);
        report.count("definite_writes", definite_writes);
        report.count("partial_writes", partial_writes);
        report.count("upward_exposed_reads", upward_reads);
        cx.put(keys::MODREF, modref);
        Ok(())
    }
}

/// §3.3–3.4: symbolic flow-constraint analysis ([`Symbolic::analyze`]).
pub struct SymbolicPass;

impl Pass for SymbolicPass {
    fn name(&self) -> &'static str {
        "symbolic"
    }

    fn inputs(&self) -> &'static [&'static str] {
        &[keys::MODULE, keys::POINTS_TO]
    }

    fn outputs(&self) -> &'static [&'static str] {
        &[keys::SYMBOLIC]
    }

    fn run(&self, cx: &mut PassContext, report: &mut PassReport) -> Result<(), PassError> {
        let module = cx.get::<Module>(keys::MODULE)?;
        let pta = cx.get::<PointsTo>(keys::POINTS_TO)?;
        let symbolic = Symbolic::analyze(module, pta.indirect_targets());
        report.count("params", symbolic.dict.param_count() as u64);
        report.count("monomials", symbolic.dict.monomial_count() as u64);
        report.count("dummies", symbolic.dict.dummies().len() as u64);
        report.count(
            "auto_dummies",
            symbolic
                .dict
                .dummies()
                .iter()
                .filter(|d| d.is_auto())
                .count() as u64,
        );
        cx.put(keys::SYMBOLIC, symbolic);
        Ok(())
    }
}

/// §3.4: resolves annotations and substitutes every polynomial rule, so
/// annotated dummies disappear from the costs before they can become
/// polyhedral dimensions. Function-rule annotations stay as dimensions
/// and are evaluated at dispatch time.
pub struct AnnotatePass;

impl Pass for AnnotatePass {
    fn name(&self) -> &'static str {
        "annotate"
    }

    fn inputs(&self) -> &'static [&'static str] {
        &[keys::OPTIONS, keys::SYMBOLIC]
    }

    fn outputs(&self) -> &'static [&'static str] {
        &[keys::SYMBOLIC, keys::ANNOTATIONS]
    }

    fn run(&self, cx: &mut PassContext, report: &mut PassReport) -> Result<(), PassError> {
        let mut symbolic = cx.take::<Symbolic>(keys::SYMBOLIC)?;
        let options = cx.get::<AnalysisOptions>(keys::OPTIONS)?;
        let annotations = options
            .annotate_with
            .as_ref()
            .map_or_else(Annotations::default, |annotate| annotate(&symbolic));
        // Substitute in ascending dummy order: substitution interns new
        // monomials, and the interning order decides every downstream
        // dimension numbering — iterating the map directly would make the
        // analysis differ structurally from run to run.
        let mut rules: Vec<(u32, AnnotationRule)> = annotations
            .exprs
            .iter()
            .map(|(d, r)| (*d, r.clone()))
            .collect();
        rules.sort_by_key(|(d, _)| *d);
        let mut substituted = 0u64;
        let mut func_rules = 0u64;
        for (d, rule) in rules {
            match rule {
                AnnotationRule::Expr(e) => {
                    symbolic.substitute_dummy(d, &e);
                    substituted += 1;
                }
                AnnotationRule::Func(_) => func_rules += 1,
            }
        }
        report.count("rules", annotations.exprs.len() as u64);
        report.count("substituted", substituted);
        report.count("function_rules", func_rules);
        let mut unannotated = 0u64;
        for (d, origin) in symbolic.annotations_required() {
            if !annotations.exprs.contains_key(&d) {
                unannotated += 1;
                report.warn(format!(
                    "dummy d{d} ({} at {}) has no annotation; its cost stays \
                     unbounded and dispatch will fail if it reaches the solution",
                    origin_kind(origin),
                    origin_site(origin),
                ));
            }
        }
        report.count("unannotated", unannotated);
        cx.put(keys::SYMBOLIC, symbolic);
        cx.put(keys::ANNOTATIONS, annotations);
        Ok(())
    }
}

/// Builds the table of tracked data items ([`ItemTable::build`]).
pub struct ItemsPass;

impl Pass for ItemsPass {
    fn name(&self) -> &'static str {
        "items"
    }

    fn inputs(&self) -> &'static [&'static str] {
        &[keys::TCFG, keys::POINTS_TO, keys::MODREF, keys::SYMBOLIC]
    }

    fn outputs(&self) -> &'static [&'static str] {
        &[keys::ITEMS]
    }

    fn run(&self, cx: &mut PassContext, report: &mut PassReport) -> Result<(), PassError> {
        let tcfg = cx.get::<Tcfg>(keys::TCFG)?;
        let pta = cx.get::<PointsTo>(keys::POINTS_TO)?;
        let modref = cx.get::<ModRef>(keys::MODREF)?;
        let symbolic = cx.get::<Symbolic>(keys::SYMBOLIC)?;
        let items = ItemTable::build(tcfg, pta, modref, symbolic);
        report.count("items", items.items.len() as u64);
        cx.put(keys::ITEMS, items);
        Ok(())
    }
}

/// Theorem 1: reduction to a parametric min-cut network ([`NetBuilder`]).
pub struct NetBuildPass;

impl Pass for NetBuildPass {
    fn name(&self) -> &'static str {
        "netbuild"
    }

    fn inputs(&self) -> &'static [&'static str] {
        &[
            keys::MODULE,
            keys::OPTIONS,
            keys::TCFG,
            keys::MODREF,
            keys::SYMBOLIC,
            keys::ITEMS,
        ]
    }

    fn outputs(&self) -> &'static [&'static str] {
        &[keys::SYMBOLIC, keys::BOUNDS, keys::NETWORK]
    }

    fn run(&self, cx: &mut PassContext, report: &mut PassReport) -> Result<(), PassError> {
        let mut symbolic = cx.take::<Symbolic>(keys::SYMBOLIC)?;
        let options = cx.get::<AnalysisOptions>(keys::OPTIONS)?;
        let mut bounds = options.bounds.clone();
        if bounds.per_param.is_empty() {
            bounds = ParamBounds::uniform(symbolic.dict.param_count(), 0, None);
        }
        let network = NetBuilder {
            module: cx.get::<Module>(keys::MODULE)?,
            tcfg: cx.get::<Tcfg>(keys::TCFG)?,
            modref: cx.get::<ModRef>(keys::MODREF)?,
            symbolic: &mut symbolic,
            items: cx.get::<ItemTable>(keys::ITEMS)?,
            cost: &cx.get::<AnalysisOptions>(keys::OPTIONS)?.cost,
            bounds: &bounds,
            validity_model: cx.get::<AnalysisOptions>(keys::OPTIONS)?.validity_model,
        }
        .build();
        report.count("nodes", network.net.node_count() as u64);
        report.count("arcs", network.net.arcs().len() as u64);
        report.count("dims", network.dims.len() as u64);
        cx.put(keys::SYMBOLIC, symbolic);
        cx.put(keys::BOUNDS, bounds);
        cx.put(keys::NETWORK, network);
        Ok(())
    }
}

/// Algorithm 2: the parametric solve (`parametric::solve_with_probes`),
/// seeded with the standard probe-point grid.
pub struct SolvePass;

impl Pass for SolvePass {
    fn name(&self) -> &'static str {
        "solve"
    }

    fn inputs(&self) -> &'static [&'static str] {
        &[
            keys::OPTIONS,
            keys::TCFG,
            keys::SYMBOLIC,
            keys::ITEMS,
            keys::BOUNDS,
            keys::NETWORK,
        ]
    }

    fn outputs(&self) -> &'static [&'static str] {
        &[keys::PARTITION]
    }

    fn run(&self, cx: &mut PassContext, report: &mut PassReport) -> Result<(), PassError> {
        let options = cx.get::<AnalysisOptions>(keys::OPTIONS)?;
        let symbolic = cx.get::<Symbolic>(keys::SYMBOLIC)?;
        let bounds = cx.get::<ParamBounds>(keys::BOUNDS)?;
        let network = cx.get::<PartitionNetwork>(keys::NETWORK)?;
        let tcfg = cx.get::<Tcfg>(keys::TCFG)?;
        let items = cx.get::<ItemTable>(keys::ITEMS)?;
        let probes = crate::probe_points(&symbolic.dict, network, bounds);
        let partition = parametric::solve_with_probes(
            network,
            tcfg,
            items.items.len(),
            &options.solve,
            &probes,
        )?;
        report.count("probe_points", probes.len() as u64);
        report.count("choices", partition.choices.len() as u64);
        let p = &partition.stats.pipeline;
        report.count("regions_explored", p.regions_explored);
        report.count("rounds", p.rounds);
        report.count("flow_solves", p.flow_solves);
        report.count("lp_solves", p.lp_solves);
        cx.put(keys::PARTITION, partition);
        Ok(())
    }
}

/// Figure 2: builds the run-time selector and compiles it to plane sign
/// tests ([`Dispatcher::compile`]).
pub struct CompilePass;

impl Pass for CompilePass {
    fn name(&self) -> &'static str {
        "compile"
    }

    fn inputs(&self) -> &'static [&'static str] {
        &[
            keys::SYMBOLIC,
            keys::ANNOTATIONS,
            keys::NETWORK,
            keys::PARTITION,
        ]
    }

    fn outputs(&self) -> &'static [&'static str] {
        &[keys::DISPATCHER, keys::COMPILED]
    }

    fn run(&self, cx: &mut PassContext, report: &mut PassReport) -> Result<(), PassError> {
        let symbolic = cx.get::<Symbolic>(keys::SYMBOLIC)?;
        let annotations = cx.get::<Annotations>(keys::ANNOTATIONS)?;
        let network = cx.get::<PartitionNetwork>(keys::NETWORK)?;
        let partition = cx.get::<ParametricPartition>(keys::PARTITION)?;
        let dispatcher = Dispatcher::new(symbolic.dict.clone(), annotations.clone());
        let compiled = dispatcher.compile(network, partition);
        let stats = compiled.stats();
        report.count("planes", stats.planes as u64);
        report.count("pieces", stats.pieces as u64);
        report.count("slots", stats.slots as u64);
        cx.put(keys::DISPATCHER, dispatcher);
        cx.put(keys::COMPILED, compiled);
        Ok(())
    }
}
