//! The per-layer rows of a traced run.
//!
//! Every traced run prints the same rows, whichever workload it drives:
//!
//! * the compile rows, from the pass-by-pass compiles of the run (the
//!   timed rounds on `compile`, the set-up rounds elsewhere, since every
//!   workload's set-up compiles the six programs);
//! * the solver counts (the work counters and the LP cache hits) and
//!   decision-DAG sizes of those compiles;
//! * the select/codec rows and frame sizes, from the workload's own
//!   batches on `dispatch` and from a fixed in-process sample elsewhere;
//! * the runtime rows, from the workload's own runs on `offload` and from
//!   one in-process run per program elsewhere;
//! * the `op.*` rows, which split the workload's own operation into the
//!   in-process layer time it contains and the remainder;
//! * the run's median yardstick time, which relates these rows (times as
//!   measured) to the end-to-end metrics (times at the reference speed).
//!
//! Every time row is a per-program median summed over the programs.

use crate::common::{ms, us, ProbeStats, Timed, COMPILE_ROWS};
use crate::stats::{PerProgram, Samples};
use crate::trace::Tracer;
use crate::Ctx;
use offload_core::{Analysis, CompiledStats, PipelineStats};
use offload_runtime::RunStats;
use std::collections::HashMap;

/// Runtime samples at the offload points.
pub struct RuntimeRows {
    pub split: PerProgram,
    pub local: PerProgram,
    /// Stats of each program's split run, which must repeat exactly.
    pub split_stats: Vec<Option<RunStats>>,
    /// Instructions of each program's all-local run.
    pub local_instructions: Vec<u64>,
}

impl RuntimeRows {
    pub fn new(programs: usize) -> RuntimeRows {
        RuntimeRows {
            split: PerProgram::new(programs),
            local: PerProgram::new(programs),
            split_stats: vec![None; programs],
            local_instructions: vec![0; programs],
        }
    }
}

/// The workload's own operation, traced and untraced, split into the
/// in-process layer time it contains and the rest; the two parts add up
/// to `traced` (as sums of per-program medians, as measured) by
/// construction.
pub struct OpRows {
    pub untraced: Timed,
    pub traced: Timed,
    pub compute_ms: f64,
    pub remainder_ms: f64,
}

impl OpRows {
    /// Rows for an operation whose in-process layers were measured: the
    /// remainder is what the round trip or session adds to them.
    pub fn measured_compute(untraced: Timed, traced: Timed, compute_ms: f64) -> OpRows {
        let remainder_ms = ms(traced.raw.suite_median_ns()) - compute_ms;
        OpRows {
            untraced,
            traced,
            compute_ms,
            remainder_ms,
        }
    }
}

/// Sum over programs of the median self time (or whole duration) of the
/// spans called `name`.
fn span_suite_ns(
    by_name: &HashMap<(&'static str, u32), Vec<u64>>,
    name: &'static str,
    programs: usize,
) -> f64 {
    (0..programs as u32)
        .map(|p| {
            by_name
                .get(&(name, p))
                .map_or(f64::NAN, |v| Samples::from_ns(v.clone()).median_ns())
        })
        .sum()
}

/// The traced compile, in ms: one row per layer, the whole compile they
/// must add up to, and the compile span's own self time (the harness
/// between the layer calls).
pub struct CompileRows {
    pub rows: Vec<(&'static str, f64)>,
    pub wall_ms: f64,
    pub harness_ms: f64,
}

pub fn compile_rows(tr: &Tracer, programs: usize) -> CompileRows {
    let self_times = tr.by_name(true);
    CompileRows {
        rows: COMPILE_ROWS
            .iter()
            .map(|&row| (row, ms(span_suite_ns(&self_times, row, programs))))
            .collect(),
        wall_ms: ms(span_suite_ns(&tr.by_name(false), "compile", programs)),
        harness_ms: ms(span_suite_ns(&self_times, "compile", programs)),
    }
}

/// Adds every per-layer row to `report`; `analyses` are the six compiled
/// programs the run checked against its set-up round.
pub fn report(
    ctx: &mut Ctx,
    analyses: &[&Analysis],
    timing: &ProbeStats,
    sizes: &ProbeStats,
    runtime: &RuntimeRows,
    op: &OpRows,
) {
    let (report, tr) = (&mut ctx.report, &ctx.tracer);
    let compile = compile_rows(tr, analyses.len());
    for &(row, v) in &compile.rows {
        report.metric(&format!("{row}_ms"), v, "ms");
    }
    let rows_ms: f64 = compile.rows.iter().map(|r| r.1).sum();
    let compile_wall = compile.wall_ms;
    report.lines.push(format!(
        "traced compile: layer rows {rows_ms:.3} ms of {compile_wall:.3} ms wall ({:.2}% unattributed)",
        100.0 * (compile_wall - rows_ms) / compile_wall
    ));
    report.check(
        (compile_wall - rows_ms).abs() <= 0.05 * compile_wall,
        || format!("compile rows sum to {rows_ms:.3} ms, traced wall is {compile_wall:.3} ms"),
    );

    let work: Vec<PipelineStats> = analyses.iter().map(|a| a.pipeline_stats()).collect();
    let sum = |f: &dyn Fn(&PipelineStats) -> u64| work.iter().map(f).sum::<u64>() as f64;
    report.metric("flow.solves", sum(&|o| o.flow_solves), "count");
    report.metric(
        "flow.augmenting_paths",
        sum(&|o| o.flow_augmenting_paths),
        "count",
    );
    report.metric("poly.lp_solves", sum(&|o| o.lp_solves), "count");
    report.metric("poly.lp_pivots", sum(&|o| o.lp_pivots), "count");
    report.metric("poly.lp_cache_hits", sum(&|o| o.lp_cache_hits), "count");
    report.metric(
        "poly.fm_vars_eliminated",
        sum(&|o| o.fm_vars_eliminated),
        "count",
    );
    report.metric("poly.fm_constraints", sum(&|o| o.fm_constraints), "count");
    report.metric(
        "poly.shadow_fallbacks",
        sum(&|o| o.shadow_fallbacks),
        "count",
    );
    report.metric(
        "core.regions_explored",
        sum(&|o| o.regions_explored),
        "count",
    );
    report.metric("core.rounds", sum(&|o| o.rounds), "count");
    let dags: Vec<CompiledStats> = analyses.iter().map(|a| a.compiled.stats()).collect();
    let dag = |f: &dyn Fn(&CompiledStats) -> usize| dags.iter().map(f).sum::<usize>() as f64;
    report.metric("core.dag_nodes", dag(&|d| d.nodes), "count");
    report.metric("core.dag_scan_leaves", dag(&|d| d.scan_leaves), "count");
    report.metric("core.dag_max_depth", dag(&|d| d.max_depth), "count");

    report.metric("core.select_us", us(timing.select.suite_median_ns()), "us");
    report.metric("net.codec_us", us(timing.codec.suite_median_ns()), "us");
    report.metric(
        "net.request_bytes",
        sizes.request_bytes.suite_median_ns(),
        "bytes",
    );
    report.metric(
        "net.reply_bytes",
        sizes.reply_bytes.suite_median_ns(),
        "bytes",
    );

    let split_ms = ms(runtime.split.suite_median_ns());
    let local_ms = ms(runtime.local.suite_median_ns());
    let stats: Vec<&RunStats> = runtime.split_stats.iter().flatten().collect();
    let count = |f: &dyn Fn(&RunStats) -> u64| stats.iter().map(|s| f(s)).sum::<u64>() as f64;
    let local_instructions: u64 = runtime.local_instructions.iter().sum();
    report.metric("runtime.split_ms", split_ms, "ms");
    report.metric("runtime.local_ms", local_ms, "ms");
    report.metric(
        "runtime.ns_per_instruction",
        local_ms * 1e6 / local_instructions as f64,
        "ns",
    );
    report.metric("runtime.instructions", count(&|s| s.instructions), "count");
    report.metric("runtime.messages", count(&|s| s.messages), "count");
    report.metric(
        "runtime.slots_transferred",
        count(&|s| s.slots_transferred),
        "count",
    );
    report.metric("runtime.lazy_pulls", count(&|s| s.lazy_pulls), "count");
    report.metric(
        "runtime.virtual_time",
        stats.iter().map(|s| s.total_time.to_f64()).sum(),
        "units",
    );

    report.metric(
        "op.untraced_ms",
        ms(op.untraced.raw.suite_median_ns()),
        "ms",
    );
    report.metric("op.traced_ms", ms(op.traced.raw.suite_median_ns()), "ms");
    // Traced and untraced rounds alternate but still see different host
    // spells, so the overhead compares them at the reference speed.
    let (untraced, traced) = (
        op.untraced.norm.suite_median_ns(),
        op.traced.norm.suite_median_ns(),
    );
    report.metric(
        "trace.overhead_pct",
        100.0 * (traced - untraced) / untraced,
        "%",
    );
    report.metric("op.compute_ms", op.compute_ms, "ms");
    report.metric("op.remainder_ms", op.remainder_ms, "ms");
    let pooled = op.untraced.raw.pooled();
    report.metric("op.p99_ms", ms(pooled.quantile_ns(0.99)), "ms");
    report.metric("op.samples", pooled.len() as f64, "count");
    report.metric(
        "host.yardstick_ms",
        ms(Samples::from_ns(ctx.yard.clone()).median_ns()),
        "ms",
    );
}
