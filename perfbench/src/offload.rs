//! `offload`: each program runs at a parameter point where the dispatcher
//! picks a partitioned choice, through `OffloadEngine::run` over loopback
//! against a server holding that program's analysis.
//!
//! Set-up compiles every program and binds one server per program. In the
//! timed phase each run gets a server of its own, bound after the run's
//! yardstick sample and stopped after the run, so no program thread is
//! alive while the yardstick runs.
//!
//! Programs go round-robin. The untraced run times offloaded runs only,
//! checking each against the all-local outputs prepared on the program's
//! first visit; the traced run also pairs each offloaded run with the
//! all-local run and the in-process split (for the runtime rows),
//! alternating which goes first. The path drives the interpreter, the
//! `Hello` handshake, the session thread and the item traffic, and
//! bypasses the solver and the dispatch pool.

use crate::common::{
    bind_server, describe, describe_programs, device, draw_input, ms, ns_since, offload_point,
    probe_sample, report_end_to_end, split_run, Timed,
};
use crate::compile::{compile_all, repeated_setup};
use crate::layers::{self, OpRows, RuntimeRows};
use crate::Ctx;
use offload_core::Analysis;
use offload_net::{ClientConfig, OffloadEngine, ServerHandle};
use offload_runtime::{RunStats, Simulator};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What every run of a program must reproduce, prepared on the program's
/// first visit in the timed phase (untimed): the dispatcher's choice, the
/// all-local outputs and the exact counts of the in-process split.
struct Expected {
    choice: usize,
    outputs: Vec<i64>,
    split: RunStats,
    local_instructions: u64,
}

fn setup(
    ctx: &mut Ctx,
    refs: &mut Vec<crate::common::Outcome>,
    round: u64,
) -> Result<(Vec<Arc<Analysis>>, Vec<ServerHandle>), String> {
    ctx.tracer.set_on(ctx.trace);
    let analyses = compile_all(ctx, refs, round);
    ctx.tracer.set_on(false);
    let analyses: Vec<Arc<Analysis>> = analyses?.into_iter().map(Arc::new).collect();
    let handles = analyses
        .iter()
        .map(bind_server)
        .collect::<Result<Vec<_>, _>>()?;
    Ok((analyses, handles))
}

/// Checks an offloaded run against the expected choice, outputs and the
/// in-process split's exact counts.
fn offload_problem(
    run: &Result<offload_net::RunReport, offload_net::NetError>,
    expected: &Expected,
) -> Option<String> {
    let report = match run {
        Ok(r) => r,
        Err(e) => return Some(format!("error: {e}")),
    };
    if !report.offloaded || report.fell_back {
        return Some(format!(
            "not offloaded (fell back: {:?})",
            report.fallback_reason
        ));
    }
    if report.choice != expected.choice {
        return Some(format!(
            "ran choice {}, the dispatcher picks {}",
            report.choice, expected.choice
        ));
    }
    if report.result.outputs != expected.outputs {
        return Some("outputs differ from the all-local run".into());
    }
    if report.result.stats != expected.split {
        return Some("run counts differ from the in-process split".into());
    }
    None
}

fn expect(
    ctx: &Ctx,
    p: usize,
    a: &Analysis,
    params: &[i64],
    input: &[i64],
) -> Result<Expected, String> {
    let name = ctx.programs[p].name;
    let choice = a
        .select(params)
        .map_err(|e| format!("{name}: select: {e}"))?;
    if a.partition.choices[choice].is_all_local() {
        return Err(format!("{name}: the offload point dispatches all-local"));
    }
    let sim = Simulator::new(a, device());
    let local = sim
        .run_local(params, input)
        .map_err(|e| format!("{name}: local run: {e}"))?;
    let split = sim
        .run_choice(choice, params, input)
        .map_err(|e| format!("{name}: split run: {e}"))?;
    if split.outputs != local.outputs {
        return Err(format!(
            "{name}: split outputs differ from the all-local run"
        ));
    }
    Ok(Expected {
        choice,
        local_instructions: local.stats.instructions,
        outputs: local.outputs,
        split: split.stats,
    })
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let n = ctx.programs.len();
    let mut refs = Vec::new();
    let analyses = repeated_setup(ctx, |ctx, round| setup(ctx, &mut refs, round))?;

    let mut expected: Vec<Option<Expected>> = (0..n).map(|_| None).collect();
    let mut offloaded = Timed::new(n);
    let mut offloaded_traced = Timed::new(n);
    let mut runtime = RuntimeRows::new(n);
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut round = 0u64;
    'timed: loop {
        let trace_round = ctx.trace && round % 2 == 1;
        for (p, slot) in expected.iter_mut().enumerate() {
            if Instant::now() >= deadline {
                break 'timed;
            }
            let a: &Analysis = &analyses[p];
            let b = &ctx.programs[p];
            let name = b.name;
            let params = offload_point(b);
            let input = draw_input(ctx.seed, p, b, &params);
            if slot.is_none() {
                *slot = Some(expect(ctx, p, a, &params, &input)?);
            }
            let exp = slot.as_ref().expect("prepared above");
            let op = round * n as u64 + p as u64;
            // The traced round pairs each offloaded run with the all-local
            // run and the in-process split, alternating whether the pair
            // goes before or after it.
            let local_first = trace_round && (round / 2 + p as u64).is_multiple_of(2);
            if local_first {
                ctx.tracer.set_on(true);
                runtime_pair(ctx, &mut runtime, p, a, exp, op);
                ctx.tracer.set_on(false);
            }
            let yard = ctx.yardstick_ns()?;
            let server = bind_server(&analyses[p])?;
            let engine =
                OffloadEngine::new(a, device(), ClientConfig::new(server.addr().to_string()));
            ctx.tracer.set_on(trace_round);
            let span = ctx.tracer.begin("offload.run", p, op);
            let t = Instant::now();
            let off = engine.run(&params, &input);
            let off_ns = ns_since(t);
            ctx.tracer.end(span);
            drop(server);
            let problem = offload_problem(&off, exp).map(|e| format!("{name}: {e}"));
            if problem.is_none() {
                if trace_round {
                    offloaded_traced.push(p, off_ns, yard);
                } else {
                    offloaded.push(p, off_ns, yard);
                }
            }
            ctx.report.attempt("offload runs", problem);
            if trace_round && !local_first {
                runtime_pair(ctx, &mut runtime, p, a, exp, op);
            }
            ctx.tracer.set_on(false);
        }
        round += 1;
    }
    if !offloaded.raw.covers_all() || (ctx.trace && !runtime.split.covers_all()) {
        return Err(format!(
            "{} s is too short for a full round of every program",
            ctx.seconds
        ));
    }
    ctx.report.lines.push(describe_programs(
        "offloaded run",
        &ctx.programs,
        &offloaded.raw,
    ));
    ctx.report.lines.push(describe(
        "offloaded run (pooled over programs)",
        &offloaded.raw.pooled(),
    ));

    if !ctx.trace {
        return report_end_to_end(ctx, &offloaded);
    }

    for (p, e) in expected.iter().enumerate() {
        if let Some(e) = e {
            runtime.split_stats[p] = Some(e.split.clone());
            runtime.local_instructions[p] = e.local_instructions;
        }
    }
    ctx.report.lines.push(describe_programs(
        "all-local run",
        &ctx.programs,
        &runtime.local,
    ));
    ctx.tracer.set_on(true);
    let analyses: Vec<&Analysis> = analyses.iter().map(|a| a.as_ref()).collect();
    let probes = probe_sample(
        ctx.seed,
        &ctx.programs,
        &analyses,
        &mut ctx.tracer,
        &mut ctx.report,
    )?;
    ctx.tracer.set_on(false);
    let compute_ms = ms(runtime.split.suite_median_ns());
    layers::report(
        ctx,
        &analyses,
        &probes,
        &probes,
        &runtime,
        &OpRows::measured_compute(offloaded, offloaded_traced, compute_ms),
    );
    Ok(())
}

/// The runtime pair of a traced round: the all-local run and the
/// in-process split at the same point, checked against the expected
/// outputs and run counts.
fn runtime_pair(
    ctx: &mut Ctx,
    runtime: &mut RuntimeRows,
    p: usize,
    a: &Analysis,
    exp: &Expected,
    op: u64,
) {
    let run = split_run(ctx.seed, p, &ctx.programs[p], a, &mut ctx.tracer, op);
    let problem = match run {
        Ok((local, split, local_ns, split_ns))
            if local.outputs == exp.outputs && split.stats == exp.split =>
        {
            runtime.local.push(p, local_ns);
            runtime.split.push(p, split_ns);
            None
        }
        Ok(_) => Some("all-local or split run differs from the first".to_string()),
        Err(e) => Some(e),
    };
    let name = ctx.programs[p].name;
    ctx.report
        .attempt("runtime pairs", problem.map(|e| format!("{name}: {e}")));
}
