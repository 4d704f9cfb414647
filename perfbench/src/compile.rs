//! `compile`: source → compiled dispatcher for every program, in process.
//!
//! Set-up is one cold round over the six programs (repeated
//! `SETUP_ROUNDS` times for a steady `setup_s`); its outcomes are the
//! reference every later compile must reproduce. The timed phase repeats
//! the programs in round-robin rounds and times each compile alone. No
//! `net` or `runtime` code runs, and the solver does most of the work,
//! so solver changes show here first.

use crate::common::{
    compile, compile_traced, describe, describe_programs, ms, ns_since, probe_sample,
    report_end_to_end, split_run, Outcome, Report, Timed, SETUP_ROUNDS,
};
use crate::layers::{self, OpRows, RuntimeRows};
use crate::Ctx;
use offload_core::Analysis;
use offload_net::ServerHandle;
use std::time::{Duration, Instant};

/// Compiles every program once, traced when the tracer is on. The first
/// call's outcomes become `refs`; later calls are checked against them.
pub fn compile_all(
    ctx: &mut Ctx,
    refs: &mut Vec<Outcome>,
    round: u64,
) -> Result<Vec<Analysis>, String> {
    let mut out = Vec::with_capacity(ctx.programs.len());
    for (p, b) in ctx.programs.iter().enumerate() {
        let a = if ctx.tracer.is_on() {
            compile_traced(b, p, round, &mut ctx.tracer)
        } else {
            compile(b)
        }
        .map_err(|e| format!("{}: {e}", b.name))?;
        check(&mut ctx.report, b.name, refs, p, &a);
        out.push(a);
    }
    Ok(out)
}

fn check(report: &mut Report, name: &str, refs: &mut Vec<Outcome>, p: usize, a: &Analysis) {
    let outcome = Outcome::of(a);
    if refs.len() == p {
        refs.push(outcome);
        report.attempt("compiles", None);
        return;
    }
    let problem = (outcome != refs[p]).then(|| {
        format!("{name}: partition choices, work counters or LP cache hits differ from the set-up round")
    });
    report.attempt("compiles", problem);
}

/// Runs `SETUP_ROUNDS` set-ups through `setup` and records each one's
/// time in `ctx.setup_times`; the first is timed from process start. Each
/// round's clock stops before the servers it bound are stopped. Returns
/// what the last set-up built.
pub fn repeated_setup<T>(
    ctx: &mut Ctx,
    mut setup: impl FnMut(&mut Ctx, u64) -> Result<(T, Vec<ServerHandle>), String>,
) -> Result<T, String> {
    let mut last = None;
    for round in 0..SETUP_ROUNDS as u64 {
        // Drop the previous set-up first, so each one starts from the
        // same state and the peak resident set holds one of them.
        drop(last.take());
        let t = if round == 0 {
            ctx.start
        } else {
            Instant::now()
        };
        let (built, servers) = setup(ctx, round)?;
        ctx.setup_times.push(ns_since(t));
        drop(servers);
        last = Some(built);
    }
    Ok(last.expect("at least one set-up round"))
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let n = ctx.programs.len();
    let mut refs = Vec::new();
    let analyses = repeated_setup(ctx, |ctx, round| {
        ctx.tracer.set_on(false);
        Ok((compile_all(ctx, &mut refs, round)?, Vec::new()))
    })?;
    // The traced run keeps the last set-up's analyses for the in-process
    // probes after the timed phase; the untraced run compiles one
    // program at a time from here on.
    let analyses = if ctx.trace { analyses } else { Vec::new() };

    let mut untraced = Timed::new(n);
    let mut traced = Timed::new(n);
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut round = 0u64;
    'timed: loop {
        let trace_round = ctx.trace && round % 2 == 1;
        ctx.tracer.set_on(trace_round);
        for p in 0..n {
            if Instant::now() >= deadline {
                break 'timed;
            }
            let op = SETUP_ROUNDS as u64 + round;
            let yard = ctx.yardstick_ns()?;
            let b = &ctx.programs[p];
            let t = Instant::now();
            let a = if trace_round {
                compile_traced(b, p, op, &mut ctx.tracer)
            } else {
                compile(b)
            };
            let ns = ns_since(t);
            match a {
                Ok(a) => {
                    if trace_round {
                        traced.push(p, ns, yard);
                    } else {
                        untraced.push(p, ns, yard);
                    }
                    check(&mut ctx.report, b.name, &mut refs, p, &a);
                }
                Err(e) => ctx
                    .report
                    .attempt("compiles", Some(format!("{}: {e}", b.name))),
            }
        }
        round += 1;
    }
    ctx.tracer.set_on(false);
    if !untraced.raw.covers_all() || (ctx.trace && !traced.raw.covers_all()) {
        return Err(format!(
            "{} s is too short for a full round of every program",
            ctx.seconds
        ));
    }
    ctx.report.lines.push(describe(
        "compile (pooled over programs)",
        &untraced.raw.pooled(),
    ));
    ctx.report
        .lines
        .push(describe_programs("compile", &ctx.programs, &untraced.raw));

    if !ctx.trace {
        return report_end_to_end(ctx, &untraced);
    }

    ctx.tracer.set_on(true);
    let refs_a: Vec<&Analysis> = analyses.iter().collect();
    let probes = probe_sample(
        ctx.seed,
        &ctx.programs,
        &refs_a,
        &mut ctx.tracer,
        &mut ctx.report,
    )?;
    let runtime = runtime_sample(ctx, &refs_a);
    ctx.tracer.set_on(false);
    // The layer calls are the compile's compute; the remainder is the
    // harness between them (the compile span's self time).
    let harness_ms = layers::compile_rows(&ctx.tracer, n).harness_ms;
    let traced_ms = ms(traced.raw.suite_median_ns());
    layers::report(
        ctx,
        &refs_a,
        &probes,
        &probes,
        &runtime,
        &OpRows {
            untraced,
            traced,
            compute_ms: traced_ms - harness_ms,
            remainder_ms: harness_ms,
        },
    );
    Ok(())
}

/// One all-local and one split run per program at its offload point, in
/// process, for the runtime rows of a workload that does not run
/// programs itself.
pub fn runtime_sample(ctx: &mut Ctx, analyses: &[&Analysis]) -> RuntimeRows {
    let mut rows = RuntimeRows::new(ctx.programs.len());
    for (p, (b, a)) in ctx.programs.iter().zip(analyses).enumerate() {
        match split_run(ctx.seed, p, b, a, &mut ctx.tracer, 0) {
            Ok((local, split, local_ns, split_ns)) => {
                rows.local.push(p, local_ns);
                rows.split.push(p, split_ns);
                rows.local_instructions[p] = local.stats.instructions;
                rows.split_stats[p] = Some(split.stats);
                ctx.report.attempt("runtime probes", None);
            }
            Err(e) => ctx
                .report
                .attempt("runtime probes", Some(format!("{}: {e}", b.name))),
        }
    }
    rows
}
