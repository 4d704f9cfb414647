//! `dispatch`: closed-loop `DispatchBatch` round trips.
//!
//! Set-up compiles every program and binds one server per program with
//! that program's analysis as its primary and a one-worker dispatch
//! pool, and checks one batch against each. One client thread then
//! visits the programs round-robin, one chunk of batches at a time: it
//! draws the chunk's points within the program's declared bounds
//! (`common::draw_point`), answers them in process (the expected
//! replies), takes a yardstick sample, binds the program's server,
//! connects, sends the batches one at a time, waiting for each reply
//! before the next, closes, stops the server and checks every reply.
//! Only the round trips are timed; at most one server and one connection
//! are alive at a time, and none while the yardstick runs.

use crate::common::{
    bind_server, describe, describe_programs, draw_batch, ms, ns_since, probe_batch, probe_sample,
    report_end_to_end, sizes_of, us, Outcome, ProbeStats, Rng, Timed, BATCH_POINTS,
};
use crate::compile::{compile_all, repeated_setup, runtime_sample};
use crate::layers::{self, OpRows};
use crate::stats::quantiles_ns;
use crate::Ctx;
use offload_core::Analysis;
use offload_net::{ClientConfig, DispatchClient, ServerHandle};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Batches per chunk: prepared before the chunk's round trips, checked
/// and dropped after them.
const CHUNK_BATCHES: usize = 256;
/// Runs of `select` per point in the traffic census; the census keeps the
/// fastest, the point's own cost without host noise.
const CENSUS_REPS: usize = 5;

struct Programs {
    analyses: Vec<Arc<Analysis>>,
    fingerprints: Vec<u64>,
}

fn config(handle: &ServerHandle) -> ClientConfig {
    ClientConfig::new(handle.addr().to_string())
}

fn connect(handle: &ServerHandle) -> Result<DispatchClient, String> {
    let mut client = DispatchClient::connect(&config(handle)).map_err(|e| e.to_string())?;
    client.set_trace_interval(0);
    Ok(client)
}

fn setup(
    ctx: &mut Ctx,
    refs: &mut Vec<Outcome>,
    round: u64,
) -> Result<(Programs, Vec<ServerHandle>), String> {
    ctx.tracer.set_on(ctx.trace);
    let analyses = compile_all(ctx, refs, round);
    ctx.tracer.set_on(false);
    let analyses: Vec<Arc<Analysis>> = analyses?.into_iter().map(Arc::new).collect();
    let mut handles = Vec::with_capacity(analyses.len());
    let mut fingerprints = Vec::with_capacity(analyses.len());
    for (p, a) in analyses.iter().enumerate() {
        let handle = bind_server(a)?;
        // One checked batch per server: the server answers before the
        // timed phase starts.
        let fp = offload_net::fingerprint(a);
        let mut rng = Rng::new(ctx.seed, 0x3_0000 + p as u64);
        let batch = draw_batch(&mut rng, &ctx.programs[p])?;
        let expected: Result<Vec<u32>, _> = batch
            .iter()
            .map(|q| a.select(q).map(|c| c as u32))
            .collect();
        let mut client = connect(&handle)?;
        let reply = client.dispatch(fp, &batch).map_err(|e| e.to_string());
        client.close();
        let problem = match (reply, expected) {
            (Ok(r), Ok(e)) if r == e => None,
            (Ok(_), Ok(_)) => Some("reply differs from Analysis::select".to_string()),
            (Err(e), _) => Some(e),
            (_, Err(e)) => Some(format!("select: {e}")),
        };
        ctx.report.attempt(
            "set-up batches",
            problem.map(|e| format!("{}: {e}", ctx.programs[p].name)),
        );
        handles.push(handle);
        fingerprints.push(fp);
    }
    Ok((
        Programs {
            analyses,
            fingerprints,
        },
        handles,
    ))
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let n = ctx.programs.len();
    let mut refs = Vec::new();
    let programs = repeated_setup(ctx, |ctx, round| setup(ctx, &mut refs, round))?;

    let mut untraced = Timed::new(n);
    let mut traced = Timed::new(n);
    let mut timing = ProbeStats::new(n);
    let mut points = 0u64;
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut chunk = 0u64;
    while Instant::now() < deadline {
        let p = (chunk % n as u64) as usize;
        let trace_round = ctx.trace && (chunk / n as u64) % 2 == 1;
        let a: &Analysis = &programs.analyses[p];
        let name = ctx.programs[p].name;
        let fp = programs.fingerprints[p];

        // Prepare the chunk: points and expected replies.
        ctx.tracer.set_on(trace_round);
        let mut rng = Rng::new(ctx.seed, chunk);
        let mut batches = Vec::with_capacity(CHUNK_BATCHES);
        let mut expected = Vec::with_capacity(CHUNK_BATCHES);
        for i in 0..CHUNK_BATCHES {
            let batch = draw_batch(&mut rng, &ctx.programs[p])?;
            let op = chunk * CHUNK_BATCHES as u64 + i as u64;
            match probe_batch(a, fp, &batch, &mut ctx.tracer, p, op) {
                Ok(probe) => {
                    if trace_round {
                        timing.record(p, &probe);
                    }
                    expected.push(Some(probe.expected));
                }
                Err(e) => {
                    ctx.report
                        .attempt("select probes", Some(format!("{name}: {e}")));
                    expected.push(None);
                }
            }
            batches.push(batch);
        }

        // The timed round trips, one batch in flight, against a server
        // bound after the yardstick sample.
        ctx.tracer.set_on(false);
        let yard = ctx.yardstick_ns()?;
        ctx.tracer.set_on(trace_round);
        let server = bind_server(&programs.analyses[p])?;
        let mut client = connect(&server)?;
        let mut replies = Vec::with_capacity(CHUNK_BATCHES);
        for (i, batch) in batches.iter().enumerate() {
            let op = chunk * CHUNK_BATCHES as u64 + i as u64;
            let span = ctx.tracer.begin("dispatch.rt", p, op);
            let t = Instant::now();
            let reply = client.dispatch(fp, batch);
            let ns = ns_since(t);
            ctx.tracer.end(span);
            replies.push((reply, ns));
        }
        client.close();
        drop(server);
        ctx.tracer.set_on(false);

        for ((reply, ns), want) in replies.into_iter().zip(&expected) {
            let problem = match (reply, want) {
                (Ok(got), Some(want)) if &got == want => None,
                (Ok(_), Some(_)) => Some("reply differs from Analysis::select".to_string()),
                (Ok(_), None) => Some("no expected reply (select failed)".to_string()),
                (Err(e), _) => Some(e.to_string()),
            };
            if problem.is_none() {
                points += BATCH_POINTS as u64;
                if trace_round {
                    traced.push(p, ns, yard);
                } else {
                    untraced.push(p, ns, yard);
                }
            }
            ctx.report
                .attempt("dispatch batches", problem.map(|e| format!("{name}: {e}")));
        }
        chunk += 1;
    }
    if !untraced.raw.covers_all() || (ctx.trace && !traced.raw.covers_all()) {
        return Err(format!(
            "{} s is too short for a chunk of every program",
            ctx.seconds
        ));
    }
    let pooled = untraced.raw.pooled();
    ctx.report
        .lines
        .push(describe("batch round trip (pooled over programs)", &pooled));
    ctx.report.lines.push(describe_programs(
        "batch round trip",
        &ctx.programs,
        &untraced.raw,
    ));
    ctx.report.lines.push(format!(
        "{points} points answered; untraced: {:.0} points per second of round trips",
        (pooled.len() * BATCH_POINTS) as f64 / (pooled.total_ns() as f64 / 1e9)
    ));

    if !ctx.trace {
        return report_end_to_end(ctx, &untraced);
    }

    ctx.tracer.set_on(true);
    let analyses: Vec<&Analysis> = programs.analyses.iter().map(|a| a.as_ref()).collect();
    let sizes = probe_sample(
        ctx.seed,
        &ctx.programs,
        &analyses,
        &mut ctx.tracer,
        &mut ctx.report,
    )?;
    let runtime = runtime_sample(ctx, &analyses);
    ctx.tracer.set_on(false);
    census(ctx, &analyses)?;
    let compute_ms = ms(timing.select.suite_median_ns() + timing.codec.suite_median_ns());
    ctx.report.lines.push(format!(
        "traced batch: select {:.3} us + codec {:.3} us of {:.3} us round trip (sums of per-program medians)",
        us(timing.select.suite_median_ns()),
        us(timing.codec.suite_median_ns()),
        us(traced.raw.suite_median_ns())
    ));
    layers::report(
        ctx,
        &analyses,
        &timing,
        &sizes,
        &runtime,
        &OpRows::measured_compute(untraced, traced, compute_ms),
    );
    Ok(())
}

/// Where the dispatch traffic lands, per program, over the points of the
/// program's first chunk (the same draws the timed phase sends): the share
/// of points per dispatcher choice, the share inside an optimality region
/// (the rest take the cheapest-cut fallback), the per-point cost of
/// `Analysis::select`, and, for a one-parameter program, the runs of the
/// parameter over which the choice stays the same.
fn census(ctx: &mut Ctx, analyses: &[&Analysis]) -> Result<(), String> {
    for (p, a) in analyses.iter().enumerate() {
        let b = &ctx.programs[p];
        let select = |point: &[i64]| {
            a.select(point)
                .map_err(|e| format!("{}: select: {e}", b.name))
        };
        let mut rng = Rng::new(ctx.seed, p as u64);
        let mut choices = vec![0usize; a.partition.choices.len()];
        let mut in_region = 0usize;
        let mut cost = Vec::with_capacity(CHUNK_BATCHES * BATCH_POINTS);
        let mut eval = Vec::with_capacity(CHUNK_BATCHES * BATCH_POINTS);
        for _ in 0..CHUNK_BATCHES {
            for point in draw_batch(&mut rng, b)? {
                let mut fastest = u64::MAX;
                let mut fastest_eval = u64::MAX;
                let mut choice = 0;
                for _ in 0..CENSUS_REPS {
                    let t = Instant::now();
                    choice = select(&point)?;
                    fastest = fastest.min(ns_since(t));
                    // The part of `select` before the decision DAG: the
                    // parameters as exact numbers, then the point in the
                    // linearized dimensions.
                    let t = Instant::now();
                    let exact: Vec<_> = point.iter().map(|&v| v.into()).collect();
                    let dims = a.dispatcher.dim_point(&a.network, &exact[..]);
                    fastest_eval = fastest_eval.min(ns_since(t));
                    dims.map_err(|e| format!("{}: dim point: {e}", b.name))?;
                }
                choices[choice] += 1;
                cost.push(fastest);
                eval.push(fastest_eval);
                let region = a
                    .dispatcher
                    .region_contains(&a.network, &a.partition.choices[choice], &point)
                    .map_err(|e| format!("{}: region test: {e}", b.name))?;
                in_region += usize::from(region);
            }
        }
        let total = cost.len();
        let pct = |k: usize| 100.0 * k as f64 / total as f64;
        let mut drawn: Vec<(usize, usize)> = choices
            .iter()
            .copied()
            .enumerate()
            .filter(|c| c.1 > 0)
            .collect();
        drawn.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
        let shares: Vec<String> = drawn
            .iter()
            .map(|&(c, k)| format!("c{c} {:.1}%", pct(k)))
            .collect();
        let descent: Vec<u64> = cost
            .iter()
            .zip(&eval)
            .map(|(c, e)| c.saturating_sub(*e))
            .collect();
        let qs = [0.1, 0.5, 0.9, 0.99, 1.0];
        let describe = |ns: &[u64]| {
            let q = quantiles_ns(ns, &qs);
            let mean = ns.iter().sum::<u64>() as f64 / ns.len() as f64;
            format!(
                "p10 {:.0} p50 {:.0} p90 {:.0} p99 {:.0} max {:.0} mean {mean:.0} ns",
                q[0], q[1], q[2], q[3], q[4]
            )
        };
        ctx.report.lines.push(format!(
            "traffic {}: {total} points, {} of {} choices drawn ({}); in a region {:.1}%, fallback {:.1}%; select per point (fastest of {CENSUS_REPS}): {}; of which point evaluation {}, decision DAG and scan {}",
            b.name,
            drawn.len(),
            choices.len(),
            shares.join(", "),
            pct(in_region),
            pct(total - in_region),
            describe(&cost),
            describe(&eval),
            describe(&descent),
        ));
        if let ([(_, Some(cap))], 1) = (sizes_of(b), b.param_names.len()) {
            let lo = b.bounds.lower(0).unwrap_or(0);
            let mut runs: Vec<(i64, i64, usize)> = Vec::new();
            for v in lo..=*cap {
                let c = select(&[v])?;
                match runs.last_mut() {
                    Some(run) if run.2 == c => run.1 = v,
                    _ => runs.push((v, v, c)),
                }
            }
            let runs: Vec<String> = runs
                .iter()
                .map(|(from, to, c)| format!("c{c} for {from}..={to}"))
                .collect();
            ctx.report.lines.push(format!(
                "traffic {}: {} over the drawn range: {}",
                b.name,
                b.param_names[0],
                runs.join(", ")
            ));
        }
    }
    Ok(())
}
