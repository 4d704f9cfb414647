//! Load-and-scrape benchmark of the TCP dispatch service.
//!
//! Starts a real [`OffloadServer`] and hammers its batched dispatch
//! service with `--clients` persistent connections, each pipelining
//! `DispatchBatch` frames of `--batch` points for `--duration` seconds,
//! and reports sustained QPS, latency at two clearly distinct
//! granularities — the `batch_latency_us` histogram has one sample per
//! *round trip*, while `dispatch_latency_us` weights the same
//! observations by the points in the batch, so its count equals
//! `total_points` — and plan-cache hit rates into `BENCH_net.json`
//! (override the path with `NETBENCH_OUT`). The report also goes to
//! stdout; progress goes to stderr. `examples/remote_offload.rs` shows
//! one offloaded run and the all-local fallback.
//!
//! ```text
//! cargo run --release -p offload-bench --bin netbench -- --clients 100 --duration 5
//! ```
//!
//! * `--clients N` (default 100), `--duration S` (default 5),
//!   `--batch B` (default 16) — the load;
//! * `--trace <path>` — record with the `offload-obs` recorder: the
//!   clients sample roughly one dispatch in a thousand with a
//!   wire-propagated trace context, and the file at `path` is the
//!   *merged* client+server Chrome trace (each sampled request is one
//!   causally-nested tree);
//! * `--listen ADDR` — bind the server on a fixed address instead of an
//!   OS-assigned loopback port (so an external `obstop` can find it);
//! * `--linger S` — keep the server alive `S` seconds after the report
//!   is written, for live scraping.

use offload_core::{Analysis, AnalysisOptions};
use offload_net::{ClientConfig, DispatchClient, OffloadServer, ServerConfig};
use offload_runtime::DeviceModel;
use std::sync::Arc;
use std::time::{Duration, Instant};

const PROGRAM: &str = "
    int work(int k) {
        int j;
        int acc;
        acc = 0;
        for (j = 0; j < k; j++) {
            acc = acc + j * j % 1000;
        }
        return acc;
    }

    void main(int n) {
        output(work(n));
    }";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut opts = LoadOptions {
        clients: 100,
        duration: 5.0,
        batch: 16,
        trace_path: None,
        listen: None,
        linger: 0.0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--trace" => {
                opts.trace_path = Some(args.next().ok_or("--trace requires a path")?);
            }
            "--clients" => {
                opts.clients = args.next().ok_or("--clients requires a count")?.parse()?;
            }
            "--duration" => {
                opts.duration = args.next().ok_or("--duration requires seconds")?.parse()?;
            }
            "--batch" => {
                opts.batch = args.next().ok_or("--batch requires a size")?.parse()?;
            }
            "--listen" => {
                opts.listen = Some(args.next().ok_or("--listen requires HOST:PORT")?);
            }
            "--linger" => {
                opts.linger = args.next().ok_or("--linger requires seconds")?.parse()?;
            }
            other => return Err(format!("unknown flag {other}").into()),
        }
    }
    opts.clients = opts.clients.max(1);
    opts.duration = opts.duration.max(0.1);
    opts.batch = opts.batch.max(1);
    run_load(opts)
}

/// Per-client load-generator tallies.
struct ClientTally {
    batches: u64,
    points: u64,
    errors: u64,
}

/// Load-generator knobs collected from the command line.
struct LoadOptions {
    clients: usize,
    duration: f64,
    batch: usize,
    trace_path: Option<String>,
    listen: Option<String>,
    linger: f64,
}

/// In load mode each client traces roughly one dispatch in a thousand:
/// dense enough that a few-second run yields many merged request trees,
/// sparse enough that span recording stays off the hot path. Prime, so
/// the sampling never phase-locks with batch-size patterns.
const TRACE_INTERVAL: u64 = 997;

/// The load generator: `clients` persistent connections batch-dispatching
/// against the server, one thread each on both sides, for `duration`
/// seconds.
fn run_load(opts: LoadOptions) -> Result<(), Box<dyn std::error::Error>> {
    let LoadOptions {
        clients,
        duration,
        batch,
        trace_path,
        listen,
        linger,
    } = opts;
    // Metrics (histograms, the server's counters and gauges) are always
    // on; the recorder switch only gates span collection, which the
    // merged trace needs.
    if trace_path.is_some() {
        offload_obs::set_enabled(true);
    }
    let analysis = Arc::new(Analysis::from_source(PROGRAM, AnalysisOptions::default())?);
    let server = OffloadServer::bind(
        listen.as_deref().unwrap_or("127.0.0.1:0"),
        analysis.clone(),
        DeviceModel::ipaq_testbed(),
        ServerConfig::builder().max_connections(clients + 8).build(),
    )?;
    let addr = server.addr().to_string();
    eprintln!("load: {clients} clients x {duration}s, batches of {batch} against {addr}");

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(duration);
    // Two granularities of the same observation: one sample per round
    // trip, and the round trip's latency weighted by every point it
    // carried (so percentiles answer "what did a *dispatch* see").
    let hist_batch = offload_obs::histogram("net.dispatch.batch_latency_us");
    let hist_point = offload_obs::histogram("net.dispatch.point_latency_us");
    let handles: Vec<_> = (0..clients)
        .map(|id| {
            let addr = addr.clone();
            let hist_batch = hist_batch.clone();
            let hist_point = hist_point.clone();
            std::thread::spawn(move || -> ClientTally {
                let mut tally = ClientTally {
                    batches: 0,
                    points: 0,
                    errors: 0,
                };
                let mut config = ClientConfig::new(addr);
                config.request_timeout = Duration::from_secs(30);
                let mut client = match DispatchClient::connect(&config) {
                    Ok(c) => c,
                    Err(_) => {
                        tally.errors += 1;
                        return tally;
                    }
                };
                // Deterministic trace ids: seeded per client, sampling
                // every `TRACE_INTERVAL`th dispatch (the first always).
                client.set_trace_seed(id as u64 + 1);
                client.set_trace_interval(TRACE_INTERVAL);
                // Every client analyzes the same program: one pipeline
                // run, then cache hits — the hit rate the report tracks.
                let info = match client.analyze(PROGRAM) {
                    Ok(i) => i,
                    Err(_) => {
                        tally.errors += 1;
                        return tally;
                    }
                };
                // Deterministic per-client LCG over the high bits.
                let mut state = (id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut draw = move |m: u64| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 24) % m
                };
                while Instant::now() < deadline {
                    let points: Vec<Vec<i64>> =
                        (0..batch).map(|_| vec![draw(1_000_000) as i64]).collect();
                    let t0 = Instant::now();
                    match client.dispatch(info.fingerprint, &points) {
                        Ok(choices) => {
                            let us = t0.elapsed().as_micros() as u64;
                            hist_batch.record(us);
                            hist_point.record_n(us, choices.len() as u64);
                            tally.batches += 1;
                            tally.points += choices.len() as u64;
                        }
                        Err(_) => {
                            tally.errors += 1;
                            return tally;
                        }
                    }
                }
                client.close();
                tally
            })
        })
        .collect();

    let mut total = ClientTally {
        batches: 0,
        points: 0,
        errors: 0,
    };
    for h in handles {
        let t = h.join().expect("client thread");
        total.batches += t.batches;
        total.points += t.points;
        total.errors += t.errors;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let qps = total.points as f64 / elapsed;
    let lat_batch = hist_batch.summary();
    let lat_point = hist_point.summary();
    let cache = server.plan_cache_stats();
    let analyze_total = cache.analyze_hits + cache.analyze_misses;
    let analyze_hit_rate = if analyze_total == 0 {
        0.0
    } else {
        cache.analyze_hits as f64 / analyze_total as f64
    };
    let dispatch_total = cache.dispatch_hits + cache.dispatch_misses;
    let dispatch_hit_rate = if dispatch_total == 0 {
        0.0
    } else {
        cache.dispatch_hits as f64 / dispatch_total as f64
    };

    eprintln!(
        "sustained {qps:.0} dispatches/s ({} points in {elapsed:.2}s, {} batches, {} errors)",
        total.points, total.batches, total.errors
    );
    eprintln!(
        "batch latency us: p50={} p90={} p99={} p999={} max={}",
        lat_batch.p50, lat_batch.p90, lat_batch.p99, lat_batch.p999, lat_batch.max
    );
    eprintln!(
        "dispatch latency us (point-weighted): p50={} p90={} p99={} p999={} max={}",
        lat_point.p50, lat_point.p90, lat_point.p99, lat_point.p999, lat_point.max
    );
    eprintln!(
        "plan cache: analyze {}/{} hit ({:.0}%), dispatch {}/{} hit ({:.0}%), {} entries",
        cache.analyze_hits,
        analyze_total,
        analyze_hit_rate * 100.0,
        cache.dispatch_hits,
        dispatch_total,
        dispatch_hit_rate * 100.0,
        cache.entries
    );

    let out = std::env::var("NETBENCH_OUT").unwrap_or_else(|_| "BENCH_net.json".to_string());
    let json = format!(
        concat!(
            "{{\n",
            "  \"mode\": \"load\",\n",
            "  \"clients\": {},\n",
            "  \"duration_s\": {:.3},\n",
            "  \"batch\": {},\n",
            "  \"total_points\": {},\n",
            "  \"total_batches\": {},\n",
            "  \"errors\": {},\n",
            "  \"qps\": {:.1},\n",
            "  \"batch_latency_us\": {{\"count\":{},\"p50\":{},\"p90\":{},",
            "\"p99\":{},\"p999\":{},\"max\":{}}},\n",
            "  \"dispatch_latency_us\": {{\"count\":{},\"p50\":{},\"p90\":{},",
            "\"p99\":{},\"p999\":{},\"max\":{}}},\n",
            "  \"cache\": {{\"analyze_hits\":{},\"analyze_misses\":{},",
            "\"dispatch_hits\":{},\"dispatch_misses\":{},\"entries\":{},",
            "\"analyze_hit_rate\":{:.4},\"dispatch_hit_rate\":{:.4}}}\n",
            "}}\n"
        ),
        clients,
        elapsed,
        batch,
        total.points,
        total.batches,
        total.errors,
        qps,
        lat_batch.count,
        lat_batch.p50,
        lat_batch.p90,
        lat_batch.p99,
        lat_batch.p999,
        lat_batch.max,
        lat_point.count,
        lat_point.p50,
        lat_point.p90,
        lat_point.p99,
        lat_point.p999,
        lat_point.max,
        cache.analyze_hits,
        cache.analyze_misses,
        cache.dispatch_hits,
        cache.dispatch_misses,
        cache.entries,
        analyze_hit_rate,
        dispatch_hit_rate,
    );
    std::fs::write(&out, &json)?;
    eprintln!("wrote {out}");
    print!("{json}");

    if let Some(path) = trace_path {
        // One more connection solely to learn the server's clock offset;
        // the loopback server shares our process obs epoch, so the
        // offset lands near zero — on a real deployment it maps server
        // spans onto the client timeline.
        let mut probe = DispatchClient::connect(&ClientConfig::new(server.addr().to_string()))?;
        probe.set_trace_interval(0);
        let stats = probe.stats()?;
        probe.close();
        let merged =
            offload_obs::export::merged_trace_json(&offload_obs::snapshot(), stats.clock_offset_us);
        std::fs::write(&path, merged)?;
        eprintln!(
            "wrote merged trace {path} (clock offset {:+}µs)",
            stats.clock_offset_us
        );
    }
    if linger > 0.0 {
        eprintln!("lingering {linger}s for external scrapers on {addr}");
        std::thread::sleep(Duration::from_secs_f64(linger));
    }
    drop(server);
    Ok(())
}
