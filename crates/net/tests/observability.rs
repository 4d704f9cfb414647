//! Loopback tests of the live observability plane: the `StatsRequest`
//! scrape, counter/sequence monotonicity, the slow-request ring, the
//! Prometheus exposition text, the merged client+server trace, and the
//! server's analysis counters as the registry publishes them.
//!
//! The metrics registry is process-global, so everything that asserts on
//! counter values lives in ONE test function and reasons in deltas
//! between two scrapes of the same server.

use offload_core::{Analysis, AnalysisOptions, PipelineStats};
use offload_net::{fingerprint, ClientConfig, DispatchClient, OffloadServer, ServerConfig};
use offload_obs::MetricValue;
use offload_runtime::DeviceModel;
use std::sync::Arc;
use std::time::Duration;

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

/// A program the server has not seen, for a plan-cache miss.
const SECOND: &str = "
    void main(int n) {
        int i;
        int acc;
        acc = 0;
        for (i = 0; i < n; i++) {
            acc = acc + i * 7;
        }
        output(acc);
    }";

/// One scrape-dispatch-scrape pass over a loopback server, asserting the
/// whole observability contract in deltas.
#[test]
fn loopback_scrape_counters_and_merged_trace() {
    // Spans (and hence the merged trace) need the recorder on; metrics
    // are always on.
    offload_obs::set_enabled(true);
    let analysis =
        Arc::new(Analysis::from_source(PROGRAM, AnalysisOptions::default()).expect("analysis"));
    let server = OffloadServer::bind(
        "127.0.0.1:0",
        analysis.clone(),
        DeviceModel::ipaq_testbed(),
        ServerConfig::builder().slow_ring(8).build(),
    )
    .expect("server");

    let mut config = ClientConfig::new(server.addr().to_string());
    config.request_timeout = Duration::from_secs(120);
    let mut c = DispatchClient::connect(&config).expect("connect");

    // Baseline scrape: everything below reasons in deltas from here.
    let before = c.stats().expect("baseline scrape");

    let fp = fingerprint(&analysis);
    let batches: Vec<Vec<Vec<i64>>> = vec![
        vec![vec![1], vec![10], vec![250]],
        vec![vec![1_000], vec![50_000]],
        vec![vec![123_456]],
    ];
    let mut dispatched_points = 0u64;
    for b in &batches {
        let choices = c.dispatch(fp, b).expect("dispatch");
        assert_eq!(choices.len(), b.len());
        dispatched_points += choices.len() as u64;
    }

    let after = c.stats().expect("second scrape");

    // Sequence numbers and uptime are strictly/weakly monotonic across
    // successive scrapes of one server.
    assert!(
        after.snapshot.seq > before.snapshot.seq,
        "snapshot seq advances: {} -> {}",
        before.snapshot.seq,
        after.snapshot.seq
    );
    assert!(after.snapshot.uptime_us >= before.snapshot.uptime_us);

    // Every counter present in both snapshots is non-decreasing.
    for (name, v) in &before.snapshot.entries {
        if let (MetricValue::Counter(a), Some(b)) = (v, after.snapshot.counter(name)) {
            assert!(*a <= b, "counter {name} went backwards: {a} -> {b}");
        }
    }

    // The server counted exactly the points this client dispatched (no
    // other client is talking to this server).
    let delta = |name: &str| {
        after.snapshot.counter(name).unwrap_or(0) - before.snapshot.counter(name).unwrap_or(0)
    };
    assert_eq!(delta("net.server.dispatch_points"), dispatched_points);
    assert_eq!(delta("net.server.batches"), batches.len() as u64);
    assert_eq!(delta("net.server.dispatch_errors"), 0);
    assert_eq!(delta("net.server.protocol_errors"), 0);
    // Both scrapes themselves were counted.
    assert!(delta("net.server.stats_requests") >= 1);

    // Stage histograms saw the batches.
    let batch_hist = after
        .snapshot
        .histogram("net.server.batch_us")
        .expect("batch_us histogram");
    assert!(batch_hist.count >= batches.len() as u64);

    // The slow ring retained the slowest requests, sorted slowest-first
    // and self-consistent.
    assert!(!after.slow.is_empty(), "slow ring captured requests");
    for w in after.slow.windows(2) {
        assert!(w[0].total_us >= w[1].total_us, "slow ring sorted");
    }
    for r in &after.slow {
        assert!(r.batch_points >= 1);
        assert!(r.total_us >= r.select_us);
    }

    // Loopback shares one clock: the offset estimate must be tiny.
    assert!(
        after.clock_offset_us.abs() < 1_000_000,
        "loopback clock offset {}µs",
        after.clock_offset_us
    );

    // Prometheus exposition: every line is a comment or `name value`,
    // names in the legal grammar, values numeric.
    let prom = offload_obs::export::prometheus_text(&after.snapshot);
    assert!(prom.contains("# TYPE offload_snapshot_seq gauge"));
    assert!(prom.contains("net_server_dispatch_points_total"));
    for line in prom.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value) = line.rsplit_once(' ').expect("name value");
        let name = name_part.split('{').next().unwrap();
        assert!(
            name.chars()
                .next()
                .map(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
                == Some(true)
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in line: {line}"
        );
        assert!(value.parse::<f64>().is_ok(), "bad value in line: {line}");
    }

    // The merged trace nests client and server spans of each sampled
    // dispatch under one per-trace track: the client envelope, the
    // synthetic send/receive phases, and the server span between them,
    // all stamped with the same trace id.
    let merged =
        offload_obs::export::merged_trace_json(&offload_obs::snapshot(), after.clock_offset_us);
    for needle in [
        "\"client_request\"",
        "\"client_send\"",
        "\"server_batch\"",
        "\"client_receive\"",
        "trace 0x",
    ] {
        assert!(merged.contains(needle), "merged trace lacks {needle}");
    }

    // The server's analysis counters reach clients only through the
    // registry: a plan-cache miss publishes its solve's work counters as
    // `pipeline.<name>`, and the scrape deltas equal a local analysis of
    // the same program. The local analysis publishes into this process's
    // registry too, so it runs after the second scrape.
    let before = c.stats().expect("scrape before the analysis");
    let info = c.analyze(SECOND).expect("analyze");
    assert!(!info.cache_hit, "a new program misses the plan cache");
    let after = c.stats().expect("scrape after the analysis");
    let local = Analysis::from_source(SECOND, AnalysisOptions::default()).expect("analysis");
    let work = local.pipeline_stats().work_counters();
    let mut compared = 0;
    for ((name, value), spec) in work.entries().zip(PipelineStats::COUNTERS) {
        if !spec.kind.deterministic() {
            continue;
        }
        let delta = after.snapshot.counter(spec.metric).expect(spec.metric)
            - before.snapshot.counter(spec.metric).unwrap_or(0);
        assert_eq!(delta, value, "{name}");
        compared += 1;
    }
    let published = after
        .snapshot
        .entries
        .iter()
        .filter(|(name, v)| name.starts_with("pipeline.") && matches!(v, MetricValue::Counter(_)))
        .count();
    assert_eq!(
        published, compared,
        "every pipeline counter is a work counter"
    );
    assert!(
        work.lp_solves > 0,
        "the second program exercises the solver"
    );

    c.close();
}
