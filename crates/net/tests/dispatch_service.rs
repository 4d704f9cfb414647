//! Loopback tests of the batched dispatch service: server-side analysis
//! through the sharded plan cache, batch dispatch agreement with the
//! local compiled dispatcher, request pipelining, and error recovery on
//! a persistent connection.

use offload_core::{Analysis, AnalysisOptions};
use offload_net::{
    fingerprint, ClientConfig, DispatchClient, OffloadServer, ServerConfig, ServerHandle,
};
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

/// A second program so the cache holds more than the primary analysis.
const OTHER: &str = "
    int fill(int k) {
        int j; int s;
        s = 0;
        for (j = 0; j < k; j++) { s = s + j; }
        return s;
    }
    int mix(int a, int b) {
        int i; int acc;
        acc = 0;
        for (i = 0; i < a; i++) { acc = acc + fill(b); }
        return acc;
    }
    void main(int n, int m) { output(mix(n, m)); }";

fn start_server() -> (Arc<Analysis>, ServerHandle) {
    let analysis =
        Arc::new(Analysis::from_source(PROGRAM, AnalysisOptions::default()).expect("analysis"));
    let server = OffloadServer::bind(
        "127.0.0.1:0",
        analysis.clone(),
        DeviceModel::ipaq_testbed(),
        ServerConfig::default(),
    )
    .expect("server");
    (analysis, server)
}

fn client(server: &ServerHandle) -> DispatchClient {
    let mut config = ClientConfig::new(server.addr().to_string());
    config.request_timeout = Duration::from_secs(120);
    DispatchClient::connect(&config).expect("connect")
}

#[test]
fn batch_dispatch_matches_local_select() {
    let (analysis, server) = start_server();
    let mut c = client(&server);

    // The primary analysis is pre-registered: its fingerprint dispatches
    // without an AnalyzeProgram first.
    let fp = fingerprint(&analysis);
    let points: Vec<Vec<i64>> = vec![
        vec![0],
        vec![3],
        vec![40],
        vec![1_000],
        vec![100_000],
        vec![-7], // outside every region: the cheapest-cut fallback
    ];
    let remote = c.dispatch(fp, &points).expect("dispatch");
    assert_eq!(remote.len(), points.len());
    for (p, &got) in points.iter().zip(&remote) {
        let want = analysis.select(p).expect("local select") as u32;
        assert_eq!(got, want, "point {p:?}: remote and local dispatch agree");
    }
    c.close();
}

#[test]
fn analyze_is_cached_by_source() {
    let (_analysis, server) = start_server();
    let mut c1 = client(&server);

    let first = c1.analyze(OTHER).expect("first analyze");
    assert!(!first.cache_hit, "first analysis runs the pipeline");
    assert_eq!(first.params, 2, "OTHER takes two parameters");
    assert!(first.choices >= 1);

    // Same source, other connection: answered from the cache with the
    // same fingerprint.
    let mut c2 = client(&server);
    let second = c2.analyze(OTHER).expect("second analyze");
    assert!(second.cache_hit, "repeat program skips re-analysis");
    assert_eq!(second.fingerprint, first.fingerprint);

    // The analyzed program is dispatchable, and agrees with a local
    // analysis of the same source.
    let local = Analysis::from_source(OTHER, AnalysisOptions::default()).expect("local");
    let points: Vec<Vec<i64>> = vec![vec![2, 3], vec![500, 1], vec![100_000, 100_000]];
    let remote = c2.dispatch(first.fingerprint, &points).expect("dispatch");
    for (p, &got) in points.iter().zip(&remote) {
        assert_eq!(got, local.select(p).expect("select") as u32, "point {p:?}");
    }

    let stats = server.plan_cache_stats();
    assert_eq!(stats.analyze_hits, 1);
    assert_eq!(stats.analyze_misses, 1);
    assert!(stats.dispatch_hits >= 1);
    // Primary + OTHER.
    assert_eq!(stats.entries, 2);
    c1.close();
    c2.close();
}

#[test]
fn pipelined_batches_come_back_in_order() {
    let (analysis, server) = start_server();
    let mut c = client(&server);
    let fp = fingerprint(&analysis);

    let batches: Vec<Vec<Vec<i64>>> = vec![
        vec![vec![1], vec![10]],
        vec![vec![1_000], vec![50_000], vec![9]],
        vec![vec![123_456]],
    ];
    // All three batches go on the wire before any reply is read.
    let ids: Vec<u64> = batches
        .iter()
        .map(|b| c.send_dispatch(fp, b).expect("send"))
        .collect();
    for (id, batch) in ids.into_iter().zip(&batches) {
        let choices = c.recv_choices(id).expect("recv");
        assert_eq!(choices.len(), batch.len());
        for (p, &got) in batch.iter().zip(&choices) {
            assert_eq!(
                got,
                analysis.select(p).expect("select") as u32,
                "point {p:?}"
            );
        }
    }
    c.close();
}

#[test]
fn errors_do_not_poison_the_connection() {
    let (analysis, server) = start_server();
    let mut c = client(&server);
    let fp = fingerprint(&analysis);

    // Unknown fingerprint: a remote error, not a dead socket.
    let bogus = c.dispatch(fp.wrapping_add(1), &[vec![5]]);
    assert!(
        matches!(bogus, Err(offload_net::NetError::Remote(_))),
        "unknown fingerprint is reported as a remote error"
    );

    // Wrong arity: likewise per-batch, not per-connection.
    let bad_arity = c.dispatch(fp, &[vec![1, 2, 3]]);
    assert!(matches!(bad_arity, Err(offload_net::NetError::Remote(_))));

    // An unanalyzable program reports, the connection keeps serving.
    let parse_error = c.analyze("this is not a program");
    assert!(matches!(parse_error, Err(offload_net::NetError::Remote(_))));

    // The same connection still dispatches fine.
    let ok = c.dispatch(fp, &[vec![42]]).expect("dispatch after errors");
    assert_eq!(ok[0], analysis.select(&[42]).expect("select") as u32);
    c.close();
}
