//! End-to-end tests of the TCP engine on loopback: behavioural (and
//! virtual-cost) equivalence with the in-process simulator, and graceful
//! degradation under every transport failure we can inject.

use offload_core::{Analysis, AnalysisOptions};
use offload_net::{ClientConfig, OffloadEngine, OffloadServer, RetryPolicy, ServerConfig};
use offload_runtime::{DeviceModel, Simulator};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

/// A program whose dispatcher splits the parameter space: small `n` runs
/// all-local, large `n` offloads the compute kernel.
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

fn analysis() -> Arc<Analysis> {
    Arc::new(Analysis::from_source(PROGRAM, AnalysisOptions::default()).expect("analysis"))
}

fn client_config(addr: impl Into<String>) -> ClientConfig {
    let mut c = ClientConfig::new(addr);
    // Debug-build interpretation is slow; keep deadlines generous so the
    // tests never time out spuriously under load.
    c.request_timeout = Duration::from_secs(120);
    c
}

/// An address that is guaranteed dead: bind a listener to reserve a port,
/// then drop it.
fn dead_addr() -> String {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = l.local_addr().expect("addr").to_string();
    drop(l);
    addr
}

#[test]
fn tcp_run_matches_local_and_simulated() {
    let a = analysis();
    let device = DeviceModel::ipaq_testbed();
    let server = OffloadServer::bind(
        "127.0.0.1:0",
        a.clone(),
        device.clone(),
        ServerConfig::default(),
    )
    .expect("server");
    let engine = OffloadEngine::new(&a, device.clone(), client_config(server.addr().to_string()));
    let sim = Simulator::new(&a, device);

    let mut offloaded_at_least_once = false;
    for n in [3i64, 40, 1_000] {
        let report = engine.run(&[n], &[]).expect("tcp run");
        assert!(!report.fell_back, "n={n}: loopback server is reachable");

        let local = sim.run_local(&[n], &[]).expect("local");
        let (sim_choice, sim_run) = sim.run_dispatched(&[n], &[]).expect("simulated");

        // Byte-identical external behaviour across all three execution
        // modes (the paper's §2 semantic requirement, now over a socket).
        assert_eq!(report.result.outputs, local.outputs, "n={n}: tcp vs local");
        assert_eq!(
            report.result.outputs, sim_run.outputs,
            "n={n}: tcp vs simulated"
        );

        // Same dispatch decision, and exactly the same virtual cost: the
        // ledger rides the wire in exact rational arithmetic.
        assert_eq!(report.choice, sim_choice, "n={n}: dispatch agrees");
        assert_eq!(
            report.result.stats, sim_run.stats,
            "n={n}: virtual stats agree"
        );

        let partitioned = !a.partition.choices[report.choice].is_all_local();
        assert_eq!(
            report.offloaded, partitioned,
            "n={n}: offloaded iff partitioned"
        );
        offloaded_at_least_once |= report.offloaded;
    }
    assert!(
        offloaded_at_least_once,
        "the large setting must actually use the socket"
    );
}

#[test]
fn all_local_dispatch_never_touches_the_network() {
    let a = analysis();
    let device = DeviceModel::ipaq_testbed();
    // Deliberately point at a dead address: a run whose dispatch picks the
    // all-local choice must succeed without ever connecting.
    let engine = OffloadEngine::new(&a, device, client_config(dead_addr()));
    let report = engine.run(&[3], &[]).expect("local run");
    assert!(!report.offloaded);
    assert!(!report.fell_back);
    assert_eq!(report.connect_attempts, 0);
}

#[test]
fn absent_server_falls_back_to_all_local() {
    let a = analysis();
    let device = DeviceModel::ipaq_testbed();
    let mut config = client_config(dead_addr());
    config.connect_timeout = Duration::from_millis(500);
    config.retry = RetryPolicy {
        max_attempts: 2,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(10),
    };
    let engine = OffloadEngine::new(&a, device.clone(), config);

    // n large enough that the dispatcher wants to offload.
    let report = engine.run(&[1_000], &[]).expect("fallback run");
    assert!(report.fell_back, "no server: the engine must degrade");
    assert!(!report.offloaded);
    assert_eq!(report.connect_attempts, 2, "retry budget fully spent");
    assert!(report.fallback_reason.is_some());

    let local = Simulator::new(&a, device)
        .run_local(&[1_000], &[])
        .expect("local");
    assert_eq!(
        report.result.outputs, local.outputs,
        "fallback output is correct"
    );
}

#[test]
fn server_killed_mid_run_falls_back() {
    let a = analysis();
    let device = DeviceModel::ipaq_testbed();
    // Crash points that kill the session before the server's half of the
    // work reaches the client: after the handshake (2) and after the
    // server receives control (3). For this program the server's full
    // contribution fits in 4 frames, so later crash points injure nothing.
    for frames in [2u64, 3] {
        let server = OffloadServer::bind(
            "127.0.0.1:0",
            a.clone(),
            device.clone(),
            ServerConfig::builder()
                .fail_after_frames(Some(frames))
                .build(),
        )
        .expect("server");
        let mut config = client_config(server.addr().to_string());
        // The dead socket surfaces quickly; no need for long deadlines.
        config.request_timeout = Duration::from_secs(10);
        config.retry = RetryPolicy::none();
        let engine = OffloadEngine::new(&a, device.clone(), config);

        let report = engine.run(&[1_000], &[]).expect("run with crashing server");
        assert!(
            report.fell_back,
            "server dies after {frames} frames: the engine must degrade"
        );
        let local = Simulator::new(&a, device.clone())
            .run_local(&[1_000], &[])
            .expect("local");
        assert_eq!(
            report.result.outputs, local.outputs,
            "crash after {frames} frames: fallback output is correct"
        );
    }

    // A crash *after* the final exchange is harmless: the client already
    // holds the result, so the run counts as offloaded, not degraded.
    let server = OffloadServer::bind(
        "127.0.0.1:0",
        a.clone(),
        device.clone(),
        ServerConfig::builder().fail_after_frames(Some(4)).build(),
    )
    .expect("server");
    let mut config = client_config(server.addr().to_string());
    config.retry = RetryPolicy::none();
    let engine = OffloadEngine::new(&a, device.clone(), config);
    let report = engine.run(&[1_000], &[]).expect("run");
    assert!(
        report.offloaded && !report.fell_back,
        "late crash injures nothing"
    );
    let local = Simulator::new(&a, device)
        .run_local(&[1_000], &[])
        .expect("local");
    assert_eq!(report.result.outputs, local.outputs);
}

#[test]
fn mismatched_program_falls_back() {
    let a = analysis();
    // The server loaded a *different* program (same shape, different
    // constant): the fingerprint handshake must catch it before any state
    // is exchanged, and the client heals locally.
    let other = Arc::new(
        Analysis::from_source(
            &PROGRAM.replace("% 1000", "% 999"),
            AnalysisOptions::default(),
        )
        .expect("other analysis"),
    );
    let device = DeviceModel::ipaq_testbed();
    let server = OffloadServer::bind(
        "127.0.0.1:0",
        other,
        device.clone(),
        ServerConfig::default(),
    )
    .expect("server");
    let mut config = client_config(server.addr().to_string());
    config.retry = RetryPolicy::none();
    let engine = OffloadEngine::new(&a, device.clone(), config);

    let report = engine.run(&[1_000], &[]).expect("run against wrong server");
    assert!(
        report.fell_back,
        "wrong program on the server: degrade, don't corrupt"
    );
    let local = Simulator::new(&a, device)
        .run_local(&[1_000], &[])
        .expect("local");
    assert_eq!(report.result.outputs, local.outputs);
}
