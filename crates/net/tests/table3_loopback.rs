//! The six Table 3 programs, offloaded over a loopback socket.
//!
//! Each program runs through `OffloadEngine` at a parameter point where
//! its dispatcher picks a partitioned choice, against a server holding
//! that program's analysis. The outputs must equal the all-local run, and
//! the exact `RunStats` (ledger, messages, slots, instructions) must equal
//! the in-process run of the same choice: the TCP engine drives the same
//! interpreter as the simulator, over a real peer link.

use offload_net::{ClientConfig, OffloadEngine, OffloadServer, ServerConfig};
use offload_runtime::{DeviceModel, Simulator};
use std::sync::Arc;
use std::time::Duration;

/// The points perfbench's `offload` workload runs each program at; every
/// one dispatches a partitioned choice.
const OFFLOAD_POINTS: &[(&str, &[i64])] = &[
    ("rawcaudio", &[4096]),
    ("rawdaudio", &[4096]),
    ("encode", &[4, 0, 512, 4]),
    ("decode", &[4, 0, 512, 4]),
    ("fft", &[4, 1024, 0]),
    ("susan", &[0, 1, 0, 24, 24, 20, 2, 1, 1, 1200, 16, 10]),
];

#[test]
fn table3_programs_offload_over_loopback() {
    let device = DeviceModel::ipaq_testbed();
    for b in offload_benchmarks::all() {
        let params = OFFLOAD_POINTS
            .iter()
            .find(|(n, _)| *n == b.name)
            .expect("an offload point per program")
            .1;
        let a = Arc::new(b.analyze().expect("analysis"));
        let input = (b.make_input)(params);
        let mut server = OffloadServer::bind(
            "127.0.0.1:0",
            Arc::clone(&a),
            device.clone(),
            ServerConfig::default(),
        )
        .expect("server");
        let mut config = ClientConfig::new(server.addr().to_string());
        // Unoptimized builds interpret slowly; a deadline must not turn a
        // slow run into an all-local fallback.
        config.request_timeout = Duration::from_secs(120);
        let engine = OffloadEngine::new(&a, device.clone(), config);
        let report = engine.run(params, &input).expect("tcp run");
        assert!(
            report.offloaded && !report.fell_back,
            "{}: ran over the socket (fallback: {:?})",
            b.name,
            report.fallback_reason
        );
        assert!(
            !a.partition.choices[report.choice].is_all_local(),
            "{}: the point dispatches a partitioned choice",
            b.name
        );

        let sim = Simulator::new(&a, device.clone());
        let local = sim.run_local(params, &input).expect("local run");
        let split = sim
            .run_choice(report.choice, params, &input)
            .expect("in-process run");
        assert_eq!(report.result.outputs, local.outputs, "{}: outputs", b.name);
        assert_eq!(report.result.stats, split.stats, "{}: run stats", b.name);
        server.shutdown();
    }
}
