//! Remote offload: the quickstart program, but executed over a real TCP
//! connection instead of the in-process simulator.
//!
//! A server daemon loads the compiled analysis and waits on a loopback
//! port; the client engine dispatches on the parameter value and — for
//! settings where offloading wins — ships the server-side tasks' work
//! over the socket, turn by turn. The last run goes to the stopped
//! server's address: the engine falls back to all-local execution, with
//! the same output, and says so.
//!
//! ```text
//! cargo run -p offload-bench --example remote_offload
//! ```

use offload_core::{Analysis, AnalysisOptions};
use offload_net::{ClientConfig, OffloadEngine, OffloadServer, ServerConfig};
use offload_runtime::DeviceModel;
use std::sync::Arc;

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
    let analysis = Arc::new(Analysis::from_source(PROGRAM, AnalysisOptions::default())?);
    let device = DeviceModel::ipaq_testbed();

    // In a real deployment the server runs on the wall-powered host; here
    // it shares the process for a self-contained example. The builder
    // mirrors `AnalysisOptions::builder()`; `ServerConfig::default()`
    // works too when every default suits.
    let mut server = OffloadServer::bind(
        "127.0.0.1:0",
        analysis.clone(),
        device.clone(),
        ServerConfig::builder().max_connections(64).build(),
    )?;

    let engine = OffloadEngine::new(
        &analysis,
        device.clone(),
        ClientConfig::new(server.addr().to_string()),
    );
    for n in [4i64, 1_000] {
        let report = engine.run(&[n], &[])?;
        println!(
            "n={n:>9}: choice {} ran {} — output {:?}",
            report.choice,
            if report.offloaded {
                "over TCP"
            } else {
                "locally"
            },
            report.result.outputs,
        );
    }

    // Nobody listens on the stopped server's port, so every connect is
    // refused and, after the default retries, the engine falls back to
    // the all-local plan.
    let dead = server.addr().to_string();
    server.shutdown();
    let engine = OffloadEngine::new(&analysis, device, ClientConfig::new(dead));
    let report = engine.run(&[1_000], &[])?;
    assert!(report.fell_back, "no server: the engine must fall back");
    println!(
        "n={:>9}: server gone, ran all-local after {} connect attempts — output {:?}",
        1_000, report.connect_attempts, report.result.outputs,
    );
    println!(
        "  ({})",
        report
            .fallback_reason
            .as_deref()
            .unwrap_or("no reason recorded")
    );
    Ok(())
}
