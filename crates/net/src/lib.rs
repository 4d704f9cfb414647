//! # offload-net — the offload engine over real sockets
//!
//! Everything below `crates/net` reasons about distributed execution
//! *virtually*: the [`offload_runtime::Simulator`] runs both hosts in
//! one process and charges the device model for the messages it would
//! have sent. This crate closes the loop and actually sends them. It is
//! **std-only** — hand-rolled varint framing over [`std::net::TcpStream`],
//! no external dependencies — so the whole workspace keeps building
//! offline.
//!
//! ## From simulator to sockets
//!
//! The executor core ([`offload_runtime::Machine`]) is host-agnostic:
//! one machine per host, each holding only its own memory image, talking
//! to its peer through the [`offload_runtime::ExecHost`] trait (item
//! fetches and pushes) and yielding [`offload_runtime::ControlMsg`]s at
//! control transfers. The simulator wires two machines together with
//! in-process calls; this crate wires them with:
//!
//! * [`protocol`] — the wire format: length-prefixed frames of LEB128
//!   varints carrying a version byte, request ids, and the full
//!   `ControlMsg`/`ItemPayload` vocabulary, plus an FNV-1a fingerprint
//!   so both sides can check they compiled the same program.
//! * [`OffloadServer`] — the daemon: binds a listener, and for each
//!   session builds the server half of the executor from the client's
//!   `Hello` (choice index + parameter values) and serves turns. Each
//!   connection gets one blocking thread, on every platform: it answers
//!   dispatch frames, and a `Hello` runs its session on that same thread.
//! * [`OffloadEngine`] — the client: runs the paper's dispatcher on the
//!   parameter values, executes all-local choices in process, and for
//!   partitioned choices drives the turn-taking loop over TCP.
//! * [`DispatchClient`] — the dispatch service: persistent connections
//!   carrying `AnalyzeProgram` requests (answered from a sharded
//!   [`PlanCache`] keyed by program source and analysis fingerprint) and
//!   `DispatchBatch` frames that select choices for many parameter
//!   points per round trip, with pipelining via
//!   [`DispatchClient::send_dispatch`] / [`DispatchClient::recv_choices`].
//!
//! ## Robustness
//!
//! Connections carry per-request deadlines ([`ClientConfig`]); connect
//! attempts follow a bounded, deterministic exponential backoff
//! ([`RetryPolicy`]). Any *transport* failure — connect refusal,
//! deadline expiry, the server dying mid-run — makes the engine degrade
//! gracefully: it re-executes with the all-local plan (safe, because
//! programs are deterministic and output is buffered) and records the
//! fallback in the [`RunReport`]. Program faults are never healed; they
//! propagate as [`NetError`].
//!
//! ## Loopback example
//!
//! ```
//! use offload_core::{Analysis, AnalysisOptions};
//! use offload_net::{ClientConfig, OffloadEngine, OffloadServer, ServerConfig};
//! use offload_runtime::{DeviceModel, Simulator};
//! use std::sync::Arc;
//!
//! let analysis = Arc::new(
//!     Analysis::from_source(
//!         "int work(int v) { return v * v + 3; }
//!          void main(int n) {
//!              int i;
//!              for (i = 0; i < n; i++) { output(work(i)); }
//!          }",
//!         AnalysisOptions::default(),
//!     )
//!     .unwrap(),
//! );
//! let device = DeviceModel::ipaq_testbed();
//!
//! // A real server on an OS-assigned loopback port.
//! let server = OffloadServer::bind(
//!     "127.0.0.1:0",
//!     analysis.clone(),
//!     device.clone(),
//!     ServerConfig::default(),
//! )
//! .unwrap();
//!
//! let engine = OffloadEngine::new(
//!     &analysis,
//!     device.clone(),
//!     ClientConfig::new(server.addr().to_string()),
//! );
//! let report = engine.run(&[20], &[]).unwrap();
//! assert!(!report.fell_back);
//!
//! // Identical external behaviour to the all-local original.
//! let local = Simulator::new(&analysis, device).run_local(&[20], &[]).unwrap();
//! assert_eq!(report.result.outputs, local.outputs);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod client;
mod error;
mod link;
pub mod protocol;
mod server;
mod stats;

pub use cache::{PlanCache, PlanCacheStats};
pub use client::{
    AnalyzeInfo, ClientConfig, DispatchClient, OffloadEngine, RetryPolicy, RunReport, StatsView,
};
pub use error::NetError;
pub use link::{serve, Conn, Served, TcpPeer};
pub use protocol::{fingerprint, TraceContext, WireFrame, WireMsg, PROTOCOL_VERSION};
pub use server::{OffloadServer, ServerConfig, ServerConfigBuilder, ServerHandle};
pub use stats::{SlowRequest, SlowRing};
