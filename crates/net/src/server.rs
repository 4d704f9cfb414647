//! The server daemon: loads a compiled [`Analysis`], listens for client
//! connections, and serves two kinds of traffic over each persistent
//! connection:
//!
//! * **the dispatch service** — [`WireMsg::AnalyzeProgram`] (analyze a
//!   program, or find it in the sharded [`PlanCache`]) and
//!   [`WireMsg::DispatchBatch`] (select a partitioning choice for many
//!   parameter points in one round trip);
//! * **offloaded execution** — a [`WireMsg::Hello`] turns the connection
//!   into a session that runs the server half of the partitioned
//!   executor.
//!
//! There is one I/O plane on every platform: an accept thread blocks in
//! `accept` and gives each admitted connection one blocking thread
//! ([`serve_connection`]), which answers frames until a `Hello` (the
//! session then runs on that same thread), a `Bye`, an error, or the
//! request deadline. A slow analysis therefore holds only its own
//! connection's thread, never another connection's dispatch. Threads are
//! bounded by [`ServerConfig::max_connections`], and sockets never change
//! mode.
//!
//! The frame handler is also the server's observability plane: every
//! dispatch frame updates always-on `net.server.*` counters, gauges and
//! per-stage histograms (cached [`Arc`] handles, so the hot path never
//! touches the registry mutex), frames carrying a sampled
//! [`TraceContext`](crate::protocol::TraceContext) get trace-tagged
//! server spans, the N slowest batches land in a [`SlowRing`], and a
//! [`WireMsg::StatsRequest`] answers with the full
//! [`MetricsSnapshot`] plus the ring.

use crate::cache::{PlanCache, PlanCacheStats};
use crate::error::NetError;
use crate::link::{serve, Conn, Served, TcpPeer};
use crate::protocol::{fingerprint, WireFrame, WireMsg};
use crate::stats::{SlowRequest, SlowRing};
use offload_core::{Analysis, AnalysisOptions, Plan};
use offload_obs::{Counter, FieldValue, Gauge, Histogram, MetricsSnapshot, SpanGuard};
use offload_pta::AbsLocId;
use offload_runtime::{DeviceModel, Host, Machine, Outcome, Runner};
use std::io::ErrorKind;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long shutdown's wake-up connect may take before shutdown gives up
/// on joining the accept thread.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Server tuning knobs. Construct with [`ServerConfig::builder`]:
///
/// ```
/// use offload_net::ServerConfig;
///
/// let config = ServerConfig::builder()
///     .max_connections(256)
///     .build();
/// assert_eq!(config.max_connections, 256);
/// ```
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Per-request socket deadline; `None` blocks indefinitely (the
    /// server legitimately idles while the client computes). Also bounds
    /// how long an idle connection is kept before being dropped.
    pub request_timeout: Option<Duration>,
    /// Fault injection for tests: each session's connection dies abruptly
    /// after this many frames.
    pub fail_after_frames: Option<u64>,
    /// Connections beyond this are refused at accept. Each admitted
    /// connection holds one thread, so this also bounds the server's
    /// connection threads.
    pub max_connections: usize,
    /// Slowest dispatch batches retained for `StatsReport` forensics
    /// (0 disables retention).
    pub slow_ring: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            request_timeout: Some(Duration::from_secs(60)),
            fail_after_frames: None,
            max_connections: 1024,
            slow_ring: 16,
        }
    }
}

impl ServerConfig {
    /// A fluent builder starting from [`ServerConfig::default`],
    /// mirroring [`offload_core::AnalysisOptions::builder`].
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            config: ServerConfig::default(),
        }
    }
}

/// Fluent constructor for [`ServerConfig`].
#[derive(Debug, Clone, Default)]
pub struct ServerConfigBuilder {
    config: ServerConfig,
}

impl ServerConfigBuilder {
    /// Does nothing. The server has no worker pool to size: each
    /// connection gets its own thread, and
    /// [`ServerConfigBuilder::max_connections`] bounds them.
    #[deprecated(
        note = "a no-op: each connection has its own thread; bound them with `max_connections`"
    )]
    pub fn threads(self, _n: usize) -> Self {
        self
    }

    /// Sets the accepted-connection cap (at least 1).
    pub fn max_connections(mut self, n: usize) -> Self {
        self.config.max_connections = n.max(1);
        self
    }

    /// Sets the per-request socket deadline (`None` blocks forever).
    pub fn request_timeout(mut self, deadline: Option<Duration>) -> Self {
        self.config.request_timeout = deadline;
        self
    }

    /// Arms per-connection fault injection (tests only).
    pub fn fail_after_frames(mut self, frames: Option<u64>) -> Self {
        self.config.fail_after_frames = frames;
        self
    }

    /// Sets how many slowest batches the forensics ring retains.
    pub fn slow_ring(mut self, n: usize) -> Self {
        self.config.slow_ring = n;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> ServerConfig {
        self.config
    }
}

/// Always-on server metrics, with registry handles resolved once at
/// bind: the dispatch hot path updates plain atomics and never takes the
/// registry mutex. Counters and histograms are cumulative across every
/// server in the process (the registry is process-wide); the gauges are
/// kept correct by paired increments/decrements.
struct ServerMetrics {
    batches: Arc<Counter>,
    dispatch_points: Arc<Counter>,
    analyze_requests: Arc<Counter>,
    stats_requests: Arc<Counter>,
    dispatch_errors: Arc<Counter>,
    analyze_errors: Arc<Counter>,
    protocol_errors: Arc<Counter>,
    idle_reaped: Arc<Counter>,
    active_connections: Arc<Gauge>,
    session_threads: Arc<Gauge>,
    batch_points: Arc<Histogram>,
    select_us: Arc<Histogram>,
    reply_us: Arc<Histogram>,
    batch_us: Arc<Histogram>,
}

impl ServerMetrics {
    fn new() -> ServerMetrics {
        ServerMetrics {
            batches: offload_obs::counter("net.server.batches"),
            dispatch_points: offload_obs::counter("net.server.dispatch_points"),
            analyze_requests: offload_obs::counter("net.server.analyze_requests"),
            stats_requests: offload_obs::counter("net.server.stats_requests"),
            dispatch_errors: offload_obs::counter("net.server.dispatch_errors"),
            analyze_errors: offload_obs::counter("net.server.analyze_errors"),
            protocol_errors: offload_obs::counter("net.server.protocol_errors"),
            idle_reaped: offload_obs::counter("net.server.idle_reaped"),
            active_connections: offload_obs::gauge("net.server.active_connections"),
            session_threads: offload_obs::gauge("net.server.session_threads"),
            batch_points: offload_obs::histogram("net.server.batch_points"),
            select_us: offload_obs::histogram("net.server.select_us"),
            reply_us: offload_obs::histogram("net.server.reply_us"),
            batch_us: offload_obs::histogram("net.server.batch_us"),
        }
    }
}

/// Everything the accept thread and the connection threads share.
struct Service {
    analysis: Arc<Analysis>,
    device: DeviceModel,
    config: ServerConfig,
    cache: PlanCache,
    stop: AtomicBool,
    conns: AtomicUsize,
    metrics: ServerMetrics,
    slow: SlowRing,
}

/// One connection slot under [`ServerConfig::max_connections`], taken at
/// accept. Dropping it frees the slot, so the slot is freed however the
/// connection's thread ends, a panic included, and also when no thread
/// could be started for it.
struct ConnSlot {
    svc: Arc<Service>,
    /// Set once a `Hello` made the connection a session.
    session: bool,
}

impl ConnSlot {
    /// Admits an accepted stream under the connection cap. `None` refuses
    /// the stream by dropping it: the client sees EOF and heals with its
    /// local fallback.
    fn admit(svc: &Arc<Service>, stream: TcpStream) -> Option<(Conn, ConnSlot)> {
        if svc.conns.load(Ordering::SeqCst) >= svc.config.max_connections {
            return None;
        }
        let mut conn = Conn::new(stream, svc.config.request_timeout).ok()?;
        if let Some(n) = svc.config.fail_after_frames {
            conn.fail_after_frames(n);
        }
        svc.conns.fetch_add(1, Ordering::SeqCst);
        svc.metrics.active_connections.add(1);
        let slot = ConnSlot {
            svc: Arc::clone(svc),
            session: false,
        };
        Some((conn, slot))
    }

    /// Counts the connection as a session until its slot is freed.
    fn promote(&mut self) {
        self.svc.metrics.session_threads.add(1);
        self.session = true;
    }
}

impl Drop for ConnSlot {
    fn drop(&mut self) {
        if self.session {
            self.svc.metrics.session_threads.add(-1);
        }
        self.svc.conns.fetch_sub(1, Ordering::SeqCst);
        self.svc.metrics.active_connections.add(-1);
    }
}

/// The offload server daemon.
pub struct OffloadServer;

impl OffloadServer {
    /// Binds a listener (use port 0 for an OS-assigned port), starts the
    /// accept thread, and returns a handle for address discovery, cache
    /// stats, and shutdown. Each admitted connection gets one blocking
    /// thread. The primary `analysis` is pre-registered in the plan
    /// cache, so clients that share the build can send
    /// [`WireMsg::DispatchBatch`] (or [`WireMsg::Hello`]) against its
    /// fingerprint without an [`WireMsg::AnalyzeProgram`] first.
    ///
    /// # Errors
    ///
    /// Bind failures, and failing to start the accept thread.
    pub fn bind(
        addr: impl ToSocketAddrs,
        analysis: Arc<Analysis>,
        device: DeviceModel,
        config: ServerConfig,
    ) -> Result<ServerHandle, NetError> {
        let listener = TcpListener::bind(addr).map_err(|e| NetError::io("binding listener", e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| NetError::io("reading bound address", e))?;
        let cache = PlanCache::default();
        cache.register(Arc::clone(&analysis));
        let slow = SlowRing::new(config.slow_ring);
        let service = Arc::new(Service {
            analysis,
            device,
            config,
            cache,
            stop: AtomicBool::new(false),
            conns: AtomicUsize::new(0),
            metrics: ServerMetrics::new(),
            slow,
        });
        let acceptor = spawn_acceptor(listener, Arc::clone(&service))
            .map_err(|e| NetError::io("starting the accept thread", e))?;
        Ok(ServerHandle {
            addr,
            service,
            threads: vec![acceptor],
        })
    }
}

/// A running server: its address, cache stats, and a shutdown switch.
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<Service>,
    /// The accept thread; empty once shutdown has joined it.
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the plan cache's hit/miss counters.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.service.cache.stats()
    }

    /// Stops accepting connections and joins the accept thread, whose
    /// exit closes the listener. Connection threads, sessions included,
    /// finish on their own: each ends at its next frame, its `Bye`, or
    /// its request deadline, so shutdown never waits on a client.
    pub fn shutdown(&mut self) {
        self.service.stop.store(true, Ordering::SeqCst);
        for acceptor in self.threads.drain(..) {
            // The accept thread blocks in `accept`; one connect wakes it
            // to see the stop flag. If even that connect fails, the
            // thread is left to exit at its next accept rather than hang
            // shutdown.
            if TcpStream::connect_timeout(&wake_addr(self.addr), WAKE_TIMEOUT).is_ok() {
                let _ = acceptor.join();
            }
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Where shutdown connects to wake the accept thread: the bound address,
/// with an unspecified IP (`0.0.0.0`, `::`) mapped to loopback.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// Accepts until shutdown, giving each admitted connection one blocking
/// thread. Connection threads are detached, so shutdown never waits on a
/// client.
fn spawn_acceptor(listener: TcpListener, svc: Arc<Service>) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new().spawn(move || loop {
        let accepted = listener.accept();
        // Shutdown's wake-up connect, or a client that raced it: either
        // way the stream is dropped unserved.
        if svc.stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                if let Some((conn, slot)) = ConnSlot::admit(&svc, stream) {
                    // A thread that cannot start drops its closure, and
                    // with it the slot and the socket.
                    let _ = std::thread::Builder::new().spawn(move || serve_connection(conn, slot));
                }
            }
            // An accept error that would repeat at once (fd exhaustion):
            // back off.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    })
}

/// One connection's thread: answers dispatch frames until a `Hello`
/// (whose session then runs on this same thread), a `Bye`, an error, or a
/// request deadline passing with no frame.
fn serve_connection(conn: Conn, slot: ConnSlot) {
    // Rebound in this order so that `slot` drops before `conn`, also when
    // a panic unwinds the thread: the slot is free by the time the peer
    // sees the socket close.
    let mut conn = conn;
    let mut slot = slot;
    let svc = Arc::clone(&slot.svc);
    while !svc.stop.load(Ordering::SeqCst) {
        match conn.recv() {
            Ok(frame) => match handle_dispatch_frame(&mut conn, frame, &svc) {
                Ok(Disposition::Continue) => continue,
                Ok(Disposition::Promote(hello)) => {
                    slot.promote();
                    // A failed session must not take the daemon down; the
                    // client heals by falling back.
                    let _ = run_session(&mut conn, *hello, &svc);
                }
                Ok(Disposition::Close) | Err(_) => {}
            },
            Err(NetError::Io { source, .. })
                if matches!(source.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
            {
                svc.metrics.idle_reaped.inc();
            }
            Err(_) => {}
        }
        break;
    }
}

/// What a handled frame means for the connection's future.
enum Disposition {
    /// Keep answering frames.
    Continue,
    /// A `Hello` arrived: run its session on this connection. Boxed: a
    /// `WireFrame`, which can carry a full stats report, dwarfs the other
    /// variants.
    Promote(Box<WireFrame>),
    /// Orderly or errored end: drop the connection.
    Close,
}

/// Opens a trace-tagged server span when the frame asks for one (and
/// recording is on); a disabled guard otherwise.
fn trace_span(name: &'static str, trace: crate::protocol::TraceContext, points: u64) -> SpanGuard {
    if trace.is_sampled() && offload_obs::enabled() {
        offload_obs::begin_span(
            "net",
            name,
            vec![
                ("trace_id", FieldValue::from(trace.trace_id)),
                ("parent_span_id", FieldValue::from(trace.parent_span_id)),
                ("points", FieldValue::from(points)),
            ],
        )
    } else {
        SpanGuard::disabled()
    }
}

/// Answers one dispatch-service frame.
fn handle_dispatch_frame(
    conn: &mut Conn,
    frame: WireFrame,
    svc: &Service,
) -> Result<Disposition, NetError> {
    match frame.msg {
        WireMsg::Hello { .. } => Ok(Disposition::Promote(Box::new(frame))),
        WireMsg::Bye => Ok(Disposition::Close),
        WireMsg::AnalyzeProgram { source, trace } => {
            svc.metrics.analyze_requests.inc();
            let mut span = trace_span("server_analyze", trace, 0);
            match svc.cache.analyze(&source, AnalysisOptions::default()) {
                Ok((analysis, fp, cache_hit)) => {
                    span.record("cache_hit", cache_hit);
                    conn.reply(
                        frame.request_id,
                        WireMsg::AnalyzeAck {
                            fingerprint: fp,
                            choices: analysis.partition.choices.len() as u32,
                            params: analysis.symbolic.dict.param_count() as u32,
                            cache_hit,
                        },
                    )?;
                }
                Err(e) => {
                    // An unanalyzable program is the client's problem,
                    // not the connection's: report and keep serving.
                    svc.metrics.analyze_errors.inc();
                    conn.reply(frame.request_id, WireMsg::Error(e.to_string()))?;
                }
            }
            Ok(Disposition::Continue)
        }
        WireMsg::DispatchBatch {
            fingerprint: fp,
            points,
            trace,
        } => {
            let start = Instant::now();
            let m = &svc.metrics;
            m.batches.inc();
            m.dispatch_points.add(points.len() as u64);
            m.batch_points.record(points.len() as u64);
            let mut batch_span = trace_span("server_batch", trace, points.len() as u64);
            let lookup = svc.cache.lookup(fp);
            let cache_hit = lookup.is_some();
            let Some(analysis) = lookup else {
                m.dispatch_errors.inc();
                conn.reply(
                    frame.request_id,
                    WireMsg::Error(format!("no cached analysis with fingerprint {fp:#018x}")),
                )?;
                return Ok(Disposition::Continue);
            };
            let select_start = Instant::now();
            let mut choices = Vec::with_capacity(points.len());
            let mut failed = None;
            {
                let _dispatch_span = trace_span("server_dispatch", trace, points.len() as u64);
                for point in &points {
                    match analysis.select(point) {
                        Ok(c) => choices.push(c as u32),
                        Err(e) => {
                            failed = Some(e);
                            break;
                        }
                    }
                }
            }
            let select_us = select_start.elapsed().as_micros() as u64;
            m.select_us.record(select_us);
            let reply_start = Instant::now();
            match failed {
                // A batch answers all points or none: partial answers
                // would desynchronize the client's point/choice pairing.
                Some(e) => {
                    m.dispatch_errors.inc();
                    conn.reply(frame.request_id, WireMsg::Error(e.to_string()))?;
                }
                None => conn.reply(frame.request_id, WireMsg::DispatchChoices { choices })?,
            }
            let reply_us = reply_start.elapsed().as_micros() as u64;
            m.reply_us.record(reply_us);
            let total_us = start.elapsed().as_micros() as u64;
            m.batch_us.record(total_us);
            batch_span.record("total_us", total_us);
            svc.slow.offer(SlowRequest {
                trace_id: trace.trace_id,
                batch_points: points.len() as u32,
                select_us,
                reply_us,
                total_us,
                cache_hit,
            });
            Ok(Disposition::Continue)
        }
        WireMsg::StatsRequest { client_time_us: _ } => {
            let recv_time_us = offload_obs::now_us();
            svc.metrics.stats_requests.inc();
            let snapshot = MetricsSnapshot::capture();
            let slow = svc.slow.snapshot();
            let send_time_us = offload_obs::now_us();
            conn.reply(
                frame.request_id,
                WireMsg::StatsReport {
                    snapshot,
                    slow,
                    recv_time_us,
                    send_time_us,
                },
            )?;
            Ok(Disposition::Continue)
        }
        other => {
            svc.metrics.protocol_errors.inc();
            let msg = format!("unexpected {} on a dispatch connection", other.kind());
            let _ = conn.reply(frame.request_id, WireMsg::Error(msg.clone()));
            Err(NetError::protocol(msg))
        }
    }
}

/// One client session: finish the handshake (the `Hello` frame was
/// already read by [`serve_connection`]), then alternate between serving
/// the active client and running our own turns.
fn run_session(conn: &mut Conn, hello: WireFrame, svc: &Service) -> Result<(), NetError> {
    let (analysis, choice, params, max_steps) = match hello.msg {
        WireMsg::Hello {
            fingerprint: fp,
            choice,
            params,
            max_steps,
            client_time_us: _,
        } => {
            // Any cached analysis may host a session, not just the
            // primary one the server was started with.
            let Some(analysis) = svc.cache.lookup(fp) else {
                let ours = fingerprint(&svc.analysis);
                let e = NetError::FingerprintMismatch { ours, theirs: fp };
                let _ = conn.reply(hello.request_id, WireMsg::Error(e.to_string()));
                return Err(e);
            };
            if choice as usize >= analysis.partition.choices.len() {
                let msg = format!("choice {choice} out of range");
                let _ = conn.reply(hello.request_id, WireMsg::Error(msg.clone()));
                return Err(NetError::protocol(msg));
            }
            (analysis, choice as usize, params, max_steps)
        }
        other => {
            return Err(NetError::protocol(format!(
                "expected Hello, got {}",
                other.kind()
            )))
        }
    };
    let mut session_span = offload_obs::span!("net", "session", choice = choice,);
    conn.reply(
        hello.request_id,
        WireMsg::HelloAck {
            server_time_us: offload_obs::now_us(),
        },
    )?;

    // The server half of the executor, configured identically to the
    // client's (same analysis, same plan, same device constants).
    let tracked: Vec<AbsLocId> = analysis.items.items.iter().map(|i| i.loc).collect();
    let runner = Runner {
        module: &analysis.module,
        tcfg: &analysis.tcfg,
        pta: &analysis.pta,
        tracked_order: &tracked,
        device: &svc.device,
        plan: Plan::Partitioned(&analysis.partition.choices[choice]),
        max_steps,
    };
    let mut machine = Machine::new(&runner, Host::Server, &params, &[]);

    let mut turns = 0u64;
    let finish = |span: &mut offload_obs::SpanGuard, conn: &Conn, turns: u64| {
        span.record("turns", turns);
        span.record("bytes_received", conn.bytes_received());
        span.record("bytes_sent", conn.bytes_sent());
    };
    loop {
        let rx_before = conn.bytes_received();
        let served = match serve(&mut machine, conn) {
            Ok(s) => s,
            Err(e) => {
                finish(&mut session_span, conn, turns);
                return Err(e);
            }
        };
        match served {
            Served::Bye => {
                finish(&mut session_span, conn, turns);
                return Ok(());
            }
            Served::Control(msg) => {
                turns += 1;
                let mut turn_span = offload_obs::span!("net", "server_turn", turn = turns,);
                let tx0 = conn.bytes_sent();
                let mut peer = TcpPeer::new(conn);
                let outcome = machine.run_turn(msg, &mut peer);
                // The request frame was already read by `serve`, so the
                // inbound window opens before it (and picks up any
                // mid-turn item fetches); the outbound window closes
                // only after the control reply below goes out.
                turn_span.record("request_bytes", conn.bytes_received() - rx_before);
                match outcome {
                    Ok(Outcome::Yield(back)) => {
                        let sent = conn.send(WireMsg::Control(Box::new(back)));
                        turn_span.record("response_bytes", conn.bytes_sent() - tx0);
                        drop(turn_span);
                        sent?;
                    }
                    // The run never terminates on the server: an empty
                    // stack yields a `Finish` control home instead.
                    Ok(Outcome::Done) => {
                        turn_span.record("response_bytes", conn.bytes_sent() - tx0);
                        drop(turn_span);
                        finish(&mut session_span, conn, turns);
                        return Ok(());
                    }
                    Err(e) => {
                        let _ = conn.send(WireMsg::Error(e.to_string()));
                        turn_span.record("response_bytes", conn.bytes_sent() - tx0);
                        drop(turn_span);
                        finish(&mut session_span, conn, turns);
                        return Err(e.into());
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! The plane end to end on one server: dispatch, a session on a
    //! connection's own thread, the request deadline, and shutdown.

    use super::*;
    use crate::protocol::encode_frame;
    use crate::{ClientConfig, DispatchClient, OffloadEngine};
    use offload_runtime::Simulator;
    use std::io::{Read, Write};

    const PROGRAM: &str = "
        int work(int k) { int j; int acc; acc = 0;
            for (j = 0; j < k; j++) { acc = acc + j * j % 1000; }
            return acc; }
        void main(int n) { output(work(n)); }";

    #[test]
    fn thread_per_connection_plane_serves_reaps_and_shuts_down() {
        let timeout = Duration::from_millis(1500);
        let analysis =
            Arc::new(Analysis::from_source(PROGRAM, AnalysisOptions::default()).expect("analysis"));
        let device = DeviceModel::ipaq_testbed();
        let config = ServerConfig::builder()
            .request_timeout(Some(timeout))
            .build();
        let mut server =
            OffloadServer::bind("127.0.0.1:0", analysis.clone(), device.clone(), config)
                .expect("bind");
        let addr = server.addr().to_string();

        // Dispatch batches answer exactly like the local dispatcher.
        let points = vec![vec![0i64], vec![40], vec![1_000], vec![100_000], vec![-7]];
        let mut client = DispatchClient::connect(&ClientConfig::new(&addr)).expect("connect");
        let choices = client
            .dispatch(fingerprint(&analysis), &points)
            .expect("dispatch");
        for (p, &got) in points.iter().zip(&choices) {
            assert_eq!(
                got,
                analysis.select(p).expect("select") as u32,
                "point {p:?}"
            );
        }
        client.close();

        // A `Hello` runs the session on the connection's own thread.
        let engine = OffloadEngine::new(&analysis, device.clone(), ClientConfig::new(&addr));
        let report = engine.run(&[1_000], &[]).expect("offloaded run");
        assert!(
            report.offloaded && !report.fell_back,
            "{:?}",
            report.fallback_reason
        );
        let local = Simulator::new(&analysis, device).run_local(&[1_000], &[]);
        assert_eq!(report.result.outputs, local.expect("local run").outputs);

        // Half a frame, then silence: closed at the request deadline.
        let reaped = offload_obs::counter("net.server.idle_reaped");
        let reaped_before = reaped.get();
        let frame = encode_frame(&WireFrame {
            request_id: 1,
            msg: WireMsg::Error("stalled".into()),
        });
        let mut staller = TcpStream::connect(&addr).expect("staller connect");
        staller
            .write_all(&frame[..frame.len() / 2])
            .expect("half frame");
        let stalled_at = Instant::now();
        staller
            .set_read_timeout(Some(timeout * 10))
            .expect("timeout");
        let read = staller.read(&mut [0u8; 16]);
        let closed_after = stalled_at.elapsed();
        assert!(
            matches!(read, Ok(0) | Err(_)),
            "staller got a reply: {read:?}"
        );
        assert!(
            closed_after >= timeout - Duration::from_millis(50) && closed_after < timeout * 5,
            "staller closed after {closed_after:?}, deadline {timeout:?}"
        );
        assert_eq!(reaped.get() - reaped_before, 1);

        // Shutdown joins the acceptor, whose exit closes the listener.
        server.shutdown();
        assert!(server.threads.is_empty());
        assert!(
            TcpStream::connect(&addr).is_err(),
            "listener outlived shutdown"
        );
    }

    #[test]
    fn shutdown_wakes_an_unspecified_bind_through_loopback() {
        for (bound, woken) in [
            ("0.0.0.0:7070", "127.0.0.1:7070"),
            ("[::]:7070", "[::1]:7070"),
            ("10.1.2.3:7070", "10.1.2.3:7070"),
            ("[::1]:7070", "[::1]:7070"),
        ] {
            let bound: SocketAddr = bound.parse().expect("address");
            assert_eq!(wake_addr(bound), woken.parse().expect("address"));
        }
    }
}
