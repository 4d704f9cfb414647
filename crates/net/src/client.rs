//! The client engine: the dispatcher loop over a real socket, with
//! bounded retries, per-request deadlines, and graceful degradation to
//! the all-local plan when the server is unreachable or dies mid-run.

use crate::error::NetError;
use crate::link::{serve, Conn, Served, TcpPeer};
use crate::protocol::{fingerprint, TraceContext, WireMsg};
use crate::stats::SlowRequest;
use offload_core::{Analysis, Plan};
use offload_obs::{FieldValue, MetricsSnapshot, SpanGuard};
use offload_pta::AbsLocId;
use offload_runtime::{
    ControlMsg, DeviceModel, Host, Machine, Outcome, RunResult, Runner, RuntimeError,
};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// SplitMix64: the trace-id generator. Statistically well-mixed,
/// deterministic from the seed, and cheap (no locks, no entropy source).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-process counter handing each new [`DispatchClient`] a distinct
/// trace-id seed, so concurrent clients never mint colliding ids.
static NEXT_CLIENT_SEED: AtomicU64 = AtomicU64::new(1);

/// Bounded, deterministic (jitter-free) exponential backoff, so tests
/// and reproductions observe identical retry schedules.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total connection attempts (1 = no retry).
    pub max_attempts: u32,
    /// Delay before the second attempt; doubles each further attempt.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// A single attempt, no waiting.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// The deterministic delay before attempt `n` (1-based; attempt 1 is
    /// immediate): `min(base · 2^(n-2), max)`.
    pub fn delay_before(&self, attempt: u32) -> Duration {
        if attempt <= 1 {
            return Duration::ZERO;
        }
        let factor = 1u32 << (attempt - 2).min(20);
        (self.base_delay * factor).min(self.max_delay)
    }
}

/// Client engine configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Server address, e.g. `"127.0.0.1:7070"`.
    pub server: String,
    /// Deadline for establishing the TCP connection.
    pub connect_timeout: Duration,
    /// Per-request socket deadline (also bounds how long the client
    /// waits for the server's turn to complete).
    pub request_timeout: Duration,
    /// Connection retry schedule.
    pub retry: RetryPolicy,
    /// Step budget forwarded to both halves (0 = executor default).
    pub max_steps: u64,
}

impl ClientConfig {
    /// Sensible defaults against the given server address.
    pub fn new(server: impl Into<String>) -> Self {
        ClientConfig {
            server: server.into(),
            connect_timeout: Duration::from_secs(2),
            request_timeout: Duration::from_secs(30),
            retry: RetryPolicy::default(),
            max_steps: 0,
        }
    }
}

/// What one adaptive run did, and how.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The partitioning choice the dispatcher selected.
    pub choice: usize,
    /// Outputs and virtual-cost statistics.
    pub result: RunResult,
    /// Whether the run actually executed over the network.
    pub offloaded: bool,
    /// Whether the engine degraded to the all-local plan.
    pub fell_back: bool,
    /// Why it degraded, when it did.
    pub fallback_reason: Option<String>,
    /// TCP connection attempts spent (0 when no connection was needed).
    pub connect_attempts: u32,
    /// Estimated client-clock-minus-server-clock offset in microseconds
    /// (both clocks count from their process's observability epoch),
    /// from the `Hello`/`HelloAck` timestamps; `None` when no handshake
    /// completed. Feed it to
    /// [`offload_obs::export::merged_trace_json`] to place server spans
    /// on the client timeline.
    pub server_clock_offset_us: Option<i64>,
}

/// A live server scrape: everything a [`WireMsg::StatsReport`] carries,
/// plus the round-trip measurements the client added.
#[derive(Debug, Clone)]
pub struct StatsView {
    /// The server's full metrics registry at capture time.
    pub snapshot: MetricsSnapshot,
    /// The server's slow-request ring, slowest first.
    pub slow: Vec<SlowRequest>,
    /// Estimated client-clock-minus-server-clock offset (NTP-style from
    /// the four scrape timestamps; both clocks are micros since their
    /// process's observability epoch). Add it to a server timestamp to
    /// place it on the client timeline.
    pub clock_offset_us: i64,
    /// Round-trip time of the scrape, minus server handling time.
    pub rtt_us: u64,
}

/// What the server reported back for an analyzed program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalyzeInfo {
    /// Fingerprint identifying the server-resident analysis in later
    /// [`DispatchClient::dispatch`] calls.
    pub fingerprint: u64,
    /// Number of partitioning choices in the solution.
    pub choices: u32,
    /// Number of `main` parameters (the dispatch arity).
    pub params: u32,
    /// Whether the server's plan cache already held the analysis.
    pub cache_hit: bool,
}

/// A persistent client of the server's dispatch service: analyze
/// programs remotely (cached server-side by source) and dispatch many
/// parameter points per round trip.
///
/// [`DispatchClient::dispatch`] is the simple call; the
/// [`DispatchClient::send_dispatch`] / [`DispatchClient::recv_choices`]
/// split pipelines several batches onto the wire before collecting any
/// replies.
pub struct DispatchClient {
    conn: Conn,
    /// Every Nth dispatch mints a trace context (0 = never, 1 = every
    /// dispatch). The first dispatch is always sampled when nonzero.
    trace_interval: u64,
    trace_seed: u64,
    dispatch_seq: u64,
}

impl DispatchClient {
    /// Connects to the dispatch service (no handshake frame: the
    /// connection stays a dispatch connection until a `Hello` would
    /// promote it to a session).
    ///
    /// # Errors
    ///
    /// Address resolution and connect failures (no retry schedule: the
    /// dispatch service is for long-lived connections, so callers retry
    /// at their own cadence).
    pub fn connect(config: &ClientConfig) -> Result<DispatchClient, NetError> {
        let addrs: Vec<SocketAddr> = config
            .server
            .to_socket_addrs()
            .map_err(|e| NetError::io("resolving server address", e))?
            .collect();
        let addr = addrs
            .first()
            .ok_or_else(|| NetError::protocol("server address resolved to nothing"))?;
        let stream = TcpStream::connect_timeout(addr, config.connect_timeout)
            .map_err(|e| NetError::io(format!("connecting to {}", config.server), e))?;
        let conn = Conn::new(stream, Some(config.request_timeout))?;
        Ok(DispatchClient {
            conn,
            trace_interval: 1,
            trace_seed: NEXT_CLIENT_SEED.fetch_add(1, Ordering::Relaxed),
            dispatch_seq: 0,
        })
    }

    /// Sets the trace sampling interval: every `n`th dispatch (and
    /// analyze) carries a trace context while recording is enabled; 0
    /// disables tracing entirely. The default is 1 (trace everything) —
    /// high-rate load generators should thin this out so span recording
    /// does not dominate the run.
    pub fn set_trace_interval(&mut self, n: u64) {
        self.trace_interval = n;
    }

    /// Overrides the trace-id seed (default: a process-unique value), so
    /// deterministic harnesses mint reproducible trace ids.
    pub fn set_trace_seed(&mut self, seed: u64) {
        self.trace_seed = seed;
    }

    /// Mints the trace context for the next request: sampled iff span
    /// recording is on and the sequence number hits the interval.
    fn next_trace(&mut self) -> TraceContext {
        let seq = self.dispatch_seq;
        self.dispatch_seq += 1;
        if self.trace_interval == 0 || seq % self.trace_interval != 0 || !offload_obs::enabled() {
            return TraceContext::default();
        }
        // `| 1` keeps the id nonzero (zero means "untraced" on the wire).
        let trace_id = splitmix64(self.trace_seed ^ seq.wrapping_mul(0x2545_f491_4f6c_dd1d)) | 1;
        TraceContext {
            trace_id,
            parent_span_id: trace_id,
        }
    }

    /// Has the server analyze `source` (or find it in its plan cache).
    ///
    /// # Errors
    ///
    /// Transport failures, and [`NetError::Remote`] when the program
    /// fails to analyze.
    pub fn analyze(&mut self, source: &str) -> Result<AnalyzeInfo, NetError> {
        let trace = self.next_trace();
        let id = self.conn.send(WireMsg::AnalyzeProgram {
            source: source.to_string(),
            trace,
        })?;
        let reply = self.conn.recv()?;
        if reply.request_id != id {
            return Err(NetError::protocol(format!(
                "reply id {} does not match request id {id}",
                reply.request_id
            )));
        }
        match reply.msg {
            WireMsg::AnalyzeAck {
                fingerprint,
                choices,
                params,
                cache_hit,
            } => Ok(AnalyzeInfo {
                fingerprint,
                choices,
                params,
                cache_hit,
            }),
            WireMsg::Error(m) => Err(NetError::Remote(m)),
            other => Err(NetError::protocol(format!(
                "expected AnalyzeAck, got {}",
                other.kind()
            ))),
        }
    }

    /// Dispatches a batch of parameter points in one round trip,
    /// returning one choice index per point, in order.
    ///
    /// # Errors
    ///
    /// Transport failures, and [`NetError::Remote`] when the fingerprint
    /// is unknown or any point fails to dispatch.
    pub fn dispatch(
        &mut self,
        fingerprint: u64,
        points: &[Vec<i64>],
    ) -> Result<Vec<u32>, NetError> {
        let trace = self.next_trace();
        // The client half of a merged request trace: this span carries
        // the same trace id as the server spans handling the batch, and
        // brackets the full round trip (send → server → receive).
        let mut span = if trace.is_sampled() {
            offload_obs::begin_span(
                "net",
                "client_dispatch",
                vec![
                    ("trace_id", FieldValue::from(trace.trace_id)),
                    ("points", FieldValue::from(points.len() as u64)),
                ],
            )
        } else {
            SpanGuard::disabled()
        };
        let id = self.send_dispatch_traced(fingerprint, points, trace)?;
        let out = self.recv_choices(id);
        span.record("ok", out.is_ok());
        out
    }

    /// Puts a [`WireMsg::DispatchBatch`] on the wire without waiting,
    /// returning its request id for [`DispatchClient::recv_choices`].
    /// Call repeatedly to pipeline batches; collect replies in the same
    /// order.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn send_dispatch(
        &mut self,
        fingerprint: u64,
        points: &[Vec<i64>],
    ) -> Result<u64, NetError> {
        let trace = self.next_trace();
        self.send_dispatch_traced(fingerprint, points, trace)
    }

    fn send_dispatch_traced(
        &mut self,
        fingerprint: u64,
        points: &[Vec<i64>],
        trace: TraceContext,
    ) -> Result<u64, NetError> {
        self.conn.send(WireMsg::DispatchBatch {
            fingerprint,
            points: points.to_vec(),
            trace,
        })
    }

    /// Receives the [`WireMsg::DispatchChoices`] reply to a previously
    /// sent batch.
    ///
    /// # Errors
    ///
    /// Transport failures, reply/request id mismatches, and
    /// [`NetError::Remote`] when the server rejected the batch.
    pub fn recv_choices(&mut self, request_id: u64) -> Result<Vec<u32>, NetError> {
        let reply = self.conn.recv()?;
        if reply.request_id != request_id {
            return Err(NetError::protocol(format!(
                "reply id {} does not match request id {request_id}",
                reply.request_id
            )));
        }
        match reply.msg {
            WireMsg::DispatchChoices { choices } => Ok(choices),
            WireMsg::Error(m) => Err(NetError::Remote(m)),
            other => Err(NetError::protocol(format!(
                "expected DispatchChoices, got {}",
                other.kind()
            ))),
        }
    }

    /// Scrapes the server's live metrics in one round trip, estimating
    /// the inter-process clock offset NTP-style from the four
    /// timestamps: client send `t0`, server receive `t1`, server send
    /// `t2`, client receive `t3` give
    /// `offset = ((t0 − t1) + (t3 − t2)) / 2` (client minus server),
    /// accurate to half the path asymmetry.
    ///
    /// # Errors
    ///
    /// Transport failures, reply/request id mismatches, and
    /// [`NetError::Remote`] when the server rejects the scrape.
    pub fn stats(&mut self) -> Result<StatsView, NetError> {
        let t0 = offload_obs::now_us();
        let id = self
            .conn
            .send(WireMsg::StatsRequest { client_time_us: t0 })?;
        let reply = self.conn.recv()?;
        let t3 = offload_obs::now_us();
        if reply.request_id != id {
            return Err(NetError::protocol(format!(
                "reply id {} does not match request id {id}",
                reply.request_id
            )));
        }
        match reply.msg {
            WireMsg::StatsReport {
                snapshot,
                slow,
                recv_time_us,
                send_time_us,
            } => {
                let server_held = send_time_us.saturating_sub(recv_time_us);
                let rtt_us = (t3 - t0).saturating_sub(server_held);
                let clock_offset_us =
                    ((t0 as i64 - recv_time_us as i64) + (t3 as i64 - send_time_us as i64)) / 2;
                Ok(StatsView {
                    snapshot,
                    slow,
                    clock_offset_us,
                    rtt_us,
                })
            }
            WireMsg::Error(m) => Err(NetError::Remote(m)),
            other => Err(NetError::protocol(format!(
                "expected StatsReport, got {}",
                other.kind()
            ))),
        }
    }

    /// Ends the session with an orderly `Bye` (best-effort: the server
    /// also reaps silently dropped connections).
    pub fn close(mut self) {
        let _ = self.conn.send(WireMsg::Bye);
    }
}

/// The adaptive offloading engine: dispatch on the parameters, execute
/// the chosen plan over TCP, fall back to all-local on transport
/// failure.
pub struct OffloadEngine<'a> {
    analysis: &'a Analysis,
    device: DeviceModel,
    config: ClientConfig,
    tracked: Vec<AbsLocId>,
}

/// What a successful remote run hands back to [`OffloadEngine::run`]:
/// the result, connect attempts, and the estimated client-minus-server
/// clock offset (µs).
type RemoteRun = (RunResult, u32, i64);

impl<'a> OffloadEngine<'a> {
    /// Creates an engine for one compiled analysis.
    pub fn new(analysis: &'a Analysis, device: DeviceModel, config: ClientConfig) -> Self {
        let tracked = analysis.items.items.iter().map(|i| i.loc).collect();
        OffloadEngine {
            analysis,
            device,
            config,
            tracked,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ClientConfig {
        &self.config
    }

    /// Executes `main(params)` adaptively.
    ///
    /// Selects the partitioning choice for the parameter values (the
    /// Figure 2 dispatch), then:
    ///
    /// * all-local choice → run locally, no connection;
    /// * partitioned choice → run the client half here and the server
    ///   half on the remote daemon, turn by turn over the socket.
    ///
    /// Transport failures — connect refusals after the retry budget,
    /// deadline expiries, the server dying mid-run — degrade gracefully:
    /// the run restarts under the all-local plan (the program is
    /// deterministic and I/O is buffered, so re-execution is safe) and
    /// the report records `fell_back = true` with the reason. Program
    /// faults and server-reported runtime errors are *not* healed; they
    /// propagate.
    ///
    /// # Errors
    ///
    /// Dispatch failures, program faults, and non-transport protocol
    /// errors.
    pub fn run(&self, params: &[i64], input: &[i64]) -> Result<RunReport, NetError> {
        let (choice, plan) = self.analysis.plan_for(params)?;
        let Plan::Partitioned(partition) = plan else {
            let result = self.run_plan(Plan::AllLocal, params, input)?;
            return Ok(RunReport {
                choice,
                result,
                offloaded: false,
                fell_back: false,
                fallback_reason: None,
                connect_attempts: 0,
                server_clock_offset_us: None,
            });
        };
        match self.try_remote(choice, partition, params, input) {
            Ok((result, connect_attempts, clock_offset)) => Ok(RunReport {
                choice,
                result,
                offloaded: true,
                fell_back: false,
                fallback_reason: None,
                connect_attempts,
                server_clock_offset_us: Some(clock_offset),
            }),
            Err((e, connect_attempts)) if e.is_transport() => {
                offload_obs::event!("net", "fallback", choice = choice, cause = e.to_string(),);
                if offload_obs::enabled() {
                    offload_obs::counter("net.fallbacks").inc();
                }
                let result = self.run_plan(Plan::AllLocal, params, input)?;
                Ok(RunReport {
                    choice,
                    result,
                    offloaded: false,
                    fell_back: true,
                    fallback_reason: Some(e.to_string()),
                    connect_attempts,
                    server_clock_offset_us: None,
                })
            }
            Err((e, _)) => Err(e),
        }
    }

    fn runner<'b>(&'b self, plan: Plan<'b>) -> Runner<'b> {
        Runner {
            module: &self.analysis.module,
            tcfg: &self.analysis.tcfg,
            pta: &self.analysis.pta,
            tracked_order: &self.tracked,
            device: &self.device,
            plan,
            max_steps: self.config.max_steps,
        }
    }

    /// In-process execution under a plan (the fallback path, and the
    /// all-local fast path).
    fn run_plan(
        &self,
        plan: Plan<'_>,
        params: &[i64],
        input: &[i64],
    ) -> Result<RunResult, NetError> {
        Ok(self.runner(plan).run(params, input)?)
    }

    /// Connects with the bounded deterministic retry schedule.
    fn connect(&self) -> Result<(TcpStream, u32), (NetError, u32)> {
        let mut span = offload_obs::span!(
            "net",
            "connect",
            max_attempts = self.config.retry.max_attempts,
        );
        let addrs: Vec<SocketAddr> = match self.config.server.to_socket_addrs() {
            Ok(a) => a.collect(),
            Err(e) => return Err((NetError::io("resolving server address", e), 0)),
        };
        if addrs.is_empty() {
            return Err((NetError::protocol("server address resolved to nothing"), 0));
        }
        let mut last: Option<std::io::Error> = None;
        let mut attempts = 0;
        for attempt in 1..=self.config.retry.max_attempts {
            std::thread::sleep(self.config.retry.delay_before(attempt));
            attempts = attempt;
            match TcpStream::connect_timeout(&addrs[0], self.config.connect_timeout) {
                Ok(s) => {
                    span.record("attempts", attempts);
                    span.record("ok", true);
                    return Ok((s, attempts));
                }
                Err(e) => {
                    offload_obs::event!(
                        "net",
                        "connect_retry",
                        attempt = attempt,
                        cause = e.to_string(),
                    );
                    if offload_obs::enabled() {
                        offload_obs::counter("net.connect_retries").inc();
                    }
                    last = Some(e);
                }
            }
        }
        span.record("attempts", attempts);
        span.record("ok", false);
        let e = last.unwrap_or_else(|| std::io::Error::other("no attempt made"));
        Err((
            NetError::io(
                format!("connecting to {} ({attempts} attempts)", self.config.server),
                e,
            ),
            attempts,
        ))
    }

    /// The full remote run: handshake, then the turn-taking loop.
    fn try_remote(
        &self,
        choice: usize,
        partition: &offload_core::Partition,
        params: &[i64],
        input: &[i64],
    ) -> Result<RemoteRun, (NetError, u32)> {
        let mut span = offload_obs::span!("net", "remote_run", choice = choice,);
        let (stream, attempts) = self.connect()?;
        let fail = |e: NetError| (e, attempts);
        let mut conn = Conn::new(stream, Some(self.config.request_timeout)).map_err(fail)?;

        // Handshake: agree on program, plan and parameters.
        let t0 = offload_obs::now_us();
        let id = conn
            .send(WireMsg::Hello {
                fingerprint: fingerprint(self.analysis),
                choice: choice as u32,
                params: params.to_vec(),
                max_steps: self.config.max_steps,
                client_time_us: t0,
            })
            .map_err(fail)?;
        let ack = conn.recv().map_err(fail)?;
        let t3 = offload_obs::now_us();
        let clock_offset = match ack.msg {
            // One server timestamp instead of NTP's two: assume it was
            // taken at the round trip's midpoint. Client minus server,
            // like `DispatchClient::stats`.
            WireMsg::HelloAck { server_time_us } if ack.request_id == id => {
                (t0 as i64 + t3 as i64) / 2 - server_time_us as i64
            }
            WireMsg::Error(m) => return Err(fail(NetError::HandshakeRefused(m))),
            other => {
                return Err(fail(NetError::protocol(format!(
                    "expected HelloAck, got {}",
                    other.kind()
                ))))
            }
        };

        // The client half of the executor; the server built its twin from
        // the Hello.
        let runner = self.runner(Plan::Partitioned(partition));
        let mut machine = Machine::new(&runner, Host::Client, params, input);
        let mut msg = ControlMsg::start();
        loop {
            let mut peer = TcpPeer::new(&mut conn);
            match machine.run_turn(msg, &mut peer) {
                Ok(Outcome::Yield(out)) => {
                    conn.send(WireMsg::Control(Box::new(out))).map_err(fail)?;
                    match serve(&mut machine, &mut conn).map_err(fail)? {
                        Served::Control(back) => msg = back,
                        Served::Bye => {
                            return Err(fail(NetError::protocol(
                                "server ended the session mid-run",
                            )))
                        }
                    }
                }
                Ok(Outcome::Done) => {
                    // Orderly teardown; the result no longer depends on
                    // the socket, so send errors are ignored.
                    let _ = conn.send(WireMsg::Bye);
                    span.record("connect_attempts", attempts);
                    span.record("bytes_sent", conn.bytes_sent());
                    span.record("bytes_received", conn.bytes_received());
                    return Ok((machine.into_result(), attempts, clock_offset));
                }
                Err(e @ RuntimeError::HostLink(_)) => return Err(fail(e.into())),
                Err(e) => {
                    let _ = conn.send(WireMsg::Error(e.to_string()));
                    return Err(fail(e.into()));
                }
            }
        }
    }
}
