//! The wire protocol: a hand-rolled length-prefixed binary framing.
//!
//! Every frame is
//!
//! ```text
//! varint(total payload length) ·
//!   [ version: u8 | type: u8 | varint(request id) | body ]
//! ```
//!
//! Integers use LEB128 varints (zigzag for signed values); exact
//! rationals travel in their canonical `"n"`/`"n/d"` decimal string form,
//! which [`offload_poly::Rational`]'s `Display`/`FromStr` round-trips
//! losslessly. The body encodings mirror the runtime's turn-taking state
//! machine: control transfers carry the full [`ControlMsg`] — call stack,
//! per-item validity states, the dynamic-allocation registration table
//! and the cost ledger — and item traffic carries [`ItemPayload`]s.
//!
//! Request ids increase monotonically per sender; replies echo the id of
//! the request they answer.

use crate::error::NetError;
use crate::stats::SlowRequest;
use offload_core::Analysis;
use offload_ir::{AllocSiteId, BlockId, FuncId, LocalId};
use offload_obs::{HistogramSummary, MetricValue, MetricsSnapshot};
use offload_poly::Rational;
use offload_pta::AbsLocId;
use offload_runtime::{
    ControlMsg, Frame, Host, ItemPayload, Ledger, ObjEntry, ObjKey, PendingAction, RunStats, Value,
};
use offload_tcfg::SegmentId;

/// Protocol version; bumped on any incompatible framing change.
/// (v2: `HelloAck` carries the server's analysis `PipelineStats`;
/// v3: `PipelineStats` gains `sequential_strategy` and `HelloAck`
/// additionally carries the server's span summary;
/// v4: `PipelineStats` gains `lp_cache_hits` and
/// `small_int_promotions`;
/// v5: `PipelineStats` gains the incremental-projection counters
/// `prefilter_hits`, `lp_warm_starts`, `dual_pivots` and the phase
/// timings `prune_micros`, `region_lp_micros`;
/// v6: the dispatch service — [`WireMsg::AnalyzeProgram`] /
/// [`WireMsg::AnalyzeAck`] (server-side analysis with a sharded plan
/// cache) and [`WireMsg::DispatchBatch`] / [`WireMsg::DispatchChoices`]
/// (many parameter points dispatched per round trip over a persistent
/// connection);
/// v7: the observability plane — [`WireMsg::AnalyzeProgram`] and
/// [`WireMsg::DispatchBatch`] carry a client-generated [`TraceContext`],
/// [`WireMsg::Hello`] / [`WireMsg::HelloAck`] exchange epoch-relative
/// timestamps for clock-offset estimation, and
/// [`WireMsg::StatsRequest`] / [`WireMsg::StatsReport`] scrape a live
/// server's full [`MetricsSnapshot`] plus its slow-request ring;
/// v8: `PipelineStats` gains the float-shadow certification counters
/// `shadow_proposals`, `shadow_certified`, `shadow_fallbacks` and the
/// timing `certify_micros`;
/// v9: histogram summaries inside [`WireMsg::StatsReport`] snapshots
/// gain a `p999` estimate, surfacing the tail the readiness reactor
/// targets;
/// v10: `PipelineStats` travels as `(name, value)` pairs and a decoder
/// skips names it does not know, so adding a counter no longer changes
/// the protocol;
/// `sequential_strategy` is gone and `prefilter_hits` is split into its
/// four pre-filter stage counts. `certify_micros`, `threads_used`,
/// `shadow_proposals` and `shadow_certified` were later dropped without
/// a bump: a v10 decoder skips a name it does not know;
/// v11: [`WireMsg::HelloAck`] carries only `server_time_us`. The server's
/// analysis counters reach clients through the metrics registry alone
/// (`pipeline.<name>` in a [`WireMsg::StatsReport`]), so no counter
/// change touches the protocol;
/// v12: [`SlowRequest`] drops `queue_us`, which is always 0 now that each
/// connection has its own thread and no frame waits in a worker queue.)
pub const PROTOCOL_VERSION: u8 = 12;

/// Upper bound on a single frame's payload (a corruption guard, not a
/// tight limit).
pub const MAX_FRAME_LEN: u64 = 256 * 1024 * 1024;

/// Client-generated trace context carried on v7 request frames.
///
/// The client mints a nonzero `trace_id` for every *sampled* request and
/// tags its own spans with it; the server tags the spans it records
/// while handling the frame with the same id, so the merged-trace
/// exporter can reassemble one causally-nested tree from the two
/// recorders. A zero `trace_id` (the [`Default`]) means "untraced" — the
/// server handles the frame without recording request-level spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceContext {
    /// Request-scoped identifier shared by every span of the request on
    /// both sides; 0 = untraced.
    pub trace_id: u64,
    /// The client-side span the server's spans nest under (an opaque
    /// client-chosen value, echoed into server span fields).
    pub parent_span_id: u64,
}

impl TraceContext {
    /// True when the request asks the server to record spans for it.
    pub fn is_sampled(&self) -> bool {
        self.trace_id != 0
    }
}

/// A decoded frame: `request id` plus message.
#[derive(Debug, Clone, PartialEq)]
pub struct WireFrame {
    /// Sender-assigned id; replies echo it.
    pub request_id: u64,
    /// The message.
    pub msg: WireMsg,
}

/// Every message the client and server exchange.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    /// Client → server: open a session.
    Hello {
        /// Fingerprint of the compiled analysis (program + partitioning).
        fingerprint: u64,
        /// Partitioning choice index to execute under.
        choice: u32,
        /// `main`'s parameter values.
        params: Vec<i64>,
        /// Step budget (0 = executor default).
        max_steps: u64,
        /// Client's send timestamp, microseconds since the *client's*
        /// observability epoch — one half of the NTP-style clock-offset
        /// estimate.
        client_time_us: u64,
    },
    /// Server → client: session accepted.
    HelloAck {
        /// Server's reply timestamp on *its* epoch; with the client's
        /// send/receive times this bounds the inter-epoch clock offset.
        server_time_us: u64,
    },
    /// A turn-taking control transfer (either direction).
    Control(Box<ControlMsg>),
    /// Active → passive: send me your copy of this item.
    FetchItem {
        /// The tracked item.
        item: u32,
    },
    /// Passive → active: the requested item's contents.
    ItemData(ItemPayload),
    /// Active → passive: install this copy of an item.
    PushItem {
        /// The tracked item.
        item: u32,
        /// Its contents.
        payload: ItemPayload,
    },
    /// Passive → active: push applied.
    PushAck,
    /// Either direction: the sender's run failed (body is the
    /// [`offload_runtime::RuntimeError`] display text).
    Error(String),
    /// Client → server: orderly session end.
    Bye,
    /// Client → server: analyze this mini-C program (or find it in the
    /// plan cache) and report its fingerprint for later
    /// [`WireMsg::DispatchBatch`] calls.
    AnalyzeProgram {
        /// Mini-C source text.
        source: String,
        /// Trace context for the server-side analysis span.
        trace: TraceContext,
    },
    /// Server → client: the program's analysis is resident.
    AnalyzeAck {
        /// Fingerprint of the (possibly cached) compiled analysis.
        fingerprint: u64,
        /// Number of partitioning choices in the solution.
        choices: u32,
        /// Number of `main` parameters (the dispatch arity).
        params: u32,
        /// Whether the plan cache already held the analysis.
        cache_hit: bool,
    },
    /// Client → server: dispatch many parameter points in one round
    /// trip against a cached analysis.
    DispatchBatch {
        /// Fingerprint identifying the analysis (from
        /// [`WireMsg::AnalyzeAck`], or computed locally with
        /// [`fingerprint`] for a shared build).
        fingerprint: u64,
        /// The parameter points, one `main` parameter vector each.
        points: Vec<Vec<i64>>,
        /// Trace context for the server-side dispatch spans.
        trace: TraceContext,
    },
    /// Server → client: one partitioning choice per batched point, in
    /// order.
    DispatchChoices {
        /// Selected choice indices.
        choices: Vec<u32>,
    },
    /// Client → server: scrape the server's metrics registry.
    StatsRequest {
        /// Client's send timestamp on its own epoch (echoed back so the
        /// scraper can estimate the clock offset from one round trip).
        client_time_us: u64,
    },
    /// Server → client: the scrape result.
    StatsReport {
        /// Full registry capture with monotonic sequence number.
        snapshot: MetricsSnapshot,
        /// The slow-request ring, slowest first.
        slow: Vec<SlowRequest>,
        /// When the server received the request (server epoch).
        recv_time_us: u64,
        /// When the server sent this reply (server epoch).
        send_time_us: u64,
    },
}

impl WireMsg {
    fn tag(&self) -> u8 {
        match self {
            WireMsg::Hello { .. } => 1,
            WireMsg::HelloAck { .. } => 2,
            WireMsg::Control(_) => 3,
            WireMsg::FetchItem { .. } => 4,
            WireMsg::ItemData(_) => 5,
            WireMsg::PushItem { .. } => 6,
            WireMsg::PushAck => 7,
            WireMsg::Error(_) => 8,
            WireMsg::Bye => 9,
            WireMsg::AnalyzeProgram { .. } => 10,
            WireMsg::AnalyzeAck { .. } => 11,
            WireMsg::DispatchBatch { .. } => 12,
            WireMsg::DispatchChoices { .. } => 13,
            WireMsg::StatsRequest { .. } => 14,
            WireMsg::StatsReport { .. } => 15,
        }
    }

    /// Short name for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            WireMsg::Hello { .. } => "Hello",
            WireMsg::HelloAck { .. } => "HelloAck",
            WireMsg::Control(_) => "Control",
            WireMsg::FetchItem { .. } => "FetchItem",
            WireMsg::ItemData(_) => "ItemData",
            WireMsg::PushItem { .. } => "PushItem",
            WireMsg::PushAck => "PushAck",
            WireMsg::Error(_) => "Error",
            WireMsg::Bye => "Bye",
            WireMsg::AnalyzeProgram { .. } => "AnalyzeProgram",
            WireMsg::AnalyzeAck { .. } => "AnalyzeAck",
            WireMsg::DispatchBatch { .. } => "DispatchBatch",
            WireMsg::DispatchChoices { .. } => "DispatchChoices",
            WireMsg::StatsRequest { .. } => "StatsRequest",
            WireMsg::StatsReport { .. } => "StatsReport",
        }
    }
}

// ---- primitive encoders ----

/// Appends a LEB128 varint.
pub fn put_uv(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Appends a zigzag-encoded signed varint.
pub fn put_iv(buf: &mut Vec<u8>, v: i64) {
    put_uv(buf, ((v << 1) ^ (v >> 63)) as u64);
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_uv(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn put_rat(buf: &mut Vec<u8>, r: &Rational) {
    put_str(buf, &r.to_string());
}

fn put_objkey(buf: &mut Vec<u8>, k: ObjKey) {
    match k {
        ObjKey::Global(g) => {
            buf.push(0);
            put_uv(buf, g as u64);
        }
        ObjKey::Local(f, l) => {
            buf.push(1);
            put_uv(buf, f.0 as u64);
            put_uv(buf, l.0 as u64);
        }
        ObjKey::Dyn(d) => {
            buf.push(2);
            put_uv(buf, d);
        }
    }
}

fn put_value(buf: &mut Vec<u8>, v: Value) {
    match v {
        Value::Int(i) => {
            buf.push(0);
            put_iv(buf, i);
        }
        Value::Addr(k, off) => {
            buf.push(1);
            put_objkey(buf, k);
            put_uv(buf, off as u64);
        }
        Value::Func(f) => {
            buf.push(2);
            put_uv(buf, f.0 as u64);
        }
        Value::Uninit => buf.push(3),
    }
}

fn put_opt_local(buf: &mut Vec<u8>, l: Option<LocalId>) {
    match l {
        None => buf.push(0),
        Some(l) => {
            buf.push(1);
            put_uv(buf, l.0 as u64);
        }
    }
}

fn put_frame(buf: &mut Vec<u8>, f: &Frame) {
    put_uv(buf, f.func.0 as u64);
    put_uv(buf, f.block.0 as u64);
    put_uv(buf, f.inst as u64);
    put_uv(buf, f.segment.0 as u64);
    put_opt_local(buf, f.ret_dst);
}

fn put_payload(buf: &mut Vec<u8>, p: &ItemPayload) {
    match p {
        ItemPayload::Reg { func, local, value } => {
            buf.push(0);
            put_uv(buf, func.0 as u64);
            put_uv(buf, local.0 as u64);
            put_value(buf, *value);
        }
        ItemPayload::Objects(objs) => {
            buf.push(1);
            put_uv(buf, objs.len() as u64);
            for o in objs {
                put_objkey(buf, o.key);
                match o.site {
                    None => buf.push(0),
                    Some(s) => {
                        buf.push(1);
                        put_uv(buf, s.0 as u64);
                    }
                }
                put_uv(buf, o.data.len() as u64);
                for v in &o.data {
                    put_value(buf, *v);
                }
            }
        }
    }
}

fn put_trace(buf: &mut Vec<u8>, t: &TraceContext) {
    put_uv(buf, t.trace_id);
    put_uv(buf, t.parent_span_id);
}

fn put_metrics_snapshot(buf: &mut Vec<u8>, s: &MetricsSnapshot) {
    put_uv(buf, s.seq);
    put_uv(buf, s.uptime_us);
    put_uv(buf, s.entries.len() as u64);
    for (name, v) in &s.entries {
        put_str(buf, name);
        match v {
            MetricValue::Counter(c) => {
                buf.push(0);
                put_uv(buf, *c);
            }
            MetricValue::Gauge(g) => {
                buf.push(1);
                put_iv(buf, *g);
            }
            MetricValue::Histogram(h) => {
                buf.push(2);
                put_uv(buf, h.count);
                put_uv(buf, h.sum);
                put_uv(buf, h.max);
                put_uv(buf, h.p50);
                put_uv(buf, h.p90);
                put_uv(buf, h.p99);
                put_uv(buf, h.p999);
            }
        }
    }
}

fn put_slow(buf: &mut Vec<u8>, s: &SlowRequest) {
    put_uv(buf, s.trace_id);
    put_uv(buf, s.batch_points as u64);
    put_uv(buf, s.select_us);
    put_uv(buf, s.reply_us);
    put_uv(buf, s.total_us);
    buf.push(u8::from(s.cache_hit));
}

fn put_stats(buf: &mut Vec<u8>, s: &RunStats) {
    put_rat(buf, &s.total_time);
    put_rat(buf, &s.client_compute);
    put_rat(buf, &s.server_compute);
    put_rat(buf, &s.comm_time);
    put_rat(buf, &s.energy);
    put_uv(buf, s.messages);
    put_uv(buf, s.slots_transferred);
    put_uv(buf, s.eager_transfers);
    put_uv(buf, s.lazy_pulls);
    put_uv(buf, s.instructions);
    put_uv(buf, s.registrations);
}

fn put_ledger(buf: &mut Vec<u8>, l: &Ledger) {
    put_rat(buf, &l.clock);
    put_rat(buf, &l.client_busy);
    put_rat(buf, &l.server_busy);
    put_rat(buf, &l.comm);
    put_stats(buf, &l.stats);
}

fn put_action(buf: &mut Vec<u8>, a: &PendingAction) {
    match a {
        PendingAction::Start => buf.push(0),
        PendingAction::Resume => buf.push(1),
        PendingAction::PushFrame {
            func,
            block,
            segment,
            writes,
        } => {
            buf.push(2);
            put_uv(buf, func.0 as u64);
            put_uv(buf, block.0 as u64);
            put_uv(buf, segment.0 as u64);
            put_uv(buf, writes.len() as u64);
            for (l, v) in writes {
                put_uv(buf, l.0 as u64);
                put_value(buf, *v);
            }
        }
        PendingAction::WriteRet { dst, value } => {
            buf.push(3);
            put_opt_local(buf, *dst);
            match value {
                None => buf.push(0),
                Some(v) => {
                    buf.push(1);
                    put_value(buf, *v);
                }
            }
        }
        PendingAction::Finish => buf.push(4),
    }
}

fn put_control(buf: &mut Vec<u8>, m: &ControlMsg) {
    buf.push(match m.to {
        Host::Client => 0,
        Host::Server => 1,
    });
    put_action(buf, &m.action);
    put_uv(buf, m.stack.len() as u64);
    for f in &m.stack {
        put_frame(buf, f);
    }
    put_uv(buf, m.valid.len() as u64);
    for (item, v) in &m.valid {
        put_uv(buf, item.index() as u64);
        buf.push(v[0] as u8 | ((v[1] as u8) << 1));
    }
    put_uv(buf, m.dyn_table.len() as u64);
    for (key, site, slots) in &m.dyn_table {
        put_objkey(buf, *key);
        put_uv(buf, site.0 as u64);
        put_uv(buf, *slots as u64);
    }
    put_uv(buf, m.dyn_count);
    put_uv(buf, m.steps);
    put_ledger(buf, &m.ledger);
}

// ---- primitive decoders ----

/// A bounds-checked reader over a received payload.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Wraps a payload.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// True if every byte was consumed.
    pub fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn byte(&mut self) -> Result<u8, NetError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| NetError::protocol("truncated frame"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a LEB128 varint.
    pub fn uv(&mut self) -> Result<u64, NetError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift >= 64 {
                return Err(NetError::protocol("varint overflow"));
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Reads a zigzag-encoded signed varint.
    pub fn iv(&mut self) -> Result<i64, NetError> {
        let z = self.uv()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    fn str(&mut self) -> Result<String, NetError> {
        let n = self.uv()? as usize;
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| NetError::protocol("truncated string"))?;
        let s = std::str::from_utf8(&self.buf[self.pos..end])
            .map_err(|_| NetError::protocol("non-UTF-8 string"))?
            .to_string();
        self.pos = end;
        Ok(s)
    }

    fn rat(&mut self) -> Result<Rational, NetError> {
        let s = self.str()?;
        s.parse()
            .map_err(|_| NetError::protocol("malformed rational"))
    }

    fn u32v(&mut self) -> Result<u32, NetError> {
        u32::try_from(self.uv()?).map_err(|_| NetError::protocol("id out of range"))
    }

    fn objkey(&mut self) -> Result<ObjKey, NetError> {
        match self.byte()? {
            0 => Ok(ObjKey::Global(self.u32v()?)),
            1 => Ok(ObjKey::Local(FuncId(self.u32v()?), LocalId(self.u32v()?))),
            2 => Ok(ObjKey::Dyn(self.uv()?)),
            t => Err(NetError::protocol(format!("bad object-key tag {t}"))),
        }
    }

    fn value(&mut self) -> Result<Value, NetError> {
        match self.byte()? {
            0 => Ok(Value::Int(self.iv()?)),
            1 => {
                let k = self.objkey()?;
                Ok(Value::Addr(k, self.u32v()?))
            }
            2 => Ok(Value::Func(FuncId(self.u32v()?))),
            3 => Ok(Value::Uninit),
            t => Err(NetError::protocol(format!("bad value tag {t}"))),
        }
    }

    fn opt_local(&mut self) -> Result<Option<LocalId>, NetError> {
        match self.byte()? {
            0 => Ok(None),
            1 => Ok(Some(LocalId(self.u32v()?))),
            t => Err(NetError::protocol(format!("bad option tag {t}"))),
        }
    }

    fn frame(&mut self) -> Result<Frame, NetError> {
        Ok(Frame {
            func: FuncId(self.u32v()?),
            block: BlockId(self.u32v()?),
            inst: self.uv()? as usize,
            segment: SegmentId(self.u32v()?),
            ret_dst: self.opt_local()?,
        })
    }

    fn payload(&mut self) -> Result<ItemPayload, NetError> {
        match self.byte()? {
            0 => Ok(ItemPayload::Reg {
                func: FuncId(self.u32v()?),
                local: LocalId(self.u32v()?),
                value: self.value()?,
            }),
            1 => {
                let n = self.uv()? as usize;
                let mut objs = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let key = self.objkey()?;
                    let site = match self.byte()? {
                        0 => None,
                        1 => Some(AllocSiteId(self.u32v()?)),
                        t => return Err(NetError::protocol(format!("bad site tag {t}"))),
                    };
                    let len = self.uv()? as usize;
                    let mut data = Vec::with_capacity(len.min(65536));
                    for _ in 0..len {
                        data.push(self.value()?);
                    }
                    objs.push(ObjEntry { key, site, data });
                }
                Ok(ItemPayload::Objects(objs))
            }
            t => Err(NetError::protocol(format!("bad payload tag {t}"))),
        }
    }

    fn trace(&mut self) -> Result<TraceContext, NetError> {
        Ok(TraceContext {
            trace_id: self.uv()?,
            parent_span_id: self.uv()?,
        })
    }

    fn metrics_snapshot(&mut self) -> Result<MetricsSnapshot, NetError> {
        let seq = self.uv()?;
        let uptime_us = self.uv()?;
        let n = self.uv()? as usize;
        let mut entries = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let name = self.str()?;
            let v = match self.byte()? {
                0 => MetricValue::Counter(self.uv()?),
                1 => MetricValue::Gauge(self.iv()?),
                2 => MetricValue::Histogram(HistogramSummary {
                    count: self.uv()?,
                    sum: self.uv()?,
                    max: self.uv()?,
                    p50: self.uv()?,
                    p90: self.uv()?,
                    p99: self.uv()?,
                    p999: self.uv()?,
                }),
                t => return Err(NetError::protocol(format!("bad metric tag {t}"))),
            };
            entries.push((name, v));
        }
        Ok(MetricsSnapshot {
            seq,
            uptime_us,
            entries,
        })
    }

    fn slow(&mut self) -> Result<SlowRequest, NetError> {
        Ok(SlowRequest {
            trace_id: self.uv()?,
            batch_points: self.u32v()?,
            select_us: self.uv()?,
            reply_us: self.uv()?,
            total_us: self.uv()?,
            cache_hit: match self.byte()? {
                0 => false,
                1 => true,
                t => return Err(NetError::protocol(format!("bad bool tag {t}"))),
            },
        })
    }

    fn stats(&mut self) -> Result<RunStats, NetError> {
        Ok(RunStats {
            total_time: self.rat()?,
            client_compute: self.rat()?,
            server_compute: self.rat()?,
            comm_time: self.rat()?,
            energy: self.rat()?,
            messages: self.uv()?,
            slots_transferred: self.uv()?,
            eager_transfers: self.uv()?,
            lazy_pulls: self.uv()?,
            instructions: self.uv()?,
            registrations: self.uv()?,
        })
    }

    fn ledger(&mut self) -> Result<Ledger, NetError> {
        let clock = self.rat()?;
        let client_busy = self.rat()?;
        let server_busy = self.rat()?;
        let comm = self.rat()?;
        let mut stats = self.stats()?;
        // Time/energy fields are recomputed by `Ledger::finish`; keep the
        // counters and zero the derived values for a canonical ledger.
        stats.total_time = Rational::zero();
        stats.client_compute = Rational::zero();
        stats.server_compute = Rational::zero();
        stats.comm_time = Rational::zero();
        stats.energy = Rational::zero();
        Ok(Ledger {
            clock,
            client_busy,
            server_busy,
            comm,
            stats,
        })
    }

    fn action(&mut self) -> Result<PendingAction, NetError> {
        match self.byte()? {
            0 => Ok(PendingAction::Start),
            1 => Ok(PendingAction::Resume),
            2 => {
                let func = FuncId(self.u32v()?);
                let block = BlockId(self.u32v()?);
                let segment = SegmentId(self.u32v()?);
                let n = self.uv()? as usize;
                let mut writes = Vec::with_capacity(n.min(256));
                for _ in 0..n {
                    writes.push((LocalId(self.u32v()?), self.value()?));
                }
                Ok(PendingAction::PushFrame {
                    func,
                    block,
                    segment,
                    writes,
                })
            }
            3 => {
                let dst = self.opt_local()?;
                let value = match self.byte()? {
                    0 => None,
                    1 => Some(self.value()?),
                    t => return Err(NetError::protocol(format!("bad option tag {t}"))),
                };
                Ok(PendingAction::WriteRet { dst, value })
            }
            4 => Ok(PendingAction::Finish),
            t => Err(NetError::protocol(format!("bad action tag {t}"))),
        }
    }

    fn control(&mut self) -> Result<ControlMsg, NetError> {
        let to = match self.byte()? {
            0 => Host::Client,
            1 => Host::Server,
            t => return Err(NetError::protocol(format!("bad host tag {t}"))),
        };
        let action = self.action()?;
        let n = self.uv()? as usize;
        let mut stack = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            stack.push(self.frame()?);
        }
        let n = self.uv()? as usize;
        let mut valid = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let item = AbsLocId(self.u32v()?);
            let bits = self.byte()?;
            valid.push((item, [bits & 1 != 0, bits & 2 != 0]));
        }
        let n = self.uv()? as usize;
        let mut dyn_table = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            dyn_table.push((self.objkey()?, AllocSiteId(self.u32v()?), self.u32v()?));
        }
        let dyn_count = self.uv()?;
        let steps = self.uv()?;
        let ledger = self.ledger()?;
        Ok(ControlMsg {
            to,
            action,
            stack,
            valid,
            dyn_table,
            dyn_count,
            steps,
            ledger,
        })
    }
}

// ---- frame encode/decode ----

/// Serializes a frame (version byte, type byte, request id, body) into a
/// length-prefixed byte vector ready to write to a stream.
pub fn encode_frame(frame: &WireFrame) -> Vec<u8> {
    let mut body = Vec::with_capacity(64);
    body.push(PROTOCOL_VERSION);
    body.push(frame.msg.tag());
    put_uv(&mut body, frame.request_id);
    match &frame.msg {
        WireMsg::Hello {
            fingerprint,
            choice,
            params,
            max_steps,
            client_time_us,
        } => {
            put_uv(&mut body, *fingerprint);
            put_uv(&mut body, *choice as u64);
            put_uv(&mut body, params.len() as u64);
            for p in params {
                put_iv(&mut body, *p);
            }
            put_uv(&mut body, *max_steps);
            put_uv(&mut body, *client_time_us);
        }
        WireMsg::HelloAck { server_time_us } => put_uv(&mut body, *server_time_us),
        WireMsg::PushAck | WireMsg::Bye => {}
        WireMsg::Control(m) => put_control(&mut body, m),
        WireMsg::FetchItem { item } => put_uv(&mut body, *item as u64),
        WireMsg::ItemData(p) => put_payload(&mut body, p),
        WireMsg::PushItem { item, payload } => {
            put_uv(&mut body, *item as u64);
            put_payload(&mut body, payload);
        }
        WireMsg::Error(s) => put_str(&mut body, s),
        WireMsg::AnalyzeProgram { source, trace } => {
            put_str(&mut body, source);
            put_trace(&mut body, trace);
        }
        WireMsg::AnalyzeAck {
            fingerprint,
            choices,
            params,
            cache_hit,
        } => {
            put_uv(&mut body, *fingerprint);
            put_uv(&mut body, *choices as u64);
            put_uv(&mut body, *params as u64);
            body.push(u8::from(*cache_hit));
        }
        WireMsg::DispatchBatch {
            fingerprint,
            points,
            trace,
        } => {
            put_uv(&mut body, *fingerprint);
            put_uv(&mut body, points.len() as u64);
            for p in points {
                put_uv(&mut body, p.len() as u64);
                for v in p {
                    put_iv(&mut body, *v);
                }
            }
            put_trace(&mut body, trace);
        }
        WireMsg::DispatchChoices { choices } => {
            put_uv(&mut body, choices.len() as u64);
            for c in choices {
                put_uv(&mut body, *c as u64);
            }
        }
        WireMsg::StatsRequest { client_time_us } => {
            put_uv(&mut body, *client_time_us);
        }
        WireMsg::StatsReport {
            snapshot,
            slow,
            recv_time_us,
            send_time_us,
        } => {
            put_metrics_snapshot(&mut body, snapshot);
            put_uv(&mut body, slow.len() as u64);
            for s in slow {
                put_slow(&mut body, s);
            }
            put_uv(&mut body, *recv_time_us);
            put_uv(&mut body, *send_time_us);
        }
    }
    let mut out = Vec::with_capacity(body.len() + 4);
    put_uv(&mut out, body.len() as u64);
    out.extend_from_slice(&body);
    out
}

/// Decodes one frame payload (everything after the length prefix).
pub fn decode_frame(payload: &[u8]) -> Result<WireFrame, NetError> {
    let mut c = Cursor::new(payload);
    let version = c.byte()?;
    if version != PROTOCOL_VERSION {
        return Err(NetError::VersionMismatch {
            ours: PROTOCOL_VERSION,
            theirs: version,
        });
    }
    let tag = c.byte()?;
    let request_id = c.uv()?;
    let msg = match tag {
        1 => {
            let fingerprint = c.uv()?;
            let choice = c.u32v()?;
            let n = c.uv()? as usize;
            let mut params = Vec::with_capacity(n.min(256));
            for _ in 0..n {
                params.push(c.iv()?);
            }
            let max_steps = c.uv()?;
            let client_time_us = c.uv()?;
            WireMsg::Hello {
                fingerprint,
                choice,
                params,
                max_steps,
                client_time_us,
            }
        }
        2 => WireMsg::HelloAck {
            server_time_us: c.uv()?,
        },
        3 => WireMsg::Control(Box::new(c.control()?)),
        4 => WireMsg::FetchItem { item: c.u32v()? },
        5 => WireMsg::ItemData(c.payload()?),
        6 => {
            let item = c.u32v()?;
            let payload = c.payload()?;
            WireMsg::PushItem { item, payload }
        }
        7 => WireMsg::PushAck,
        8 => WireMsg::Error(c.str()?),
        9 => WireMsg::Bye,
        10 => WireMsg::AnalyzeProgram {
            source: c.str()?,
            trace: c.trace()?,
        },
        11 => {
            let fingerprint = c.uv()?;
            let choices = c.u32v()?;
            let params = c.u32v()?;
            let cache_hit = match c.byte()? {
                0 => false,
                1 => true,
                t => return Err(NetError::protocol(format!("bad bool tag {t}"))),
            };
            WireMsg::AnalyzeAck {
                fingerprint,
                choices,
                params,
                cache_hit,
            }
        }
        12 => {
            let fingerprint = c.uv()?;
            let n = c.uv()? as usize;
            let mut points = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                let k = c.uv()? as usize;
                let mut p = Vec::with_capacity(k.min(256));
                for _ in 0..k {
                    p.push(c.iv()?);
                }
                points.push(p);
            }
            let trace = c.trace()?;
            WireMsg::DispatchBatch {
                fingerprint,
                points,
                trace,
            }
        }
        13 => {
            let n = c.uv()? as usize;
            let mut choices = Vec::with_capacity(n.min(65536));
            for _ in 0..n {
                choices.push(c.u32v()?);
            }
            WireMsg::DispatchChoices { choices }
        }
        14 => WireMsg::StatsRequest {
            client_time_us: c.uv()?,
        },
        15 => {
            let snapshot = c.metrics_snapshot()?;
            let n = c.uv()? as usize;
            let mut slow = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                slow.push(c.slow()?);
            }
            let recv_time_us = c.uv()?;
            let send_time_us = c.uv()?;
            WireMsg::StatsReport {
                snapshot,
                slow,
                recv_time_us,
                send_time_us,
            }
        }
        t => return Err(NetError::protocol(format!("unknown frame type {t}"))),
    };
    if !c.at_end() {
        return Err(NetError::protocol("trailing bytes in frame"));
    }
    Ok(WireFrame { request_id, msg })
}

/// A stable fingerprint of a compiled analysis (FNV-1a over the program
/// and partitioning structure), so client and server verify they loaded
/// the same build before exchanging state.
pub fn fingerprint(analysis: &Analysis) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(&(analysis.module.functions.len() as u64).to_le_bytes());
    for f in &analysis.module.functions {
        eat(f.name.as_bytes());
        eat(&(f.blocks.len() as u64).to_le_bytes());
        eat(&(f.locals.len() as u64).to_le_bytes());
        // Hash instruction *content*, not just counts: two programs that
        // differ in a single constant must not collide. The IR's `Debug`
        // rendering is deterministic and identical on both ends when the
        // loaded programs are.
        for b in &f.blocks {
            for inst in &b.insts {
                eat(format!("{inst:?}").as_bytes());
            }
            eat(format!("{:?}", b.term).as_bytes());
        }
    }
    eat(&(analysis.module.globals.len() as u64).to_le_bytes());
    eat(&(analysis.tcfg.segments().len() as u64).to_le_bytes());
    eat(&(analysis.tcfg.edges().len() as u64).to_le_bytes());
    eat(&(analysis.items.items.len() as u64).to_le_bytes());
    eat(&(analysis.partition.choices.len() as u64).to_le_bytes());
    for choice in &analysis.partition.choices {
        for &s in &choice.server_tasks {
            eat(&[s as u8]);
        }
        eat(&(choice.transfers.iter().map(Vec::len).sum::<usize>() as u64).to_le_bytes());
    }
    h
}
