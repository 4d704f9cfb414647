//! Property tests for the wire protocol: every message the engine can
//! send must decode back to exactly what was encoded, and corrupted or
//! truncated bytes must fail cleanly instead of panicking.
//!
//! Randomized with a local xorshift generator instead of `proptest` (the
//! offline build environment cannot fetch crates), so every run draws the
//! same deterministic case set.

use offload_ir::{AllocSiteId, BlockId, FuncId, LocalId};
use offload_net::protocol::{decode_frame, encode_frame, put_iv, put_uv, Cursor};
use offload_net::{NetError, SlowRequest, TraceContext, WireFrame, WireMsg};
use offload_obs::{HistogramSummary, MetricValue, MetricsSnapshot};
use offload_poly::Rational;
use offload_pta::AbsLocId;
use offload_runtime::{
    ControlMsg, Frame, Host, ItemPayload, Ledger, ObjEntry, ObjKey, PendingAction, RunStats, Value,
};
use offload_tcfg::SegmentId;

/// Deterministic xorshift64* generator for the property loops.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn u32(&mut self, bound: u32) -> u32 {
        (self.next() % bound as u64) as u32
    }

    fn usize(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    fn bool(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

fn arb_objkey(rng: &mut Rng) -> ObjKey {
    match rng.u32(3) {
        0 => ObjKey::Global(rng.u32(1000)),
        1 => ObjKey::Local(FuncId(rng.u32(100)), LocalId(rng.u32(100))),
        _ => ObjKey::Dyn(rng.next()),
    }
}

fn arb_value(rng: &mut Rng) -> Value {
    match rng.u32(4) {
        0 => Value::Int(rng.next() as i64),
        1 => Value::Addr(arb_objkey(rng), rng.u32(512)),
        2 => Value::Func(FuncId(rng.u32(100))),
        _ => Value::Uninit,
    }
}

fn arb_rat(rng: &mut Rng) -> Rational {
    Rational::new(rng.next() as i64 % 1_000_000, 1 + rng.u32(997) as i64)
}

fn arb_payload(rng: &mut Rng) -> ItemPayload {
    if rng.bool() {
        ItemPayload::Reg {
            func: FuncId(rng.u32(100)),
            local: LocalId(rng.u32(100)),
            value: arb_value(rng),
        }
    } else {
        let objs = (0..rng.usize(5))
            .map(|_| ObjEntry {
                key: arb_objkey(rng),
                site: rng.bool().then(|| AllocSiteId(rng.u32(50))),
                data: (0..rng.usize(8)).map(|_| arb_value(rng)).collect(),
            })
            .collect();
        ItemPayload::Objects(objs)
    }
}

fn arb_action(rng: &mut Rng) -> PendingAction {
    match rng.u32(5) {
        0 => PendingAction::Start,
        1 => PendingAction::Resume,
        2 => PendingAction::PushFrame {
            func: FuncId(rng.u32(100)),
            block: BlockId(rng.u32(100)),
            segment: SegmentId(rng.u32(100)),
            writes: (0..rng.usize(6))
                .map(|_| (LocalId(rng.u32(100)), arb_value(rng)))
                .collect(),
        },
        3 => PendingAction::WriteRet {
            dst: rng.bool().then(|| LocalId(rng.u32(100))),
            value: rng.bool().then(|| arb_value(rng)),
        },
        _ => PendingAction::Finish,
    }
}

/// A mid-run ledger in its canonical form: the derived `RunStats` time
/// and energy fields are always zero on the wire (only `Ledger::finish`
/// fills them, after the run), so only counters and accumulators vary.
fn arb_ledger(rng: &mut Rng) -> Ledger {
    Ledger {
        clock: arb_rat(rng),
        client_busy: arb_rat(rng),
        server_busy: arb_rat(rng),
        comm: arb_rat(rng),
        stats: RunStats {
            messages: rng.next() % 10_000,
            slots_transferred: rng.next() % 10_000,
            eager_transfers: rng.next() % 1_000,
            lazy_pulls: rng.next() % 1_000,
            instructions: rng.next() % 1_000_000,
            registrations: rng.next() % 1_000,
            ..RunStats::default()
        },
    }
}

fn arb_control(rng: &mut Rng) -> ControlMsg {
    ControlMsg {
        to: if rng.bool() {
            Host::Client
        } else {
            Host::Server
        },
        action: arb_action(rng),
        stack: (0..rng.usize(6))
            .map(|_| Frame {
                func: FuncId(rng.u32(100)),
                block: BlockId(rng.u32(100)),
                inst: rng.usize(64),
                segment: SegmentId(rng.u32(100)),
                ret_dst: rng.bool().then(|| LocalId(rng.u32(100))),
            })
            .collect(),
        valid: (0..rng.usize(10))
            .map(|_| (AbsLocId(rng.u32(200)), [rng.bool(), rng.bool()]))
            .collect(),
        dyn_table: (0..rng.usize(8))
            .map(|_| (arb_objkey(rng), AllocSiteId(rng.u32(50)), rng.u32(256)))
            .collect(),
        dyn_count: rng.next() % 10_000,
        steps: rng.next() % 1_000_000,
        ledger: arb_ledger(rng),
    }
}

fn arb_trace(rng: &mut Rng) -> TraceContext {
    if rng.bool() {
        TraceContext::default()
    } else {
        TraceContext {
            trace_id: rng.next() | 1,
            parent_span_id: rng.next(),
        }
    }
}

fn arb_metric_value(rng: &mut Rng) -> MetricValue {
    match rng.u32(3) {
        0 => MetricValue::Counter(rng.next() % 1_000_000),
        1 => MetricValue::Gauge(rng.next() as i64 % 1_000_000),
        _ => MetricValue::Histogram(HistogramSummary {
            count: rng.next() % 1_000_000,
            sum: rng.next() % 1_000_000_000,
            max: rng.next() % 10_000_000,
            p50: rng.next() % 10_000_000,
            p90: rng.next() % 10_000_000,
            p99: rng.next() % 10_000_000,
            p999: rng.next() % 10_000_000,
        }),
    }
}

fn arb_snapshot(rng: &mut Rng) -> MetricsSnapshot {
    MetricsSnapshot {
        seq: rng.next() % 1_000_000,
        uptime_us: rng.next() % 100_000_000_000,
        entries: (0..rng.usize(8))
            .map(|i| {
                (
                    format!("net.metric.{i}_{}", rng.u32(100)),
                    arb_metric_value(rng),
                )
            })
            .collect(),
    }
}

fn arb_slow(rng: &mut Rng) -> SlowRequest {
    SlowRequest {
        trace_id: rng.next(),
        batch_points: rng.u32(100_000),
        select_us: rng.next() % 10_000_000,
        reply_us: rng.next() % 10_000_000,
        total_us: rng.next() % 100_000_000,
        cache_hit: rng.bool(),
    }
}

fn arb_msg(rng: &mut Rng) -> WireMsg {
    match rng.u32(15) {
        0 => WireMsg::Hello {
            fingerprint: rng.next(),
            choice: rng.u32(16),
            params: (0..rng.usize(4)).map(|_| rng.next() as i64).collect(),
            max_steps: rng.next() % 1_000_000,
            client_time_us: rng.next() % 100_000_000_000,
        },
        1 => WireMsg::HelloAck {
            server_time_us: rng.next() % 100_000_000_000,
        },
        2 => WireMsg::Control(Box::new(arb_control(rng))),
        3 => WireMsg::FetchItem { item: rng.u32(200) },
        4 => WireMsg::ItemData(arb_payload(rng)),
        5 => WireMsg::PushItem {
            item: rng.u32(200),
            payload: arb_payload(rng),
        },
        6 => WireMsg::PushAck,
        7 => WireMsg::Error(format!("failure #{}", rng.u32(1000))),
        8 => WireMsg::AnalyzeProgram {
            source: format!("void main(int n) {{ output(n + {}); }}", rng.u32(1000)),
            trace: arb_trace(rng),
        },
        9 => WireMsg::AnalyzeAck {
            fingerprint: rng.next(),
            choices: rng.u32(64),
            params: rng.u32(8),
            cache_hit: rng.bool(),
        },
        10 => WireMsg::DispatchBatch {
            fingerprint: rng.next(),
            points: (0..rng.usize(6))
                .map(|_| (0..rng.usize(4)).map(|_| rng.next() as i64).collect())
                .collect(),
            trace: arb_trace(rng),
        },
        11 => WireMsg::DispatchChoices {
            choices: (0..rng.usize(10)).map(|_| rng.u32(64)).collect(),
        },
        12 => WireMsg::StatsRequest {
            client_time_us: rng.next() % 100_000_000_000,
        },
        13 => WireMsg::StatsReport {
            snapshot: arb_snapshot(rng),
            slow: (0..rng.usize(6)).map(|_| arb_slow(rng)).collect(),
            recv_time_us: rng.next() % 100_000_000_000,
            send_time_us: rng.next() % 100_000_000_000,
        },
        _ => WireMsg::Bye,
    }
}

fn strip_len_prefix(encoded: &[u8]) -> &[u8] {
    // Skip the varint length prefix written by `encode_frame`.
    let mut i = 0;
    while encoded[i] & 0x80 != 0 {
        i += 1;
    }
    &encoded[i + 1..]
}

#[test]
fn varint_roundtrip() {
    let mut rng = Rng::new(0xB1A5);
    let edge = [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX];
    for i in 0..2_000 {
        let v = if i < edge.len() {
            edge[i]
        } else {
            rng.next() >> rng.u32(64)
        };
        let mut buf = Vec::new();
        put_uv(&mut buf, v);
        let mut c = Cursor::new(&buf);
        assert_eq!(c.uv().unwrap(), v);
        assert!(c.at_end());
    }
}

#[test]
fn zigzag_roundtrip() {
    let mut rng = Rng::new(0x5160);
    let edge = [0i64, 1, -1, i64::MAX, i64::MIN, 63, -64];
    for i in 0..2_000 {
        let v = if i < edge.len() {
            edge[i]
        } else {
            rng.next() as i64
        };
        let mut buf = Vec::new();
        put_iv(&mut buf, v);
        let mut c = Cursor::new(&buf);
        assert_eq!(c.iv().unwrap(), v);
        assert!(c.at_end());
    }
}

#[test]
fn frame_roundtrip() {
    let mut rng = Rng::new(0xF4A3E);
    for _ in 0..500 {
        let frame = WireFrame {
            request_id: rng.next() % 1_000_000,
            msg: arb_msg(&mut rng),
        };
        let encoded = encode_frame(&frame);
        let decoded = decode_frame(strip_len_prefix(&encoded)).unwrap();
        assert_eq!(decoded, frame);
    }
}

#[test]
fn truncated_frames_fail_cleanly() {
    let mut rng = Rng::new(0x7C0B);
    for _ in 0..100 {
        let frame = WireFrame {
            request_id: rng.next() % 1_000,
            msg: arb_msg(&mut rng),
        };
        let payload = encode_frame(&frame);
        let payload = strip_len_prefix(&payload);
        for cut in 0..payload.len() {
            // Every strict prefix must produce an error, never a panic and
            // never a successful parse of different content.
            assert!(
                decode_frame(&payload[..cut]).is_err(),
                "prefix of length {cut} decoded successfully"
            );
        }
    }
}

#[test]
fn corrupt_version_byte_is_rejected() {
    let frame = WireFrame {
        request_id: 7,
        msg: WireMsg::HelloAck { server_time_us: 42 },
    };
    let encoded = encode_frame(&frame);
    let mut payload = strip_len_prefix(&encoded).to_vec();
    payload[0] ^= 0xFF; // version byte
    match decode_frame(&payload) {
        Err(NetError::VersionMismatch { .. }) => {}
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
}

#[test]
fn previous_protocol_version_is_rejected() {
    // A v6 peer (pre trace-context / stats frames) must be turned away
    // at the version byte, before any body parsing can misinterpret the
    // reshaped Hello/AnalyzeProgram/DispatchBatch layouts.
    let frame = WireFrame {
        request_id: 3,
        msg: WireMsg::StatsRequest { client_time_us: 1 },
    };
    let encoded = encode_frame(&frame);
    let mut payload = strip_len_prefix(&encoded).to_vec();
    payload[0] = offload_net::PROTOCOL_VERSION - 1;
    match decode_frame(&payload) {
        Err(NetError::VersionMismatch { theirs, .. }) => {
            assert_eq!(theirs, offload_net::PROTOCOL_VERSION - 1);
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
}

/// Writes a length-prefixed UTF-8 string the way the codec does.
fn put_name(buf: &mut Vec<u8>, name: &str) {
    put_uv(buf, name.len() as u64);
    buf.extend_from_slice(name.as_bytes());
}

#[test]
fn v10_hello_ack_gets_version_mismatch() {
    // v10 sent the server's counters as (name, value) pairs and a span
    // summary ahead of the timestamp; read by a later version the first
    // pair's count would pass for `server_time_us`, so the version byte
    // must turn the frame away before any body parsing.
    let mut payload = vec![10, 2, 5]; // version, HelloAck tag, request id
    put_uv(&mut payload, 2);
    for (name, value) in [("flow_solves", 3), ("lp_pivots", 40)] {
        put_name(&mut payload, name);
        put_uv(&mut payload, value);
    }
    put_uv(&mut payload, 1); // one span summary entry
    put_name(&mut payload, "net");
    put_name(&mut payload, "session");
    for v in [2u64, 300, 200] {
        put_uv(&mut payload, v); // count, total_us, max_us
    }
    put_uv(&mut payload, 9); // server_time_us
    match decode_frame(&payload) {
        Err(NetError::VersionMismatch { ours, theirs }) => {
            assert_eq!((ours, theirs), (12, 10));
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let frame = WireFrame {
        request_id: 9,
        msg: WireMsg::Bye,
    };
    let encoded = encode_frame(&frame);
    let mut payload = strip_len_prefix(&encoded).to_vec();
    payload.push(0x00);
    assert!(decode_frame(&payload).is_err());
}
