//! Slow- and hostile-client robustness.
//!
//! A server whose connections share worker threads can be pinned by one
//! client: a worker that waits for a slow frame, or runs a slow
//! analysis, serves no one else meanwhile. Each connection has its own
//! thread here, so a slow or hostile client may cost its own thread and
//! nothing more:
//!
//! * a byte-dribbling client's frame is reassembled correctly while the
//!   server keeps serving a well-behaved client;
//! * a client that stalls mid-frame makes no liveness progress and is
//!   idle-reaped at the request timeout;
//! * an analysis on one connection does not stall dispatch on another;
//! * 200 connections that churn without a `Bye` leave no protocol or
//!   dispatch errors behind;
//! * a session that panics gives its connection slot back;
//! * an item frame naming an untracked item, or a payload foreign to its
//!   item, gets an `Error` reply instead of panicking the session;
//! * a `Control` frame's validity entries that name no tracked item are
//!   skipped instead of indexing the server's tables;
//! * a `Control` frame whose `dyn_table` would take the session past
//!   `MAX_DYN_SLOTS` dynamic slots gets an `Error` reply before
//!   anything is allocated;
//! * a program nested past the parser's cap is refused with an `Error`
//!   reply instead of overflowing a connection thread's stack.
//!
//! The metrics registry is process-global, so every test serializes on
//! one mutex and reasons in counter deltas.

use offload_core::{Analysis, AnalysisOptions};
use offload_ir::{AllocSiteId, BlockId, FuncId, LocalId};
use offload_net::protocol::{decode_frame, encode_frame, TraceContext, WireFrame, WireMsg};
use offload_net::{
    fingerprint, ClientConfig, DispatchClient, NetError, OffloadServer, ServerConfig, ServerHandle,
};
use offload_pta::AbsLocId;
use offload_runtime::{
    ControlMsg, DeviceModel, Host, ItemPayload, ObjKey, PendingAction, Value, MAX_DYN_SLOTS,
};
use offload_tcfg::SegmentId;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

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

/// Counter-delta assertions share the process-global registry; one test
/// at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn start_server(request_timeout: Duration) -> (Arc<Analysis>, ServerHandle) {
    let analysis =
        Arc::new(Analysis::from_source(PROGRAM, AnalysisOptions::default()).expect("analysis"));
    let server = OffloadServer::bind(
        "127.0.0.1:0",
        analysis.clone(),
        DeviceModel::ipaq_testbed(),
        ServerConfig::builder()
            .request_timeout(Some(request_timeout))
            .build(),
    )
    .expect("server");
    (analysis, server)
}

fn client(server: &ServerHandle) -> DispatchClient {
    let mut config = ClientConfig::new(server.addr().to_string());
    config.request_timeout = Duration::from_secs(120);
    DispatchClient::connect(&config).expect("connect")
}

/// A raw, already length-prefixed `DispatchBatch` frame.
fn raw_dispatch_frame(fp: u64, request_id: u64, points: &[Vec<i64>]) -> Vec<u8> {
    encode_frame(&WireFrame {
        request_id,
        msg: WireMsg::DispatchBatch {
            fingerprint: fp,
            points: points.to_vec(),
            trace: TraceContext {
                trace_id: 0,
                parent_span_id: 0,
            },
        },
    })
}

/// Reads one length-prefixed frame off a raw socket.
fn read_raw_frame(stream: &mut TcpStream) -> WireFrame {
    let mut len = 0u64;
    let mut shift = 0u32;
    loop {
        let mut b = [0u8; 1];
        stream.read_exact(&mut b).expect("read frame length");
        len |= u64::from(b[0] & 0x7f) << shift;
        if b[0] & 0x80 == 0 {
            break;
        }
        shift += 7;
    }
    let mut payload = vec![0u8; len as usize];
    stream.read_exact(&mut payload).expect("read frame payload");
    decode_frame(&payload).expect("decode frame")
}

/// Opens a raw session on `server`: connects, sends a valid `Hello` for
/// `choice` and reads its `HelloAck`.
fn raw_session(server: &ServerHandle, fp: u64, choice: usize) -> TcpStream {
    let mut stream = TcpStream::connect(server.addr()).expect("hostile connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let hello = WireMsg::Hello {
        fingerprint: fp,
        choice: choice as u32,
        params: vec![1_000],
        max_steps: 0,
        client_time_us: 0,
    };
    stream.write_all(&raw_frame(1, hello)).expect("send Hello");
    let ack = read_raw_frame(&mut stream);
    assert!(matches!(ack.msg, WireMsg::HelloAck { .. }), "{:?}", ack.msg);
    stream
}

/// A raw, already length-prefixed frame.
fn raw_frame(request_id: u64, msg: WireMsg) -> Vec<u8> {
    encode_frame(&WireFrame { request_id, msg })
}

/// The index of a choice that splits the program across both hosts.
fn partitioned_choice(analysis: &Analysis) -> usize {
    analysis
        .partition
        .choices
        .iter()
        .position(|c| !c.is_all_local())
        .expect("a partitioned choice")
}

/// A client that dribbles its frame one byte at a time must be
/// reassembled correctly, and a well-behaved client's dispatches must
/// complete *while* the dribbler is still mid-frame: the dribbler pins
/// only its own connection's thread.
#[test]
fn byte_dribbling_client_does_not_pin_a_worker() {
    let _guard = serialized();
    let (analysis, mut server) = start_server(Duration::from_secs(60));
    let fp = fingerprint(&analysis);
    let points = vec![vec![5i64], vec![100_000]];

    let frame = raw_dispatch_frame(fp, 1, &points);
    let split = frame.len() / 2;
    let mut dribbler = TcpStream::connect(server.addr()).expect("dribbler connect");
    dribbler.set_nodelay(true).ok();

    // First half, one byte at a time: the server now holds a partial
    // frame for this connection.
    for b in &frame[..split] {
        dribbler.write_all(&[*b]).expect("dribble byte");
        std::thread::sleep(Duration::from_millis(1));
    }

    // Hold the dribbler mid-frame while a finisher thread waits for
    // our signal; meanwhile the well-behaved client must be served.
    let mid_frame = Arc::new(AtomicBool::new(true));
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let finisher = {
        let mid_frame = Arc::clone(&mid_frame);
        let tail = frame[split..].to_vec();
        let mut stream = dribbler.try_clone().expect("clone dribbler");
        std::thread::spawn(move || {
            release_rx.recv().ok();
            mid_frame.store(false, Ordering::SeqCst);
            for b in &tail {
                stream.write_all(&[*b]).expect("dribble tail byte");
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };

    let mut well_behaved = client(&server);
    let started = Instant::now();
    for _ in 0..3 {
        let choices = well_behaved.dispatch(fp, &points).expect("dispatch");
        assert_eq!(choices.len(), points.len());
    }
    assert!(
        mid_frame.load(Ordering::SeqCst),
        "normal client was served while the dribbler held a partial frame"
    );
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "dispatches next to a dribbler took {:?} — a worker was pinned",
        started.elapsed()
    );
    let expected = well_behaved
        .dispatch(fp, &points)
        .expect("reference dispatch");

    // Release the tail; the dribbled frame must decode and answer
    // exactly like the reference dispatch of the same points.
    release_tx.send(()).expect("release finisher");
    finisher.join().expect("finisher join");
    let reply = read_raw_frame(&mut dribbler);
    assert_eq!(reply.request_id, 1, "reply echoes id");
    match reply.msg {
        WireMsg::DispatchChoices { choices } => {
            assert_eq!(choices, expected, "dribbled batch answer");
        }
        other => panic!("expected DispatchChoices, got {other:?}"),
    }

    well_behaved.close();
    drop(dribbler);
    server.shutdown();
}

/// A client that stalls mid-frame makes no liveness progress, so its
/// connection must be dropped at the request timeout, and another client
/// must be served during the stall.
#[test]
fn mid_frame_staller_is_reaped_at_request_timeout() {
    let _guard = serialized();
    let idle_reaped = offload_obs::counter("net.server.idle_reaped");
    let (analysis, mut server) = start_server(Duration::from_millis(300));
    let fp = fingerprint(&analysis);
    let reaped_before = idle_reaped.get();

    // Half a frame, then silence.
    let frame = raw_dispatch_frame(fp, 7, &[vec![42i64]]);
    let mut staller = TcpStream::connect(server.addr()).expect("staller connect");
    staller.set_nodelay(true).ok();
    staller
        .write_all(&frame[..frame.len() / 2])
        .expect("send half frame");

    // Served during the stall: the staller blocks only its own thread.
    let mut live = client(&server);
    let choices = live.dispatch(fp, &[vec![42i64]]).expect("dispatch");
    assert_eq!(choices.len(), 1);
    live.close();

    // The reaper fires once the stalled connection exceeds the
    // timeout with no progress toward a complete frame.
    let deadline = Instant::now() + Duration::from_secs(10);
    while idle_reaped.get() == reaped_before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(
        idle_reaped.get() > reaped_before,
        "mid-frame staller was never reaped"
    );

    // The server actually dropped the socket: the staller reads EOF
    // (or a reset), never a reply.
    staller
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut buf = [0u8; 16];
    match staller.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("reaped staller received {n} bytes instead of EOF"),
    }

    server.shutdown();
}

/// An analysis runs on its own connection's thread, so it cannot stall
/// dispatch on another connection: while connection A waits for its
/// `AnalyzeProgram` reply on rawcaudio's source (a second or more of
/// pipeline in a debug build), connection B's `DispatchBatch` is
/// answered. A flag set once A's reply arrives checks the order, so the
/// test holds on any host speed.
#[test]
fn analysis_on_one_connection_does_not_stall_dispatch_on_another() {
    let _guard = serialized();
    let misses = offload_obs::counter("net.plan_cache.misses");
    let (analysis, mut server) = start_server(Duration::from_secs(60));
    let fp = fingerprint(&analysis);
    let mut b = client(&server);
    let misses_before = misses.get();

    let analyzed = Arc::new(AtomicBool::new(false));
    let analyzer = {
        let analyzed = Arc::clone(&analyzed);
        let mut a = client(&server);
        std::thread::spawn(move || {
            let reply = a.analyze(&offload_benchmarks::rawcaudio().source);
            analyzed.store(true, Ordering::SeqCst);
            a.close();
            reply
        })
    };
    // B dispatches once A's analysis is under way: the plan cache counts
    // the miss just before it runs the pipeline.
    let deadline = Instant::now() + Duration::from_secs(60);
    while misses.get() == misses_before {
        assert!(Instant::now() < deadline, "the analysis never started");
        std::thread::sleep(Duration::from_millis(1));
    }
    let choices = b.dispatch(fp, &[vec![42]]).expect("dispatch");
    assert!(
        !analyzed.load(Ordering::SeqCst),
        "the dispatch was answered only after the analysis"
    );
    assert_eq!(
        choices,
        vec![analysis.select(&[42]).expect("select") as u32]
    );
    b.close();

    // A's reply is the analysis outcome, not a transport failure.
    match analyzer.join().expect("analyzer join") {
        Ok(_) | Err(NetError::Remote(_)) => {}
        Err(e) => panic!("the analyze request failed in transport: {e}"),
    }
    server.shutdown();
}

/// A client that pipelines hundreds of frames before it reads a reply
/// must get every reply, in order: frames that one read buffers together
/// are each answered, none stranded until the request deadline drops the
/// connection.
#[test]
fn deep_pipelining_past_the_fairness_cap_drains_fully() {
    let _guard = serialized();
    let (analysis, mut server) = start_server(Duration::from_secs(60));
    let fp = fingerprint(&analysis);
    let mut c = client(&server);

    // Many reads' worth of frames go on the wire before any reply is
    // read.
    const FRAMES: usize = 300;
    let ids: Vec<u64> = (0..FRAMES)
        .map(|i| c.send_dispatch(fp, &[vec![i as i64]]).expect("send"))
        .collect();
    let started = Instant::now();
    for (i, id) in ids.into_iter().enumerate() {
        let choices = c.recv_choices(id).expect("recv");
        assert_eq!(choices.len(), 1);
        assert_eq!(
            choices[0],
            analysis.select(&[i as i64]).expect("select") as u32,
            "pipelined frame {i}"
        );
    }
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "draining {FRAMES} pipelined frames took {:?} — frames were stranded",
        started.elapsed()
    );
    c.close();
    server.shutdown();
}

/// Shutting down while clients are mid-dispatch must never hang: shutdown
/// joins only the accept thread, and each connection's thread ends after
/// the frame it is answering.
#[test]
fn shutdown_under_load_returns_promptly() {
    let _guard = serialized();
    let (analysis, mut server) = start_server(Duration::from_secs(60));
    let fp = fingerprint(&analysis);
    let addr = server.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..4)
        .map(|i| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut config = ClientConfig::new(addr.to_string());
                config.request_timeout = Duration::from_secs(5);
                let Ok(mut c) = DispatchClient::connect(&config) else {
                    return;
                };
                let mut k = i as i64;
                while !stop.load(Ordering::SeqCst) {
                    // The server vanishing mid-flight is the point.
                    if c.dispatch(fp, &[vec![k]]).is_err() {
                        return;
                    }
                    k = (k + 1) % 100_000;
                }
            })
        })
        .collect();

    // Let the load reach a steady state, then pull the plug while
    // dispatches are in flight.
    std::thread::sleep(Duration::from_millis(100));
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let shutter = std::thread::spawn(move || {
        server.shutdown();
        done_tx.send(()).ok();
        drop(server);
    });
    assert!(
        done_rx.recv_timeout(Duration::from_secs(30)).is_ok(),
        "shutdown hung with clients mid-dispatch"
    );
    stop.store(true, Ordering::SeqCst);
    for c in clients {
        c.join().expect("client join");
    }
    shutter.join().expect("shutter join");
}

/// 200 connections that each dispatch once and vanish without a `Bye`
/// must leave clean books: every dispatch answered, zero protocol or
/// dispatch errors counted.
#[test]
fn connection_churn_without_bye_leaves_no_errors() {
    let _guard = serialized();
    let dispatch_points = offload_obs::counter("net.server.dispatch_points");
    let protocol_errors = offload_obs::counter("net.server.protocol_errors");
    let dispatch_errors = offload_obs::counter("net.server.dispatch_errors");
    let (analysis, mut server) = start_server(Duration::from_secs(60));
    let fp = fingerprint(&analysis);
    let points_before = dispatch_points.get();
    let proto_before = protocol_errors.get();
    let derr_before = dispatch_errors.get();

    const CHURN: usize = 200;
    for i in 0..CHURN {
        let mut c = client(&server);
        let choices = c.dispatch(fp, &[vec![i as i64 * 977]]).expect("dispatch");
        assert_eq!(choices.len(), 1);
        drop(c); // no Bye, no close(): the socket just disappears
    }

    assert_eq!(
        dispatch_points.get() - points_before,
        CHURN as u64,
        "every churned dispatch was counted"
    );
    assert_eq!(
        protocol_errors.get() - proto_before,
        0,
        "abrupt disconnects are not protocol errors"
    );
    assert_eq!(
        dispatch_errors.get() - derr_before,
        0,
        "no dispatch errors under churn"
    );

    server.shutdown();
}

/// A session whose server half panics must still give its connection
/// slot back. The hostile client hands the server control with a call
/// into a function that does not exist, which panics the session thread
/// while it writes the callee's parameter register; with a cap of one
/// connection, every later client would be refused if the slot leaked.
#[test]
fn panicking_session_releases_its_connection_slot() {
    let _guard = serialized();
    let analysis =
        Arc::new(Analysis::from_source(PROGRAM, AnalysisOptions::default()).expect("analysis"));
    let mut server = OffloadServer::bind(
        "127.0.0.1:0",
        analysis.clone(),
        DeviceModel::ipaq_testbed(),
        ServerConfig::builder().max_connections(1).build(),
    )
    .expect("server");
    let fp = fingerprint(&analysis);
    let choice = partitioned_choice(&analysis);

    let mut hostile = raw_session(&server, fp, choice);
    let mut control = ControlMsg::start();
    control.to = Host::Server;
    control.action = PendingAction::PushFrame {
        func: FuncId(9999),
        block: BlockId(0),
        segment: SegmentId(0),
        writes: vec![(LocalId(0), Value::Int(1))],
    };
    hostile
        .write_all(&raw_frame(2, WireMsg::Control(Box::new(control))))
        .expect("send Control");
    // The panic unwinds the session thread, which closes the socket
    // after giving the slot back.
    assert!(matches!(hostile.read(&mut [0u8; 16]), Ok(0) | Err(_)));

    let mut c = client(&server);
    let choices = c.dispatch(fp, &[vec![5]]).expect("the slot was released");
    assert_eq!(choices, vec![analysis.select(&[5]).expect("select") as u32]);
    c.close();
    server.shutdown();
}

/// Item frames come straight from the wire, so the server half of a
/// session must check them before they index anything: a `FetchItem` for
/// an id that is not a tracked item, and a `PushItem` whose register
/// payload names a function that does not exist, each get an `Error`
/// reply and end their session, and a fresh client is served afterwards
/// under a cap of one connection.
#[test]
fn hostile_item_frames_get_error_replies() {
    let _guard = serialized();
    // `main`'s registers cross the cut, so the plan tracks them as items.
    const TRACKED: &str = "
        int work(int k) { int j; int acc; acc = 0;
            for (j = 0; j < k; j++) { acc = acc + j * j % 1000; }
            return acc; }
        void main(int n) { int r; r = work(n); output(r + work(n)); }";
    let analysis =
        Arc::new(Analysis::from_source(TRACKED, AnalysisOptions::default()).expect("analysis"));
    let mut server = OffloadServer::bind(
        "127.0.0.1:0",
        analysis.clone(),
        DeviceModel::ipaq_testbed(),
        ServerConfig::builder().max_connections(1).build(),
    )
    .expect("server");
    let fp = fingerprint(&analysis);
    let choice = partitioned_choice(&analysis);

    let tracked = analysis.items.items[0].loc.index() as u32;
    let fetch = WireMsg::FetchItem { item: u32::MAX };
    let push = WireMsg::PushItem {
        item: tracked,
        payload: ItemPayload::Reg {
            func: FuncId(9999),
            local: LocalId(0),
            value: Value::Int(1),
        },
    };
    for hostile_msg in [fetch, push] {
        let kind = hostile_msg.kind();
        let mut hostile = raw_session(&server, fp, choice);
        hostile
            .write_all(&raw_frame(2, hostile_msg))
            .expect("send item frame");
        let reply = read_raw_frame(&mut hostile);
        assert_eq!(reply.request_id, 2, "{kind}");
        assert!(
            matches!(reply.msg, WireMsg::Error(_)),
            "{kind}: {:?}",
            reply.msg
        );
        // The session ends after the reply and closes the socket.
        assert!(
            matches!(hostile.read(&mut [0u8; 16]), Ok(0) | Err(_)),
            "{kind}"
        );
    }

    let mut c = client(&server);
    let choices = c
        .dispatch(fp, &[vec![5]])
        .expect("a fresh client is served");
    assert_eq!(choices, vec![analysis.select(&[5]).expect("select") as u32]);
    c.close();
    server.shutdown();
}

/// A `Control` frame's validity entries come straight from the wire and
/// index the server's per-location table, so each must name a tracked
/// item first. A `Resume` with an empty stack and entries for
/// `AbsLocId(u32::MAX)` and for the first id past the points-to table
/// finishes the (empty) run at once: the session answers with a `Finish`
/// control home that names neither id, and a fresh client is served
/// afterwards under a cap of one connection.
#[test]
fn control_validity_entries_past_the_tables_are_skipped() {
    let _guard = serialized();
    let analysis =
        Arc::new(Analysis::from_source(PROGRAM, AnalysisOptions::default()).expect("analysis"));
    let mut server = OffloadServer::bind(
        "127.0.0.1:0",
        analysis.clone(),
        DeviceModel::ipaq_testbed(),
        ServerConfig::builder().max_connections(1).build(),
    )
    .expect("server");
    let fp = fingerprint(&analysis);
    let choice = partitioned_choice(&analysis);

    let hostile_ids = [
        AbsLocId(u32::MAX),
        AbsLocId(analysis.pta.locs().len() as u32),
    ];
    let mut hostile = raw_session(&server, fp, choice);
    let mut control = ControlMsg::start();
    control.to = Host::Server;
    control.action = PendingAction::Resume;
    control.valid = hostile_ids.iter().map(|&id| (id, [false, true])).collect();
    hostile
        .write_all(&raw_frame(2, WireMsg::Control(Box::new(control))))
        .expect("send Control");
    let reply = read_raw_frame(&mut hostile);
    let WireMsg::Control(back) = reply.msg else {
        panic!("expected a Control reply, got {:?}", reply.msg);
    };
    assert_eq!(back.to, Host::Client);
    assert_eq!(back.action, PendingAction::Finish);
    assert!(
        back.valid.iter().all(|(id, _)| !hostile_ids.contains(id)),
        "{:?}",
        back.valid
    );
    // The session ends at the client's `Bye` and closes the socket.
    hostile
        .write_all(&raw_frame(3, WireMsg::Bye))
        .expect("send Bye");
    assert!(matches!(hostile.read(&mut [0u8; 16]), Ok(0) | Err(_)));

    let mut c = client(&server);
    let choices = c
        .dispatch(fp, &[vec![5]])
        .expect("a fresh client is served");
    assert_eq!(choices, vec![analysis.select(&[5]).expect("select") as u32]);
    c.close();
    server.shutdown();
}

/// A `Control` frame's `dyn_table` sizes the zeroed storage a session
/// materializes for peer-allocated objects, with peer-supplied slot
/// counts, so one frame could ask for 2³² slots per entry. The session
/// refuses any table that would take it past `MAX_DYN_SLOTS` in total,
/// before allocating: one entry one slot past the cap, and two entries
/// that pass it only together, each get an `Error` reply and end their
/// session, and a fresh client is served afterwards under a cap of one
/// connection.
#[test]
fn control_dyn_table_past_the_slot_cap_is_refused() {
    let _guard = serialized();
    let analysis =
        Arc::new(Analysis::from_source(PROGRAM, AnalysisOptions::default()).expect("analysis"));
    let mut server = OffloadServer::bind(
        "127.0.0.1:0",
        analysis.clone(),
        DeviceModel::ipaq_testbed(),
        ServerConfig::builder().max_connections(1).build(),
    )
    .expect("server");
    let fp = fingerprint(&analysis);
    let choice = partitioned_choice(&analysis);

    let entry = |id: u64, slots: u64| {
        let slots = u32::try_from(slots).expect("slot count fits the wire");
        (ObjKey::Dyn(id), AllocSiteId(0), slots)
    };
    let one_past = vec![entry(0, MAX_DYN_SLOTS + 1)];
    let two_halves = vec![
        entry(0, MAX_DYN_SLOTS / 2 + 1),
        entry(1, MAX_DYN_SLOTS / 2 + 1),
    ];
    for dyn_table in [one_past, two_halves] {
        let entries = dyn_table.len();
        let mut hostile = raw_session(&server, fp, choice);
        let mut control = ControlMsg::start();
        control.to = Host::Server;
        control.action = PendingAction::Resume;
        control.dyn_table = dyn_table;
        hostile
            .write_all(&raw_frame(2, WireMsg::Control(Box::new(control))))
            .expect("send Control");
        let reply = read_raw_frame(&mut hostile);
        assert!(
            matches!(&reply.msg, WireMsg::Error(e) if e.contains("peer slots")),
            "{entries} entries: {:?}",
            reply.msg
        );
        // The session ends after the reply and closes the socket.
        assert!(
            matches!(hostile.read(&mut [0u8; 16]), Ok(0) | Err(_)),
            "{entries} entries"
        );
    }

    let mut c = client(&server);
    let choices = c
        .dispatch(fp, &[vec![5]])
        .expect("a fresh client is served");
    assert_eq!(choices, vec![analysis.select(&[5]).expect("select") as u32]);
    c.close();
    server.shutdown();
}

/// A source nested a thousand parentheses deep would overflow a
/// connection thread's stack inside the parser and abort the whole
/// server, and a
/// flat 5000-term chain `n + n + … + n` would overflow it in the passes
/// that walk the left-deep tree. The parser's nesting cap turns both into
/// an `Error` reply, and the same connection keeps serving.
#[test]
fn deeply_nested_program_is_refused_and_the_connection_survives() {
    let _guard = serialized();
    let (analysis, mut server) = start_server(Duration::from_secs(60));
    let mut c = client(&server);
    let parens = format!(
        "void main(int n) {{ output({}n{}); }}",
        "(".repeat(1000),
        ")".repeat(1000)
    );
    let chain = format!("void main(int n) {{ output(n{}); }}", " + n".repeat(5000));
    for source in [parens, chain] {
        match c.analyze(&source) {
            Err(NetError::Remote(msg)) => assert!(msg.contains("parse error"), "{msg}"),
            Err(e) => panic!("expected a remote parse error, got {e}"),
            Ok(info) => panic!("a program past the nesting cap was analyzed: {info:?}"),
        }
    }
    let fp = fingerprint(&analysis);
    let choices = c
        .dispatch(fp, &[vec![42]])
        .expect("dispatch after the refusal");
    assert_eq!(
        choices,
        vec![analysis.select(&[42]).expect("select") as u32]
    );
    c.close();
    server.shutdown();
}
