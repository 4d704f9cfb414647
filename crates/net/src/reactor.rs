//! The Linux readiness reactor: the server's I/O plane on Linux.
//!
//! There is no dedicated event-loop thread and no userspace work queue:
//! every dispatch worker blocks in `epoll_wait` on one shared epoll
//! instance built on raw `extern "C"` syscall declarations — no external
//! crates. The kernel *is* the work queue (`epoll_wait` waiters are
//! exclusive, so one readiness event wakes one worker). Compared to a
//! reactor-thread-plus-handoff design this removes a context switch and
//! a queue transfer from every wakeup — decisive when cores are scarce,
//! since a handoff serializes the whole plane through one thread.
//!
//! Connections are armed plain edge-triggered (`EPOLLET`), *not*
//! oneshot: re-arming via `EPOLL_CTL_MOD` after every drain would cost a
//! syscall per wakeup. Exclusive ownership comes from the token table
//! instead — an event checks its connection out (`Parked` → `Active`);
//! an event that finds the connection already `Active` just marks it
//! `ready_again`, and the owning worker re-drains instead of parking.
//! The park happens under the same lock that reads the flag, so an edge
//! can never fall between "drained to dry" and "parked".
//!
//! A woken worker drains every buffered frame without ever sleeping in a
//! poll window, flushes the coalesced replies with one vectored write,
//! then parks. Two cases re-arm with `EPOLLOUT` added (one `MOD`, rare):
//! a reply backlog waiting for the socket to drain, and the fairness cap
//! — under edge triggering, bytes already buffered in userspace never
//! re-announce themselves, but `EPOLL_CTL_MOD` re-polls readiness, so a
//! writable socket redelivers the connection immediately, behind
//! whatever else is already ready.
//!
//! The listener is armed `EPOLLONESHOT`: whichever worker it wakes
//! accepts until `WouldBlock`, then re-arms it. Idle reaping runs on a
//! coarse timer wheel behind a mutex, ticked by whichever worker's
//! `epoll_wait` times out: each due token is re-checked against its
//! authoritative `last_activity` and either reaped or rescheduled, so a
//! client stalled mid-frame is collected at the request timeout without
//! any worker having blocked on it.
//!
//! Every frame funnels into the same frame handler as the off-Linux
//! thread-per-connection plane, and a `Hello` hands the connection to
//! the same session runner, which keeps wire behavior identical across
//! platforms.

use crate::error::NetError;
use crate::link::Conn;
use crate::protocol::{TraceContext, WireFrame, WireMsg};
use crate::server::{handle_dispatch_frame, serve_session, Disposition, Service};
use offload_obs::{Counter, FieldValue, Histogram, SpanGuard};
use std::collections::HashMap;
use std::io;
use std::net::TcpListener;
use std::os::raw::c_void;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Raw epoll/eventfd bindings; kept minimal and private to this module.
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLET: u32 = 1 << 31;
    pub const EPOLLONESHOT: u32 = 1 << 30;

    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EFD_CLOEXEC: c_int = 0o2000000;
    pub const EFD_NONBLOCK: c_int = 0o4000;

    /// Mirrors the kernel's `struct epoll_event`: packed on x86-64,
    /// where the ABI leaves the 64-bit payload unaligned.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn eventfd(initval: u32, flags: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
    }
}

/// The listener's reserved token.
const TOKEN_LISTENER: u64 = 0;
/// The shutdown eventfd's reserved token.
const TOKEN_WAKE: u64 = 1;
/// First token handed to an accepted connection.
const FIRST_CONN_TOKEN: u64 = 2;
/// Readiness events fetched per `epoll_wait`. Kept small: each worker
/// processes its batch serially, so a large grab would hoard ready
/// connections other workers could be serving.
const EVENT_BATCH: usize = 64;
/// Frames one drain (including `ready_again` re-drains) handles before
/// the connection is parked so other ready connections get a turn.
const MAX_DRAIN_FRAMES: u64 = 64;

/// The interest set every pooled connection is armed with, once, at
/// accept. Plain edge triggering: ownership is enforced by the token
/// table, not by `EPOLLONESHOT`, so the hot path never re-arms.
const ARM_ET: u32 = sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLET;
/// The listener's interest set: oneshot so only one worker accepts at a
/// time; `EPOLL_CTL_MOD` re-polls, so a backlog that built up during the
/// accept drain redelivers on re-arm.
const ARM_LISTENER: u32 = sys::EPOLLIN | sys::EPOLLONESHOT;

/// `net.reactor.*` registry handles, resolved once at spawn.
struct ReactorMetrics {
    /// Connection readiness events the kernel delivered to workers.
    wakeups: Arc<Counter>,
    /// Wakeups that produced no progress: a token no longer registered,
    /// or a drain that found neither a frame nor fresh bytes.
    spurious_wakeups: Arc<Counter>,
    /// Connections parked back into the interest set after a drain.
    rearms: Arc<Counter>,
    /// Drains whose replies were coalesced into one vectored flush
    /// (two or more frames in the write queue).
    coalesced_writes: Arc<Counter>,
    /// Complete frames handled per wakeup.
    frames_per_wakeup: Arc<Histogram>,
}

impl ReactorMetrics {
    fn new() -> ReactorMetrics {
        ReactorMetrics {
            wakeups: offload_obs::counter("net.reactor.wakeups"),
            spurious_wakeups: offload_obs::counter("net.reactor.spurious_wakeups"),
            rearms: offload_obs::counter("net.reactor.rearms"),
            coalesced_writes: offload_obs::counter("net.reactor.coalesced_writes"),
            frames_per_wakeup: offload_obs::histogram("net.reactor.frames_per_wakeup"),
        }
    }
}

/// A connection checked out of the token table, mid-drain on a worker.
struct PooledConn {
    conn: Conn,
    last_activity: Instant,
    /// When the connection was checked out; the elapsed time at the
    /// drain's first frame is that frame's queue wait.
    enqueued_at: Instant,
    /// The connection's registration token.
    token: u64,
}

/// Who currently holds a registered connection.
enum SlotState {
    /// Parked in epoll; the plane owns the `Conn` and its idle clock.
    Parked(Conn, Instant),
    /// Checked out, mid-drain on a worker. `ready_again` records an edge
    /// that fired during the drain: the owner re-drains instead of
    /// parking, so the edge is never lost.
    Active { ready_again: bool },
}

/// One registered connection's table entry. `armed_out` mirrors whether
/// the fd's kernel interest set currently includes `EPOLLOUT`, so parks
/// only issue an `EPOLL_CTL_MOD` on transitions.
struct Slot {
    state: SlotState,
    armed_out: bool,
}

/// What an event for a connection token resolved to.
enum Checkout {
    /// The connection is ours to drain.
    Drain(Conn, Instant, bool),
    /// Another worker owns it; the re-drain flag is set.
    Deferred,
    /// Closed, promoted, or reaped since the event was queued.
    Gone,
}

/// What parking a drained connection resolved to.
enum ParkOutcome {
    /// Back in the interest set; the plane owns the connection again.
    Parked,
    /// An edge fired mid-drain: the owner must drain again.
    Redrain(Conn),
    /// The table entry vanished mid-drain (shutdown drain): the owner
    /// must release the connection, never re-drain it.
    Gone(Conn),
}

/// State shared between the dispatch workers and the server handle (for
/// shutdown wakeups).
pub(crate) struct ReactorShared {
    epfd: i32,
    wake_fd: i32,
    next_token: AtomicU64,
    tokens: Mutex<HashMap<u64, Slot>>,
    wheel: Mutex<TimerWheel>,
    metrics: ReactorMetrics,
}

impl Drop for ReactorShared {
    fn drop(&mut self) {
        unsafe {
            sys::close(self.epfd);
            sys::close(self.wake_fd);
        }
    }
}

impl ReactorShared {
    fn lock_tokens(&self) -> MutexGuard<'_, HashMap<u64, Slot>> {
        self.tokens.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_wheel(&self) -> MutexGuard<'_, TimerWheel> {
        self.wheel.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Interrupts every `epoll_wait` (used by shutdown; the eventfd is
    /// level-triggered and left undrained, so all workers see it).
    pub(crate) fn wake(&self) {
        let one: u64 = 1;
        let _ = unsafe { sys::write(self.wake_fd, (&one as *const u64).cast::<c_void>(), 8) };
    }

    fn ctl(&self, op: i32, fd: i32, events: u32, token: u64) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        if unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) } < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        }
    }

    fn deregister(&self, fd: i32) {
        let _ = self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Removes a connection's table entry (close, promote, reap).
    fn remove(&self, token: u64) {
        self.lock_tokens().remove(&token);
    }

    /// Resolves an event for `token` to a drain, a deferral, or nothing.
    fn checkout(&self, token: u64) -> Checkout {
        let mut tokens = self.lock_tokens();
        let Some(slot) = tokens.get_mut(&token) else {
            return Checkout::Gone;
        };
        match &mut slot.state {
            SlotState::Active { ready_again } => {
                *ready_again = true;
                Checkout::Deferred
            }
            state @ SlotState::Parked(..) => {
                let armed_out = slot.armed_out;
                match std::mem::replace(state, SlotState::Active { ready_again: false }) {
                    SlotState::Parked(conn, last_activity) => {
                        Checkout::Drain(conn, last_activity, armed_out)
                    }
                    SlotState::Active { .. } => unreachable!("just matched Parked"),
                }
            }
        }
    }

    /// Parks a drained connection — unless an edge fired mid-drain, in
    /// which case the connection comes straight back for a re-drain. The
    /// re-drain check is never skipped: even when an `EPOLLOUT` kick has
    /// queued a redelivery, that redelivery may already have been
    /// consumed by another worker as a deferral, so discarding
    /// `ready_again` here would lose the edge for good under `EPOLLET`.
    fn park(&self, token: u64, conn: Conn, last_activity: Instant) -> ParkOutcome {
        self.metrics.rearms.inc();
        let mut tokens = self.lock_tokens();
        let Some(slot) = tokens.get_mut(&token) else {
            // The shutdown drain cleared the table while this worker was
            // mid-drain. Hand the conn back for release — re-draining
            // would spin forever against the permanently missing token.
            return ParkOutcome::Gone(conn);
        };
        if let SlotState::Active { ready_again: true } = slot.state {
            slot.state = SlotState::Active { ready_again: false };
            return ParkOutcome::Redrain(conn);
        }
        slot.state = SlotState::Parked(conn, last_activity);
        ParkOutcome::Parked
    }

    /// Ensures the fd's kernel interest set matches `want_out`, issuing
    /// an `EPOLL_CTL_MOD` only on transitions — except when `repoll` is
    /// set, which issues the `MOD` unconditionally so readiness is
    /// re-polled even if the interest set is unchanged (under `EPOLLET`,
    /// bytes already buffered never re-announce themselves, so a kick
    /// park whose interest set already includes `EPOLLOUT` still needs
    /// the re-poll). Called by the owning worker before parking, so it
    /// never races another `MOD`.
    fn sync_interest(
        &self,
        fd: i32,
        token: u64,
        armed_out: &mut bool,
        want_out: bool,
        repoll: bool,
    ) -> io::Result<()> {
        if *armed_out == want_out && !repoll {
            return Ok(());
        }
        let events = if want_out {
            ARM_ET | sys::EPOLLOUT
        } else {
            ARM_ET
        };
        self.ctl(sys::EPOLL_CTL_MOD, fd, events, token)?;
        *armed_out = want_out;
        if let Some(slot) = self.lock_tokens().get_mut(&token) {
            slot.armed_out = want_out;
        }
        Ok(())
    }
}

/// Builds the epoll instance, registers the listener and the shutdown
/// eventfd, and spawns the dispatch workers — each of which waits on the
/// epoll instance directly.
pub(crate) fn spawn(
    listener: TcpListener,
    service: Arc<Service>,
) -> Result<(Arc<ReactorShared>, Vec<JoinHandle<()>>), NetError> {
    let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
    if epfd < 0 {
        return Err(NetError::io(
            "creating epoll instance",
            io::Error::last_os_error(),
        ));
    }
    let wake_fd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
    if wake_fd < 0 {
        let e = io::Error::last_os_error();
        unsafe { sys::close(epfd) };
        return Err(NetError::io("creating reactor eventfd", e));
    }
    let shared = Arc::new(ReactorShared {
        epfd,
        wake_fd,
        next_token: AtomicU64::new(FIRST_CONN_TOKEN),
        tokens: Mutex::new(HashMap::new()),
        wheel: Mutex::new(TimerWheel::new(service.config.request_timeout)),
        metrics: ReactorMetrics::new(),
    });
    shared
        .ctl(
            sys::EPOLL_CTL_ADD,
            listener.as_raw_fd(),
            ARM_LISTENER,
            TOKEN_LISTENER,
        )
        .map_err(|e| NetError::io("registering listener", e))?;
    // Level-triggered interest for the eventfd: a shutdown wake must
    // reach every waiting worker, not just one.
    shared
        .ctl(sys::EPOLL_CTL_ADD, wake_fd, sys::EPOLLIN, TOKEN_WAKE)
        .map_err(|e| NetError::io("registering reactor eventfd", e))?;

    let listener = Arc::new(listener);
    let workers = (0..service.config.dispatch_threads.max(1))
        .map(|_| {
            let svc = Arc::clone(&service);
            let shared = Arc::clone(&shared);
            let listener = Arc::clone(&listener);
            std::thread::spawn(move || worker_loop(&shared, &listener, &svc))
        })
        .collect();
    Ok((shared, workers))
}

/// One dispatch worker: wait for readiness, accept or drain whatever the
/// kernel hands over, tick the wheel.
fn worker_loop(shared: &Arc<ReactorShared>, listener: &TcpListener, svc: &Arc<Service>) {
    let mut events = [sys::EpollEvent { events: 0, data: 0 }; EVENT_BATCH];
    while !svc.stop.load(Ordering::SeqCst) {
        let timeout = shared.lock_wheel().wait_ms();
        let n = unsafe {
            sys::epoll_wait(
                shared.epfd,
                events.as_mut_ptr(),
                EVENT_BATCH as i32,
                timeout,
            )
        };
        if n < 0 {
            if io::Error::last_os_error().kind() == io::ErrorKind::Interrupted {
                continue;
            }
            break;
        }
        for ev in &events[..n as usize] {
            match ev.data {
                TOKEN_LISTENER => accept_ready(shared, listener, svc),
                // Shutdown signal; the loop condition exits. Drain only
                // spurious (non-stop) wakes so a real stop keeps the
                // level high for every other worker.
                TOKEN_WAKE => {
                    if !svc.stop.load(Ordering::SeqCst) {
                        drain_wake(shared.wake_fd);
                    }
                }
                token => {
                    shared.metrics.wakeups.inc();
                    match shared.checkout(token) {
                        Checkout::Drain(conn, last_activity, armed_out) => drain_ready(
                            PooledConn {
                                conn,
                                last_activity,
                                enqueued_at: Instant::now(),
                                token,
                            },
                            armed_out,
                            svc,
                            shared,
                        ),
                        // The owning worker will re-drain; nothing lost.
                        Checkout::Deferred => {}
                        Checkout::Gone => shared.metrics.spurious_wakeups.inc(),
                    }
                }
            }
        }
        shared.lock_wheel().advance(shared, svc);
    }
    // Shutdown: drop every still-parked connection. Draining the map is
    // idempotent, so every exiting worker may try. Active entries are
    // dropped from the table but NOT released here — the worker that
    // owns the conn releases it, either via the stop check in
    // `drain_ready` or via `ParkOutcome::Gone` when it tries to park.
    let parked: Vec<Slot> = shared.lock_tokens().drain().map(|(_, s)| s).collect();
    for slot in parked {
        if let SlotState::Parked(conn, _) = slot.state {
            drop(conn);
            svc.release_conn();
        }
    }
}

/// Accepts until the listener would block, registering each connection
/// as a parked edge-triggered fd, then re-arms the listener.
fn accept_ready(shared: &Arc<ReactorShared>, listener: &TcpListener, svc: &Arc<Service>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            // The backlog is drained; re-arm below.
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            // A connection that died between the kernel queueing it and
            // us accepting it says nothing about the rest of the
            // backlog: keep draining.
            Err(e)
                if e.kind() == io::ErrorKind::ConnectionAborted
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                continue
            }
            // Anything else (fd exhaustion, most likely) would fail
            // again immediately, and the oneshot re-arm's MOD re-polls —
            // back off first so the plane doesn't hot-loop at 100% CPU.
            Err(_) => {
                std::thread::sleep(Duration::from_millis(5));
                break;
            }
        };
        let Some(mut conn) = svc.admit(stream) else {
            continue;
        };
        if conn.enter_reactor_mode().is_err() {
            svc.release_conn();
            continue;
        }
        let token = shared.next_token.fetch_add(1, Ordering::Relaxed);
        let fd = conn.raw_fd();
        let now = Instant::now();
        // Park before arming: the fd may become ready the moment it is
        // registered and the token must already resolve.
        shared.lock_tokens().insert(
            token,
            Slot {
                state: SlotState::Parked(conn, now),
                armed_out: false,
            },
        );
        shared.lock_wheel().insert(token, now);
        if shared.ctl(sys::EPOLL_CTL_ADD, fd, ARM_ET, token).is_err() {
            shared.remove(token);
            svc.release_conn();
        }
    }
    // Oneshot re-arm; MOD re-polls, so connections that raced the drain
    // redeliver. If the listener fd is gone the server is shutting down.
    let _ = shared.ctl(
        sys::EPOLL_CTL_MOD,
        listener.as_raw_fd(),
        ARM_LISTENER,
        TOKEN_LISTENER,
    );
}

/// Clears the eventfd so a level-triggered wake does not spin.
fn drain_wake(wake_fd: i32) {
    let mut buf = 0u64;
    loop {
        let n = unsafe { sys::read(wake_fd, (&mut buf as *mut u64).cast::<c_void>(), 8) };
        if n <= 0 {
            return;
        }
    }
}

/// A worker's turn on a kernel-ready connection, looping as long as
/// edges keep arriving mid-drain.
fn drain_ready(
    mut pooled: PooledConn,
    mut armed_out: bool,
    svc: &Arc<Service>,
    shared: &Arc<ReactorShared>,
) {
    loop {
        if svc.stop.load(Ordering::SeqCst) {
            // Shutdown arrived mid-drain. The exiting workers' table
            // drain only releases *parked* conns, so the owner of an
            // active one cleans up its own slot here.
            shared.remove(pooled.token);
            drop(pooled);
            svc.release_conn();
            return;
        }
        match drain_once(pooled, &mut armed_out, svc, shared) {
            Some(again) => pooled = again,
            None => return,
        }
    }
}

/// One drain pass: finish any reply backlog, handle every complete frame
/// already buffered (never blocking), flush the coalesced replies with
/// one vectored write, then park. Returns the connection when an edge
/// fired mid-drain and it must go again.
fn drain_once(
    mut pooled: PooledConn,
    armed_out: &mut bool,
    svc: &Arc<Service>,
    shared: &Arc<ReactorShared>,
) -> Option<PooledConn> {
    let mut queue_us = pooled.enqueued_at.elapsed().as_micros() as u64;
    let rx_at_start = pooled.conn.bytes_received();
    let mut drain_span: Option<SpanGuard> = None;
    let mut frames = 0u64;

    // A wake can be EPOLLOUT after a short write: clear the backlog
    // before reading more work.
    match pooled.conn.flush_writes() {
        Ok(true) => {}
        Ok(false) => return park(pooled, armed_out, true, svc, shared),
        Err(_) => {
            close_conn(pooled, svc, shared);
            return None;
        }
    }
    loop {
        if frames >= MAX_DRAIN_FRAMES {
            // Fairness cap: under edge triggering the bytes already
            // buffered never re-announce themselves, so park with
            // EPOLLOUT added — `EPOLL_CTL_MOD` re-polls readiness, and a
            // writable socket redelivers the connection immediately,
            // behind whatever else is already ready.
            shared.metrics.frames_per_wakeup.record(frames);
            return flush_then(pooled, armed_out, true, svc, shared);
        }
        match pooled.conn.poll_frame() {
            Ok(Some(frame)) => {
                frames += 1;
                pooled.last_activity = Instant::now();
                if drain_span.is_none() && offload_obs::enabled() {
                    if let Some(trace) = frame_trace(&frame).filter(|t| t.is_sampled()) {
                        drain_span = Some(offload_obs::begin_span(
                            "net",
                            "server_drain",
                            vec![("trace_id", FieldValue::from(trace.trace_id))],
                        ));
                    }
                }
                match handle_dispatch_frame(&mut pooled.conn, frame, svc, queue_us) {
                    Ok(Disposition::Pooled) => {}
                    Ok(Disposition::Promote(hello)) => {
                        shared.metrics.frames_per_wakeup.record(frames);
                        promote(pooled, *hello, svc, shared);
                        return None;
                    }
                    Ok(Disposition::Close) | Err(_) => {
                        shared.metrics.frames_per_wakeup.record(frames);
                        close_conn(pooled, svc, shared);
                        return None;
                    }
                }
                queue_us = 0;
            }
            Ok(None) => break,
            Err(_) => {
                shared.metrics.frames_per_wakeup.record(frames);
                close_conn(pooled, svc, shared);
                return None;
            }
        }
    }
    if pooled.conn.bytes_received() > rx_at_start {
        // Partial-frame progress is liveness even without a full frame.
        pooled.last_activity = Instant::now();
    } else if frames == 0 {
        shared.metrics.spurious_wakeups.inc();
    }
    shared.metrics.frames_per_wakeup.record(frames);
    flush_then(pooled, armed_out, false, svc, shared)
}

/// Flushes the coalesced reply queue, then parks — wanting write
/// readiness when the socket pushed back (or the caller asked for a
/// kick) — or closes on error. Returns the connection for a re-drain
/// when an edge fired mid-drain.
fn flush_then(
    mut pooled: PooledConn,
    armed_out: &mut bool,
    kick: bool,
    svc: &Arc<Service>,
    shared: &Arc<ReactorShared>,
) -> Option<PooledConn> {
    if pooled.conn.pending_frames() > 1 {
        shared.metrics.coalesced_writes.inc();
    }
    match pooled.conn.flush_writes() {
        Ok(done) => park(pooled, armed_out, kick || !done, svc, shared),
        Err(_) => {
            close_conn(pooled, svc, shared);
            None
        }
    }
}

/// Returns a connection to the plane. `want_out` re-arms with `EPOLLOUT`
/// (backlog or fairness kick) and forces the `EPOLL_CTL_MOD` even when
/// `EPOLLOUT` is already armed, so readiness is re-polled and a writable
/// socket redelivers the buffered work. Returns the connection back when
/// it must be drained again instead.
fn park(
    pooled: PooledConn,
    armed_out: &mut bool,
    want_out: bool,
    svc: &Arc<Service>,
    shared: &Arc<ReactorShared>,
) -> Option<PooledConn> {
    let fd = pooled.conn.raw_fd();
    let token = pooled.token;
    if shared
        .sync_interest(fd, token, armed_out, want_out, want_out)
        .is_err()
    {
        // The fd cannot be watched; drop the connection.
        close_conn(pooled, svc, shared);
        return None;
    }
    let PooledConn {
        conn,
        last_activity,
        token,
        ..
    } = pooled;
    match shared.park(token, conn, last_activity) {
        ParkOutcome::Parked => None,
        ParkOutcome::Redrain(conn) => Some(PooledConn {
            conn,
            last_activity,
            enqueued_at: Instant::now(),
            token,
        }),
        ParkOutcome::Gone(conn) => {
            // Shutdown cleared the table mid-drain: dropping closes the
            // fd (which auto-deregisters it), and the slot is released
            // here because the table drain only releases parked conns.
            drop(conn);
            svc.release_conn();
            None
        }
    }
}

/// Drops a pooled connection, best-effort flushing queued replies (an
/// error report may still be deliverable) and deregistering the fd.
fn close_conn(mut pooled: PooledConn, svc: &Arc<Service>, shared: &Arc<ReactorShared>) {
    let _ = pooled.conn.flush_writes();
    shared.remove(pooled.token);
    shared.deregister(pooled.conn.raw_fd());
    drop(pooled);
    svc.release_conn();
}

/// Promotes a `Hello` connection out of the reactor onto a dedicated
/// blocking session thread.
fn promote(
    mut pooled: PooledConn,
    hello: WireFrame,
    svc: &Arc<Service>,
    shared: &Arc<ReactorShared>,
) {
    shared.remove(pooled.token);
    shared.deregister(pooled.conn.raw_fd());
    if pooled.conn.enter_session_mode().is_err() {
        svc.release_conn();
        return;
    }
    let svc = Arc::clone(svc);
    std::thread::spawn(move || serve_session(pooled.conn, hello, &svc));
}

/// Returns the trace context a dispatch-service frame carries, if any.
fn frame_trace(frame: &WireFrame) -> Option<TraceContext> {
    match &frame.msg {
        WireMsg::AnalyzeProgram { trace, .. } | WireMsg::DispatchBatch { trace, .. } => {
            Some(*trace)
        }
        _ => None,
    }
}

/// A single-level timer wheel for idle reaping, ticked by whichever
/// worker's `epoll_wait` times out. Entries are tokens only; the
/// authoritative idle clock lives with the connection, so a due entry is
/// re-checked and rescheduled rather than trusted.
///
/// Lock order: the wheel lock is taken before the token-table lock
/// (`check` holds the wheel and briefly locks the table); nothing locks
/// the wheel while holding the table.
struct TimerWheel {
    timeout: Option<Duration>,
    granularity: Duration,
    buckets: Vec<Vec<u64>>,
    cursor: usize,
    cursor_time: Instant,
}

impl TimerWheel {
    fn new(timeout: Option<Duration>) -> TimerWheel {
        let span = timeout.unwrap_or(Duration::from_secs(60));
        // 16 slots across the timeout gives reap latency ~1/16 of the
        // timeout; double the span so a freshly-active conn reschedules
        // without clamping.
        let granularity = (span / 16).max(Duration::from_millis(10));
        TimerWheel {
            timeout,
            granularity,
            buckets: vec![Vec::new(); 34],
            cursor: 0,
            cursor_time: Instant::now(),
        }
    }

    /// The `epoll_wait` timeout: until the next tick, capped so the
    /// stop flag is still observed promptly.
    fn wait_ms(&self) -> i32 {
        if self.timeout.is_none() {
            return 500;
        }
        let next = self.cursor_time + self.granularity;
        let ms = next.saturating_duration_since(Instant::now()).as_millis() as i64;
        ms.clamp(1, 500) as i32
    }

    fn insert(&mut self, token: u64, last_activity: Instant) {
        let Some(timeout) = self.timeout else { return };
        let deadline = last_activity + timeout;
        let dist = deadline.saturating_duration_since(self.cursor_time);
        let steps = (dist.as_nanos() / self.granularity.as_nanos().max(1))
            .min(self.buckets.len() as u128 - 1) as usize;
        let slot = (self.cursor + steps) % self.buckets.len();
        self.buckets[slot].push(token);
    }

    /// Advances past every elapsed slot, re-checking due tokens.
    fn advance(&mut self, shared: &ReactorShared, svc: &Arc<Service>) {
        if self.timeout.is_none() {
            return;
        }
        let now = Instant::now();
        while now.saturating_duration_since(self.cursor_time) >= self.granularity {
            let due = std::mem::take(&mut self.buckets[self.cursor]);
            self.cursor = (self.cursor + 1) % self.buckets.len();
            self.cursor_time += self.granularity;
            for token in due {
                self.check(token, now, shared, svc);
            }
        }
    }

    /// Reaps a due token if its conn is parked and stale; reschedules it
    /// if the conn is still live (parked-and-fresh, or checked out).
    fn check(&mut self, token: u64, now: Instant, shared: &ReactorShared, svc: &Arc<Service>) {
        let timeout = self.timeout.expect("advance gated on timeout");
        let mut tokens = shared.lock_tokens();
        match tokens.get(&token).map(|slot| &slot.state) {
            // Closed or promoted since scheduling: forget it.
            None => {}
            // A worker holds it; it will be parked again with a fresh
            // clock. Re-check a full timeout from now.
            Some(SlotState::Active { .. }) => {
                drop(tokens);
                self.insert(token, now);
            }
            Some(SlotState::Parked(_, last_activity)) => {
                let last = *last_activity;
                if now.saturating_duration_since(last) > timeout {
                    let Some(Slot {
                        state: SlotState::Parked(conn, _),
                        ..
                    }) = tokens.remove(&token)
                    else {
                        unreachable!("just matched Parked");
                    };
                    drop(tokens);
                    shared.deregister(conn.raw_fd());
                    drop(conn);
                    svc.metrics.idle_reaped.inc();
                    svc.release_conn();
                } else {
                    drop(tokens);
                    self.insert(token, last);
                }
            }
        }
    }
}
