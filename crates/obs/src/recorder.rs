//! The lock-sharded, thread-aware span recorder.
//!
//! One [`ThreadLog`] per recording thread, registered globally on the
//! thread's first event; each thread appends to its own buffer under its
//! own mutex, so the only cross-thread contention is the registry lock
//! taken once per thread lifetime and the per-thread lock taken briefly
//! by [`snapshot`]. Timestamps are monotonic microseconds since the
//! process-wide epoch (the first use of the recorder), so events from
//! every thread share one timeline.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

fn registry() -> &'static Mutex<Vec<Arc<ThreadLog>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadLog>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Locks a mutex, recovering from poisoning (the recorder holds plain
/// event buffers; a panicking thread cannot leave them inconsistent).
fn lock_ignore_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// `true` while span/event recording is on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off. Spans already open keep recording their
/// end events (their guards were armed at begin time).
pub fn set_enabled(on: bool) {
    if on {
        // Pin the epoch before the first event so timestamps are dense.
        let _ = EPOCH.get_or_init(Instant::now);
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Microseconds since the process observability epoch (pinned at the
/// first use of the recorder or metrics layer). Every span timestamp,
/// metrics-snapshot uptime, and wire-carried clock sample shares this
/// timeline, which is what makes client/server clock-offset estimation a
/// plain subtraction on each side.
pub fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// A field value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Free-form text.
    Str(String),
}

impl FieldValue {
    /// Renders the value as a JSON token (numbers and booleans bare,
    /// strings quoted and escaped).
    pub fn to_json(&self) -> String {
        match self {
            FieldValue::U64(v) => v.to_string(),
            FieldValue::I64(v) => v.to_string(),
            FieldValue::F64(v) if v.is_finite() => v.to_string(),
            FieldValue::F64(_) => "null".to_string(),
            FieldValue::Bool(v) => v.to_string(),
            FieldValue::Str(s) => format!("\"{}\"", crate::export::escape_json(s)),
        }
    }
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(s) => write!(f, "{s}"),
        }
    }
}

macro_rules! impl_from {
    ($($ty:ty => $variant:ident as $cast:ty),* $(,)?) => {
        $(impl From<$ty> for FieldValue {
            fn from(v: $ty) -> Self {
                FieldValue::$variant(v as $cast)
            }
        })*
    };
}
impl_from!(u64 => U64 as u64, u32 => U64 as u64, usize => U64 as u64,
           i64 => I64 as i64, i32 => I64 as i64, f64 => F64 as f64);

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// What an [`Event`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened.
    Begin,
    /// The most recently opened span on this thread closed.
    End,
    /// A zero-duration point event.
    Instant,
}

/// One recorded event on one thread's timeline.
#[derive(Debug, Clone)]
pub struct Event {
    /// Begin / end / instant.
    pub kind: EventKind,
    /// Category (Chrome trace `cat`): the pipeline layer, e.g. `"flow"`.
    pub cat: &'static str,
    /// Event name (empty on `End`; the matching `Begin` names the span).
    pub name: &'static str,
    /// Microseconds since the recording epoch.
    pub ts_us: u64,
    /// Attached key/value fields.
    pub fields: Vec<(&'static str, FieldValue)>,
}

/// One thread's private event shard.
struct ThreadLog {
    tid: u32,
    name: String,
    events: Mutex<Vec<Event>>,
}

thread_local! {
    static LOCAL: RefCell<Option<Arc<ThreadLog>>> = const { RefCell::new(None) };
}

/// Appends an event to the current thread's shard, registering the shard
/// on first use.
fn push_event(event: Event) {
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        let log = slot.get_or_insert_with(|| {
            let current = std::thread::current();
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            let name = current
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("thread-{tid}"));
            let log = Arc::new(ThreadLog {
                tid,
                name,
                events: Mutex::new(Vec::new()),
            });
            lock_ignore_poison(registry()).push(log.clone());
            log
        });
        lock_ignore_poison(&log.events).push(event);
    });
}

/// An open span; records the matching end event when dropped.
///
/// Produced by the [`crate::span!`] macro (or [`begin_span`] directly).
/// A guard from a disabled recorder is inert: dropping it records
/// nothing.
#[must_use = "a span ends when its guard drops; binding to _ ends it immediately"]
pub struct SpanGuard {
    armed: bool,
    end_fields: Vec<(&'static str, FieldValue)>,
}

impl SpanGuard {
    /// The inert guard handed out while recording is disabled.
    #[inline]
    pub fn disabled() -> SpanGuard {
        SpanGuard {
            armed: false,
            end_fields: Vec::new(),
        }
    }

    /// Attaches a field to the span's end event (for values only known
    /// when the work finishes, e.g. byte counts or iteration totals).
    /// No-op on an inert guard.
    pub fn record(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if self.armed {
            self.end_fields.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            push_event(Event {
                kind: EventKind::End,
                cat: "",
                name: "",
                ts_us: now_us(),
                fields: std::mem::take(&mut self.end_fields),
            });
        }
    }
}

/// Opens a span unconditionally (the [`crate::span!`] macro checks
/// [`enabled`] first — prefer it).
pub fn begin_span(
    cat: &'static str,
    name: &'static str,
    fields: Vec<(&'static str, FieldValue)>,
) -> SpanGuard {
    push_event(Event {
        kind: EventKind::Begin,
        cat,
        name,
        ts_us: now_us(),
        fields,
    });
    SpanGuard {
        armed: true,
        end_fields: Vec::new(),
    }
}

/// Records an instant event unconditionally (the [`crate::event!`] macro
/// checks [`enabled`] first — prefer it).
pub fn instant_event(
    cat: &'static str,
    name: &'static str,
    fields: Vec<(&'static str, FieldValue)>,
) {
    push_event(Event {
        kind: EventKind::Instant,
        cat,
        name,
        ts_us: now_us(),
        fields,
    });
}

/// Severity of a structured [`log_event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Fine-grained progress detail.
    Debug,
    /// Milestones.
    Info,
    /// Unexpected-but-recoverable situations.
    Warn,
}

impl Level {
    /// Lower-case name (`"debug"` / `"info"` / `"warn"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
        }
    }
}

/// Records a leveled structured log message as an instant event in the
/// `"log"` category (the replacement for ad-hoc string callbacks). No-op
/// while recording is disabled.
pub fn log_event(level: Level, target: &'static str, message: impl Into<String>) {
    if enabled() {
        instant_event(
            "log",
            target,
            vec![
                ("level", FieldValue::Str(level.as_str().to_string())),
                ("message", FieldValue::Str(message.into())),
            ],
        );
    }
}

/// One thread's recorded timeline, as captured by [`snapshot`].
#[derive(Debug, Clone)]
pub struct ThreadSnapshot {
    /// Recorder-assigned dense thread id (stable for the thread's life).
    pub tid: u32,
    /// The thread's name (falls back to `thread-<tid>`).
    pub name: String,
    /// Events in the order the thread recorded them.
    pub events: Vec<Event>,
}

/// Copies every thread's recorded events out of the recorder, ordered by
/// thread id. Recording continues unaffected.
pub fn snapshot() -> Vec<ThreadSnapshot> {
    let logs: Vec<Arc<ThreadLog>> = lock_ignore_poison(registry()).clone();
    let mut out: Vec<ThreadSnapshot> = logs
        .iter()
        .map(|log| ThreadSnapshot {
            tid: log.tid,
            name: log.name.clone(),
            events: lock_ignore_poison(&log.events).clone(),
        })
        .collect();
    out.sort_by_key(|t| t.tid);
    out
}

/// Drops every recorded event (thread registrations and ids survive).
pub fn reset() {
    for log in lock_ignore_poison(registry()).iter() {
        lock_ignore_poison(&log.events).clear();
    }
}
