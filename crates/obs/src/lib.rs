//! # offload-obs — end-to-end tracing and metrics for the offload pipeline
//!
//! A lightweight, zero-dependency observability facade for the whole
//! workspace, hand-rolled like everything else here (no `tokio`, no
//! `tracing`): the analysis pipeline (TCFG → cost annotation → parametric
//! min-cut → polyhedral projection) and the networked runtime both record
//! into it, and three exporters turn the recording into something a human
//! can read.
//!
//! Three pieces:
//!
//! * **Spans** ([`span!`]) — hierarchical, thread-aware begin/end event
//!   pairs recorded into a lock-sharded in-memory [`recorder`]: each
//!   thread appends to its own buffer under its own lock, so workers
//!   never contend with each other. Timestamps are monotonic microseconds
//!   since the process-wide recording epoch. When recording is disabled
//!   (the default) a span costs one relaxed atomic load — the hot solver
//!   loops stay within their < 3 % overhead budget.
//! * **Metrics** ([`counter`], [`gauge`], [`histogram`]) — a process-wide
//!   registry of named counters, gauges, and log-scale latency histograms
//!   with p50/p90/p99 summaries. The per-solve [`PipelineStats`] record
//!   lives here too: each thread counts into its own ([`tally`]), a
//!   solve measures its work with [`tallied`], and the record publishes
//!   itself into the registry.
//! * **Exporters** ([`export`]) — Chrome trace-event JSON (open it in
//!   `chrome://tracing` or <https://ui.perfetto.dev>, one track per
//!   worker thread), a JSON-lines event stream, and a human-readable
//!   aggregated tree summary.
//!
//! ```
//! offload_obs::set_enabled(true);
//! {
//!     let mut span = offload_obs::span!("demo", "outer", items = 3u64);
//!     let _inner = offload_obs::span!("demo", "inner");
//!     span.record("done", true);
//! }
//! let trace = offload_obs::export::chrome_trace_json(&offload_obs::snapshot());
//! assert!(trace.contains("\"traceEvents\""));
//! offload_obs::set_enabled(false);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
mod metrics;
mod pipeline;
mod recorder;

pub use metrics::{
    counter, gauge, histogram, metrics_snapshot, reset_metrics, Counter, Gauge, Histogram,
    HistogramSummary, MetricValue, MetricsSnapshot,
};
pub use pipeline::{take_tally, tallied, tally, CounterKind, CounterSpec, PipelineStats};
pub use recorder::{
    begin_span, enabled, instant_event, log_event, now_us, reset, set_enabled, snapshot,
    span_summary, Event, EventKind, FieldValue, Level, SpanGuard, SpanStat, SpanSummary,
    ThreadSnapshot,
};

/// Opens a span: `span!("category", "name", key = value, ...)`.
///
/// Returns a [`SpanGuard`] that records the matching end event when
/// dropped; extra fields can be attached to the end event with
/// [`SpanGuard::record`]. Category and name must be string literals (they
/// become the Chrome trace `cat`/`name`); field values are anything
/// convertible into a [`FieldValue`]. When recording is disabled the
/// macro evaluates none of the field expressions and costs one relaxed
/// atomic load.
#[macro_export]
macro_rules! span {
    ($cat:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::begin_span(
                $cat,
                $name,
                vec![$((stringify!($key), $crate::FieldValue::from($value))),*],
            )
        } else {
            $crate::SpanGuard::disabled()
        }
    };
}

/// Records a zero-duration instant event:
/// `event!("category", "name", key = value, ...)`.
///
/// Like [`span!`], field expressions are only evaluated while recording
/// is enabled.
#[macro_export]
macro_rules! event {
    ($cat:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::instant_event(
                $cat,
                $name,
                vec![$((stringify!($key), $crate::FieldValue::from($value))),*],
            );
        }
    };
}
