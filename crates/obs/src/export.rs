//! Exporters over a recorder snapshot: Chrome trace-event JSON, a
//! JSON-lines event stream, the Prometheus text exposition of a
//! [`MetricsSnapshot`], and the merged client+server request-trace view.

use crate::metrics::{MetricValue, MetricsSnapshot};
use crate::recorder::{EventKind, FieldValue, ThreadSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes a string for embedding in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn args_json(fields: &[(&'static str, FieldValue)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", escape_json(k), v.to_json());
    }
    out.push('}');
    out
}

/// Renders a snapshot as Chrome trace-event JSON (the "JSON Object
/// Format"): load the file in `chrome://tracing` or
/// <https://ui.perfetto.dev>. Every recorder thread becomes its own
/// named track; span begin/end pairs become `B`/`E` duration events and
/// instant events become `i`.
pub fn chrome_trace_json(threads: &[ThreadSnapshot]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut push = |s: String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        out.push_str(&s);
        *first = false;
    };
    for t in threads {
        push(
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                t.tid,
                escape_json(&t.name)
            ),
            &mut first,
        );
        // Replay the thread's nesting so every `E` names the span its
        // matching `B` opened (Perfetto tolerates anonymous ends, but
        // named ones survive re-sorting and partial loads better).
        let mut stack: Vec<(&'static str, &'static str)> = Vec::new();
        for e in &t.events {
            match e.kind {
                EventKind::Begin => {
                    stack.push((e.cat, e.name));
                    push(
                        format!(
                            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"B\",\"ts\":{},\
                             \"pid\":1,\"tid\":{},\"args\":{}}}",
                            escape_json(e.name),
                            escape_json(e.cat),
                            e.ts_us,
                            t.tid,
                            args_json(&e.fields)
                        ),
                        &mut first,
                    );
                }
                EventKind::End => {
                    let (cat, name) = stack.pop().unwrap_or(("", ""));
                    push(
                        format!(
                            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"E\",\"ts\":{},\
                             \"pid\":1,\"tid\":{},\"args\":{}}}",
                            escape_json(name),
                            escape_json(cat),
                            e.ts_us,
                            t.tid,
                            args_json(&e.fields)
                        ),
                        &mut first,
                    );
                }
                EventKind::Instant => {
                    push(
                        format!(
                            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\
                             \"ts\":{},\"pid\":1,\"tid\":{},\"args\":{}}}",
                            escape_json(e.name),
                            escape_json(e.cat),
                            e.ts_us,
                            t.tid,
                            args_json(&e.fields)
                        ),
                        &mut first,
                    );
                }
            }
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Renders a snapshot as a JSON-lines event stream: one self-contained
/// JSON object per event, carrying the thread id/name, kind, category,
/// name, timestamp, and fields. Grep-friendly and trivially parseable.
pub fn jsonl(threads: &[ThreadSnapshot]) -> String {
    let mut out = String::new();
    for t in threads {
        for e in &t.events {
            let kind = match e.kind {
                EventKind::Begin => "begin",
                EventKind::End => "end",
                EventKind::Instant => "instant",
            };
            let _ = writeln!(
                out,
                "{{\"tid\":{},\"thread\":\"{}\",\"kind\":\"{}\",\"cat\":\"{}\",\
                 \"name\":\"{}\",\"ts_us\":{},\"fields\":{}}}",
                t.tid,
                escape_json(&t.name),
                kind,
                escape_json(e.cat),
                escape_json(e.name),
                e.ts_us,
                args_json(&e.fields)
            );
        }
    }
    out
}

// ---- Prometheus text exposition ----

/// Maps a dotted metric name onto the Prometheus name grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): dots and any other illegal characters
/// become underscores.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    out
}

/// Renders a [`MetricsSnapshot`] in the Prometheus text exposition
/// format (version 0.0.4), ready to serve from a `/metrics` endpoint or
/// dump with `obstop --prom`:
///
/// * counters become `<name>_total` with `# TYPE ... counter`;
/// * gauges keep their name with `# TYPE ... gauge`;
/// * histograms export as summaries — `{quantile="0.5|0.9|0.99|0.999"}`
///   sample lines plus `_sum`, `_count`, and a `_max` gauge (the exact
///   maximum, which the log-scale buckets cannot reconstruct);
/// * the snapshot itself contributes `offload_snapshot_seq` and
///   `offload_uptime_microseconds` gauges so scrapers can order
///   snapshots and detect restarts.
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# TYPE offload_snapshot_seq gauge");
    let _ = writeln!(out, "offload_snapshot_seq {}", snap.seq);
    let _ = writeln!(out, "# TYPE offload_uptime_microseconds gauge");
    let _ = writeln!(out, "offload_uptime_microseconds {}", snap.uptime_us);
    for (name, value) in &snap.entries {
        let name = prom_name(name);
        match value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "# TYPE {name}_total counter");
                let _ = writeln!(out, "{name}_total {v}");
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "{name} {v}");
            }
            MetricValue::Histogram(h) => {
                let _ = writeln!(out, "# TYPE {name} summary");
                let _ = writeln!(out, "{name}{{quantile=\"0.5\"}} {}", h.p50);
                let _ = writeln!(out, "{name}{{quantile=\"0.9\"}} {}", h.p90);
                let _ = writeln!(out, "{name}{{quantile=\"0.99\"}} {}", h.p99);
                let _ = writeln!(out, "{name}{{quantile=\"0.999\"}} {}", h.p999);
                let _ = writeln!(out, "{name}_sum {}", h.sum);
                let _ = writeln!(out, "{name}_count {}", h.count);
                let _ = writeln!(out, "# TYPE {name}_max gauge");
                let _ = writeln!(out, "{name}_max {}", h.max);
            }
        }
    }
    out
}

// ---- merged client+server request traces ----

/// One completed begin/end span pair, reconstructed from a thread's
/// event timeline (begin and end fields merged).
#[derive(Debug, Clone)]
pub struct CompletedSpan {
    /// Recorder thread id the span ran on.
    pub tid: u32,
    /// Span category.
    pub cat: &'static str,
    /// Span name.
    pub name: &'static str,
    /// Begin timestamp, microseconds since the recording epoch.
    pub begin_us: u64,
    /// End timestamp.
    pub end_us: u64,
    /// Begin fields followed by end fields.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl CompletedSpan {
    /// The span's `key` field as an unsigned integer, if present.
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        self.fields
            .iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| match v {
                FieldValue::U64(v) => Some(*v),
                FieldValue::I64(v) if *v >= 0 => Some(*v as u64),
                _ => None,
            })
    }
}

/// Replays every thread's begin/end nesting into a flat list of
/// completed spans (unclosed spans are dropped).
pub fn completed_spans(threads: &[ThreadSnapshot]) -> Vec<CompletedSpan> {
    let mut out = Vec::new();
    for t in threads {
        let mut stack: Vec<CompletedSpan> = Vec::new();
        for e in &t.events {
            match e.kind {
                EventKind::Begin => stack.push(CompletedSpan {
                    tid: t.tid,
                    cat: e.cat,
                    name: e.name,
                    begin_us: e.ts_us,
                    end_us: e.ts_us,
                    fields: e.fields.clone(),
                }),
                EventKind::End => {
                    if let Some(mut span) = stack.pop() {
                        span.end_us = e.ts_us;
                        span.fields.extend(e.fields.iter().cloned());
                        out.push(span);
                    }
                }
                EventKind::Instant => {}
            }
        }
    }
    out
}

/// One phase of a reconstructed request tree.
struct Phase {
    name: String,
    begin_us: u64,
    end_us: u64,
}

/// Renders a snapshot as a Chrome trace where, alongside the raw
/// per-thread tracks (pid 1), every *traced request* gets its own track
/// (pid 2) showing the request's phases as one causally-nested tree:
///
/// ```text
/// client_request [c0 ........................................ c3]
///   client_send      [c0 ........ s0]
///   server_batch                  [s0 ... s1]
///   client_receive                          [s1 ........... c3]
/// ```
///
/// A request is "traced" when a client-side span carries a `trace_id`
/// field; server-side spans tagged with the same `trace_id` (their names
/// start with `server_`) are folded into the request's track after
/// shifting their timestamps by `server_clock_offset_us` — the
/// client-clock-minus-server-clock estimate from the handshake or a
/// stats ping. Loopback runs share one epoch, so the offset is ~0; a
/// genuinely remote server's snapshot merges the same way with its
/// estimated offset. Server phases are clamped into the client span so
/// nesting stays valid even when the offset estimate is off by more
/// than the network jitter.
pub fn merged_trace_json(threads: &[ThreadSnapshot], server_clock_offset_us: i64) -> String {
    // Raw tracks first (pid 1): identical to `chrome_trace_json` but
    // embedded in the same JSON document.
    let raw = chrome_trace_json(threads);
    let raw_events = raw
        .strip_prefix("{\"traceEvents\":[")
        .and_then(|s| s.strip_suffix("],\"displayTimeUnit\":\"ms\"}"))
        .unwrap_or("");

    // Group completed spans by trace id; apply the clock offset to the
    // server-side ones so both sides share the client timeline.
    let mut traces: BTreeMap<u64, Vec<CompletedSpan>> = BTreeMap::new();
    for mut span in completed_spans(threads) {
        let Some(trace_id) = span.field_u64("trace_id") else {
            continue;
        };
        if trace_id == 0 {
            continue;
        }
        if span.name.starts_with("server_") {
            let shift = |t: u64| (t as i64).saturating_add(server_clock_offset_us).max(0) as u64;
            span.begin_us = shift(span.begin_us);
            span.end_us = shift(span.end_us);
        }
        traces.entry(trace_id).or_default().push(span);
    }

    let mut out = String::from("{\"traceEvents\":[");
    out.push_str(raw_events);
    let mut first = raw_events.is_empty();
    let push = |out: &mut String, s: String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        out.push_str(&s);
        *first = false;
    };

    for (track, (trace_id, mut spans)) in traces.into_iter().enumerate() {
        spans.sort_by_key(|s| s.begin_us);
        let client = spans.iter().find(|s| !s.name.starts_with("server_"));
        let Some(client) = client.cloned() else {
            continue; // server-only trace: raw tracks already show it
        };
        let (c0, c3) = (client.begin_us, client.end_us);
        let clamp = |t: u64| t.clamp(c0, c3);

        // Sequential phases inside the client request span.
        let mut phases: Vec<Phase> = Vec::new();
        let mut cursor = c0;
        for s in spans.iter().filter(|s| s.name.starts_with("server_")) {
            let (b, e) = (clamp(s.begin_us), clamp(s.end_us.max(s.begin_us)));
            if s.name == "server_batch" || s.name == "server_analyze" {
                // The client->server wire segment precedes the server's
                // handling span. It always appears (possibly zero-width
                // on a loopback where µs timestamps collapse): viewers
                // then show the full causal chain for every request.
                phases.push(Phase {
                    name: "client_send".to_string(),
                    begin_us: cursor,
                    end_us: b.max(cursor),
                });
            }
            phases.push(Phase {
                name: s.name.to_string(),
                begin_us: b.max(cursor),
                end_us: e.max(cursor),
            });
            cursor = e.max(cursor);
        }
        // Always emitted, even zero-width (loopback timestamps often
        // collapse it): the causal chain stays complete in the viewer.
        phases.push(Phase {
            name: "client_receive".to_string(),
            begin_us: cursor,
            end_us: c3.max(cursor),
        });

        let tid = track as u64 + 1;
        push(
            &mut out,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":{tid},\
                 \"args\":{{\"name\":\"trace {trace_id:#018x}\"}}}}"
            ),
            &mut first,
        );
        push(
            &mut out,
            format!(
                "{{\"name\":\"client_request\",\"cat\":\"trace\",\"ph\":\"B\",\"ts\":{c0},\
                 \"pid\":2,\"tid\":{tid},\"args\":{}}}",
                args_json(&client.fields)
            ),
            &mut first,
        );
        for p in &phases {
            push(
                &mut out,
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"trace\",\"ph\":\"B\",\"ts\":{},\
                     \"pid\":2,\"tid\":{tid},\"args\":{{\"trace_id\":{trace_id}}}}}",
                    escape_json(&p.name),
                    p.begin_us,
                ),
                &mut first,
            );
            push(
                &mut out,
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"trace\",\"ph\":\"E\",\"ts\":{},\
                     \"pid\":2,\"tid\":{tid},\"args\":{{}}}}",
                    escape_json(&p.name),
                    p.end_us,
                ),
                &mut first,
            );
        }
        push(
            &mut out,
            format!(
                "{{\"name\":\"client_request\",\"cat\":\"trace\",\"ph\":\"E\",\"ts\":{c3},\
                 \"pid\":2,\"tid\":{tid},\"args\":{{}}}}"
            ),
            &mut first,
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}
