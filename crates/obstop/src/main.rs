//! `obstop` — a live terminal view of a running offload dispatch server.
//!
//! Polls the server's `StatsRequest` endpoint over the same wire
//! protocol the dispatch clients use and renders a refreshing dashboard:
//! dispatch QPS (computed from counter deltas between successive
//! snapshots), per-stage latency percentiles, plan-cache hit rates,
//! connection/session gauges, and the server's slow-request ring.
//!
//! ```text
//! obstop --addr 127.0.0.1:7070                # live view, 1s refresh
//! obstop --addr ... --interval 0.5 --count 10 # 10 refreshes, then exit
//! obstop --addr ... --once                    # one human-readable page
//! obstop --addr ... --once --json             # one JSON snapshot
//! obstop --addr ... --prom                    # Prometheus exposition text
//! ```
//!
//! `--json` and `--prom` imply `--once`; both print to stdout and exit,
//! so they compose with shell pipelines and CI checks.

#![forbid(unsafe_code)]

use offload_net::{ClientConfig, DispatchClient, SlowRequest, StatsView};
use offload_obs::MetricValue;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

fn main() {
    let mut addr = "127.0.0.1:7070".to_string();
    let mut interval = 1.0f64;
    let mut count = 0u64;
    let mut once = false;
    let mut json = false;
    let mut prom = false;
    let mut args = std::env::args().skip(1);
    let fail = |msg: String| -> ! {
        eprintln!("obstop: {msg}");
        std::process::exit(2);
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => {
                addr = args
                    .next()
                    .unwrap_or_else(|| fail("--addr requires HOST:PORT".into()));
            }
            "--interval" => {
                interval = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--interval requires seconds".into()));
            }
            "--count" => {
                count = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--count requires a number".into()));
            }
            "--once" => once = true,
            "--json" => json = true,
            "--prom" => prom = true,
            other => fail(format!(
                "unknown flag {other} (try --addr/--interval/--count/--once/--json/--prom)"
            )),
        }
    }
    if json || prom {
        once = true;
    }

    let config = ClientConfig::new(addr.clone());
    let mut client = match DispatchClient::connect(&config) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("obstop: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    // The scraper itself must not show up in the server's trace plane.
    client.set_trace_interval(0);

    let mut prev: Option<StatsView> = None;
    let mut shown = 0u64;
    loop {
        let view = match client.stats() {
            Ok(v) => v,
            Err(e) => {
                eprintln!("obstop: scrape failed: {e}");
                std::process::exit(1);
            }
        };
        if prom {
            print!("{}", offload_obs::export::prometheus_text(&view.snapshot));
            return;
        }
        if json {
            print!("{}", render_json(&view));
            return;
        }
        if !once && shown > 0 {
            // Cursor home + clear to end of screen: repaint in place.
            print!("\x1b[H\x1b[J");
        }
        print!("{}", render_human(&addr, &view, prev.as_ref()));
        prev = Some(view);
        shown += 1;
        if once || (count > 0 && shown >= count) {
            return;
        }
        std::thread::sleep(Duration::from_secs_f64(interval.max(0.05)));
    }
}

/// Microseconds, humanized.
fn fmt_us(us: u64) -> String {
    match us {
        0..=9_999 => format!("{us}µs"),
        10_000..=9_999_999 => format!("{:.1}ms", us as f64 / 1e3),
        _ => format!("{:.2}s", us as f64 / 1e6),
    }
}

/// A counter's per-second rate between two snapshots, if computable.
fn rate(cur: &StatsView, prev: Option<&StatsView>, name: &str) -> Option<f64> {
    let prev = prev?;
    // A lower sequence number means the server restarted: no valid delta.
    if prev.snapshot.seq >= cur.snapshot.seq {
        return None;
    }
    let dt_us = cur
        .snapshot
        .uptime_us
        .checked_sub(prev.snapshot.uptime_us)?;
    if dt_us == 0 {
        return None;
    }
    let dv = cur
        .snapshot
        .counter(name)?
        .checked_sub(prev.snapshot.counter(name)?)?;
    Some(dv as f64 * 1e6 / dt_us as f64)
}

fn fmt_rate(r: Option<f64>) -> String {
    match r {
        Some(r) if r >= 100.0 => format!("{r:.0}/s"),
        Some(r) => format!("{r:.1}/s"),
        None => "–".to_string(),
    }
}

fn hit_rate(hits: u64, misses: u64) -> String {
    let total = hits + misses;
    if total == 0 {
        "–".to_string()
    } else {
        format!("{:.1}%", hits as f64 * 100.0 / total as f64)
    }
}

/// The dashboard page.
fn render_human(addr: &str, view: &StatsView, prev: Option<&StatsView>) -> String {
    let s = &view.snapshot;
    let c = |n: &str| s.counter(n).unwrap_or(0);
    let g = |n: &str| s.gauge(n).unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "obstop · {addr} · seq {} · up {} · offset {:+}µs · rtt {}",
        s.seq,
        fmt_us(s.uptime_us),
        view.clock_offset_us,
        fmt_us(view.rtt_us),
    );
    let errors = c("net.server.dispatch_errors")
        + c("net.server.analyze_errors")
        + c("net.server.protocol_errors");
    let _ = writeln!(
        out,
        "dispatch   {} points ({}) · {} batches ({}) · {} analyzes · {errors} errors",
        c("net.server.dispatch_points"),
        fmt_rate(rate(view, prev, "net.server.dispatch_points")),
        c("net.server.batches"),
        fmt_rate(rate(view, prev, "net.server.batches")),
        c("net.server.analyze_requests"),
    );
    for (label, name) in [
        ("batch   ", "net.server.batch_us"),
        ("select  ", "net.server.select_us"),
        ("reply   ", "net.server.reply_us"),
    ] {
        if let Some(h) = s.histogram(name) {
            let _ = writeln!(
                out,
                "{label}   p50 {:>7} · p90 {:>7} · p99 {:>7} · p999 {:>7} · max {:>7} · n {}",
                fmt_us(h.p50),
                fmt_us(h.p90),
                fmt_us(h.p99),
                fmt_us(h.p999),
                fmt_us(h.max),
                h.count,
            );
        }
    }
    let _ = writeln!(
        out,
        "cache      analyze {} hit · dispatch {} hit · {} entries",
        hit_rate(c("net.plan_cache.hits"), c("net.plan_cache.misses")),
        hit_rate(
            c("net.plan_cache.dispatch_hits"),
            c("net.plan_cache.dispatch_misses")
        ),
        g("net.plan_cache.entries"),
    );
    let _ = writeln!(
        out,
        "server     {} conns · {} sessions · reaped {} · scrapes {}",
        g("net.server.active_connections"),
        g("net.server.session_threads"),
        c("net.server.idle_reaped"),
        c("net.server.stats_requests"),
    );
    if !view.slow.is_empty() {
        let _ = writeln!(
            out,
            "slowest    {:>18} {:>6} {:>8} {:>8} {:>8}  cache",
            "trace", "points", "select", "reply", "total"
        );
        for r in view.slow.iter().take(8) {
            let _ = writeln!(
                out,
                "           {:#018x} {:>6} {:>8} {:>8} {:>8}  {}",
                r.trace_id,
                r.batch_points,
                fmt_us(r.select_us),
                fmt_us(r.reply_us),
                fmt_us(r.total_us),
                if r.cache_hit { "hit" } else { "miss" },
            );
        }
    }
    out
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn slow_json(r: &SlowRequest) -> String {
    format!(
        concat!(
            "{{\"trace_id\":{},\"batch_points\":{},",
            "\"select_us\":{},\"reply_us\":{},\"total_us\":{},\"cache_hit\":{}}}"
        ),
        r.trace_id, r.batch_points, r.select_us, r.reply_us, r.total_us, r.cache_hit,
    )
}

/// One machine-readable snapshot (the `--once --json` contract the CI
/// gate parses): top-level seq/uptime/offset/rtt, a `metrics` object
/// keyed by registry name, and the slow-request table.
fn render_json(view: &StatsView) -> String {
    let s = &view.snapshot;
    // BTreeMap iteration keeps the output deterministically sorted even
    // if the wire order ever changes.
    let metrics: BTreeMap<&str, String> = s
        .entries
        .iter()
        .map(|(name, v)| {
            let body = match v {
                MetricValue::Counter(c) => format!("{{\"type\":\"counter\",\"value\":{c}}}"),
                MetricValue::Gauge(g) => format!("{{\"type\":\"gauge\",\"value\":{g}}}"),
                MetricValue::Histogram(h) => format!(
                    concat!(
                        "{{\"type\":\"histogram\",\"count\":{},\"sum\":{},",
                        "\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}}}"
                    ),
                    h.count, h.sum, h.max, h.p50, h.p90, h.p99, h.p999,
                ),
            };
            (name.as_str(), body)
        })
        .collect();
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"seq\": {},", s.seq);
    let _ = writeln!(out, "  \"uptime_us\": {},", s.uptime_us);
    let _ = writeln!(out, "  \"clock_offset_us\": {},", view.clock_offset_us);
    let _ = writeln!(out, "  \"rtt_us\": {},", view.rtt_us);
    out.push_str("  \"metrics\": {\n");
    for (i, (name, body)) in metrics.iter().enumerate() {
        let comma = if i + 1 == metrics.len() { "" } else { "," };
        let _ = writeln!(out, "    \"{}\": {body}{comma}", escape(name));
    }
    out.push_str("  },\n  \"slow\": [\n");
    for (i, r) in view.slow.iter().enumerate() {
        let comma = if i + 1 == view.slow.len() { "" } else { "," };
        let _ = writeln!(out, "    {}{comma}", slow_json(r));
    }
    out.push_str("  ]\n}\n");
    out
}
