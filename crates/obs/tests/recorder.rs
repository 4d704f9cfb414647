//! Recorder and metrics behaviour: span nesting across scoped worker
//! threads, histogram percentile accuracy, Chrome-trace JSON validity,
//! and the disabled-path overhead bound.
//!
//! The recorder is process-global, so every test that records or resets
//! serializes on one mutex.

use offload_obs::{
    counter, event, export, histogram, reset, set_enabled, snapshot, span, EventKind,
};
use std::sync::Mutex;

static RECORDER_LOCK: Mutex<()> = Mutex::new(());

fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn spans_nest_across_scoped_workers() {
    let _guard = exclusive();
    set_enabled(true);
    reset();

    {
        let mut outer = span!("test", "outer", workers = 3u64,);
        std::thread::scope(|s| {
            for i in 0..3u64 {
                s.spawn(move || {
                    let _w = span!("test", "worker", index = i,);
                    let _inner = span!("test", "inner_unit");
                });
            }
        });
        outer.record("done", true);
    }

    set_enabled(false);
    let spans = export::completed_spans(&snapshot());
    let count = |cat: &str, name: &str| {
        spans
            .iter()
            .filter(|s| s.cat == cat && s.name == name)
            .count()
    };
    assert_eq!(count("test", "outer"), 1);
    assert_eq!(count("test", "worker"), 3);
    assert_eq!(count("test", "inner_unit"), 3);

    // Each worker thread holds its own shard: a worker span and its
    // nested inner span land on the same timeline in begin/begin/end/end
    // order, never interleaved with another worker's events.
    let threads = snapshot();
    let worker_threads: Vec<_> = threads
        .iter()
        .filter(|t| t.events.iter().any(|e| e.name == "worker"))
        .collect();
    assert_eq!(worker_threads.len(), 3, "one shard per scoped worker");
    for t in worker_threads {
        let kinds: Vec<EventKind> = t.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Begin,
                EventKind::Begin,
                EventKind::End,
                EventKind::End
            ],
            "thread {} events are properly nested",
            t.name
        );
    }
    reset();
}

#[test]
fn end_fields_attach_to_the_end_event() {
    let _guard = exclusive();
    set_enabled(true);
    reset();
    {
        let mut s = span!("test", "recorded", input = 7u64,);
        s.record("output", 21u64);
    }
    set_enabled(false);
    let threads = snapshot();
    let events: Vec<_> = threads.iter().flat_map(|t| &t.events).collect();
    let begin = events
        .iter()
        .find(|e| e.kind == EventKind::Begin)
        .expect("begin");
    let end = events
        .iter()
        .find(|e| e.kind == EventKind::End)
        .expect("end");
    assert!(begin.fields.iter().any(|(k, _)| *k == "input"));
    assert!(end.fields.iter().any(|(k, _)| *k == "output"));
    reset();
}

#[test]
fn histogram_percentiles_on_known_distribution() {
    // 1..=1000 uniformly: every estimate must respect the power-of-two
    // bucket guarantee (within 2x of the true percentile).
    let h = histogram("test.uniform_1k");
    for v in 1..=1000u64 {
        h.record(v);
    }
    let s = h.summary();
    assert_eq!(s.count, 1000);
    assert_eq!(s.sum, 500_500);
    assert_eq!(s.max, 1000);
    for (est, truth) in [(s.p50, 500u64), (s.p90, 900), (s.p99, 990), (s.p999, 999)] {
        assert!(
            est >= truth / 2 && est <= truth * 2,
            "estimate {est} not within 2x of true percentile {truth}"
        );
    }
    // Monotone: p50 <= p90 <= p99 <= p999 <= max.
    assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.p999 && s.p999 <= s.max);

    // A point mass lands exactly on its bucket's range.
    let h = histogram("test.point_mass");
    for _ in 0..100 {
        h.record(64);
    }
    let s = h.summary();
    assert_eq!(s.max, 64);
    for q in [s.p50, s.p90, s.p99, s.p999] {
        assert!(
            (64..128).contains(&q),
            "point mass quantile {q} outside its bucket"
        );
    }
}

#[test]
fn counters_accumulate() {
    let c = counter("test.counter");
    let before = c.get();
    c.inc();
    c.add(9);
    assert_eq!(counter("test.counter").get(), before + 10);
}

/// A minimal JSON validator: walks the value grammar and returns the
/// rest of the input. Strict enough to catch unbalanced brackets,
/// missing commas/colons, and unescaped control characters.
fn skip_json(s: &[u8], mut i: usize) -> Result<usize, String> {
    fn ws(s: &[u8], mut i: usize) -> usize {
        while i < s.len() && (s[i] as char).is_ascii_whitespace() {
            i += 1;
        }
        i
    }
    i = ws(s, i);
    let Some(&c) = s.get(i) else {
        return Err("eof".into());
    };
    match c {
        b'{' | b'[' => {
            let close = if c == b'{' { b'}' } else { b']' };
            i += 1;
            i = ws(s, i);
            if s.get(i) == Some(&close) {
                return Ok(i + 1);
            }
            loop {
                if c == b'{' {
                    i = skip_json(s, i)?; // key
                    i = ws(s, i);
                    if s.get(i) != Some(&b':') {
                        return Err(format!("expected ':' at {i}"));
                    }
                    i += 1;
                }
                i = skip_json(s, i)?;
                i = ws(s, i);
                match s.get(i) {
                    Some(&b',') => i += 1,
                    Some(&x) if x == close => return Ok(i + 1),
                    other => return Err(format!("expected ',' or close at {i}: {other:?}")),
                }
            }
        }
        b'"' => {
            i += 1;
            while let Some(&b) = s.get(i) {
                match b {
                    b'"' => return Ok(i + 1),
                    b'\\' => i += 2,
                    0x00..=0x1f => return Err(format!("raw control byte at {i}")),
                    _ => i += 1,
                }
            }
            Err("unterminated string".into())
        }
        b't' => s[i..]
            .starts_with(b"true")
            .then(|| i + 4)
            .ok_or("bad literal".into()),
        b'f' => s[i..]
            .starts_with(b"false")
            .then(|| i + 5)
            .ok_or("bad literal".into()),
        b'n' => s[i..]
            .starts_with(b"null")
            .then(|| i + 4)
            .ok_or("bad literal".into()),
        _ => {
            let start = i;
            while i < s.len() && matches!(s[i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
                i += 1;
            }
            if i == start {
                Err(format!("unexpected byte {c} at {i}"))
            } else {
                Ok(i)
            }
        }
    }
}

fn assert_valid_json(text: &str) {
    let bytes = text.as_bytes();
    let end = skip_json(bytes, 0).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{text}"));
    assert!(
        bytes[end..]
            .iter()
            .all(|b| (*b as char).is_ascii_whitespace()),
        "trailing garbage after JSON document"
    );
}

#[test]
fn chrome_trace_is_valid_json_with_required_fields() {
    let _guard = exclusive();
    set_enabled(true);
    reset();
    {
        let _a = span!("alpha", "outer", note = "quote \" backslash \\ newline \n",);
        let _b = span!("beta", "inner", n = 3u64,);
        event!("gamma", "ping", ok = true,);
    }
    set_enabled(false);
    let threads = snapshot();
    let json = export::chrome_trace_json(&threads);
    assert_valid_json(&json);
    // Chrome's JSON Object Format essentials.
    assert!(json.starts_with("{\"traceEvents\":["));
    for key in [
        "\"ph\":\"B\"",
        "\"ph\":\"E\"",
        "\"ph\":\"i\"",
        "\"ph\":\"M\"",
    ] {
        assert!(json.contains(key), "missing {key}");
    }
    for key in [
        "\"pid\":",
        "\"tid\":",
        "\"ts\":",
        "\"cat\":\"alpha\"",
        "\"cat\":\"beta\"",
    ] {
        assert!(json.contains(key), "missing {key}");
    }
    // Escapes survived.
    assert!(json.contains("quote \\\" backslash \\\\ newline \\n"));

    // The JSON-lines exporter parses line by line.
    for line in export::jsonl(&threads).lines() {
        assert_valid_json(line);
    }
    reset();
}

#[test]
fn disabled_recorder_costs_nanoseconds() {
    let _guard = exclusive();
    set_enabled(false);
    const N: u32 = 200_000;
    let start = std::time::Instant::now();
    for _ in 0..N {
        let g = span!("test", "off");
        std::hint::black_box(&g);
    }
    let per_call = start.elapsed().as_nanos() as f64 / f64::from(N);
    // One relaxed atomic load. Generous bound (debug builds, loaded CI
    // machines): a microsecond per call would still pass, real cost is
    // single-digit nanoseconds.
    assert!(per_call < 1000.0, "disabled span cost {per_call} ns/call");
}

#[test]
fn metric_totals_equal_across_thread_counts() {
    // The same work split over 1 vs 4 threads must complete the same
    // number of spans (wall time differs, counts never do).
    let _guard = exclusive();
    let run = |threads: usize| {
        set_enabled(true);
        reset();
        let per = 12 / threads;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(move || {
                    for _ in 0..per {
                        let _u = span!("test", "unit");
                        counter("test.units").inc();
                    }
                });
            }
        });
        set_enabled(false);
        let units = export::completed_spans(&snapshot())
            .iter()
            .filter(|s| s.cat == "test" && s.name == "unit")
            .count() as u64;
        (units, counter("test.units").get())
    };
    let (count1, units1) = run(1);
    let (count4, units4) = run(4);
    assert_eq!(count1, 12);
    assert_eq!(count4, 12);
    assert_eq!(units4 - units1, 12, "counter delta identical per run");
    reset();
}
