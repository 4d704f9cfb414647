//! Solve-time benchmark of the region-exploration engine.
//!
//! Runs the full parametric analysis of each selected benchmark, prints a
//! table of solve times with the unified [`PipelineStats`] counters, and
//! writes a machine-readable `BENCH_solve.json`.
//!
//! ```text
//! cargo run --release -p offload-bench --bin solvebench [flags] [names...]
//! ```
//!
//! Flags:
//!
//! * `--json` — print the machine-readable report (the same document
//!   written to `BENCH_solve.json`) to stdout and nothing else, so
//!   scripts can consume stdout directly instead of scraping tables;
//! * `--trace <path>` — enable the `offload-obs` recorder and write a
//!   Chrome trace-event JSON file to `path` (open it in
//!   `chrome://tracing` or <https://ui.perfetto.dev>);
//! * `--repeat <n>` — solve each benchmark `n` times and report the
//!   fastest wall time (best-of-`n` suppresses scheduler and cache-state
//!   noise when recording checked-in numbers; every re-run must
//!   reproduce the first run's choices, default 1).
//!
//! Defaults to the lighter benchmarks (`rawcaudio`, `rawdaudio`, `fft`);
//! pass names to override. Environment:
//!
//! * `SOLVEBENCH_OUT` — output path (default `BENCH_solve.json`).

use offload_benchmarks::all;
use offload_core::{Analysis, PassReport, PipelineStats};
use offload_runtime::{DeviceModel, Simulator};
use std::time::Instant;

struct Row {
    name: &'static str,
    strategy: &'static str,
    /// Best-of-`--repeat` solve time, under the key CI's floor gate and
    /// `BENCH_baseline.json` read.
    seq_ms: f64,
    choices: usize,
    /// Sequential time of the checked-in `BENCH_baseline.json` divided by
    /// this run's sequential time; `None` when the baseline file is
    /// missing or does not cover this benchmark.
    speedup_vs_baseline: Option<f64>,
    seq_pipeline: PipelineStats,
    /// Per-pass structured reports of the first run.
    passes: Vec<PassReport>,
}

fn analyze_timed(
    bench: &offload_benchmarks::Benchmark,
) -> Result<(Analysis, f64), Box<dyn std::error::Error>> {
    let start = Instant::now();
    let analysis = bench.analyze()?;
    Ok((analysis, start.elapsed().as_secs_f64() * 1e3))
}

/// One record as a JSON object, every declared counter in declaration
/// order.
fn json_pipeline(p: &PipelineStats) -> String {
    let fields: Vec<String> = p.entries().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", fields.join(","))
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// One benchmark's per-pass reports as a JSON array (name, wall time,
/// counters, warnings — the `Analysis::pass_reports` surface).
fn json_passes(reports: &[PassReport]) -> String {
    let rows: Vec<String> = reports
        .iter()
        .map(|r| {
            let counters: Vec<String> = r
                .counters
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            let warnings: Vec<String> = r
                .warnings
                .iter()
                .map(|w| format!("\"{}\"", json_escape(w)))
                .collect();
            format!(
                "{{\"pass\":\"{}\",\"micros\":{},\"counters\":{{{}}},\"warnings\":[{}]}}",
                r.pass,
                r.micros,
                counters.join(","),
                warnings.join(",")
            )
        })
        .collect();
    format!("[{}]", rows.join(","))
}

/// Reads one benchmark's sequential time out of the checked-in baseline
/// report without a JSON dependency: locates `"name":"<name>"` and takes
/// the first `"seq_ms":` value after it.
fn baseline_seq_ms(baseline: &str, name: &str) -> Option<f64> {
    let at = baseline.find(&format!("\"name\":\"{name}\""))?;
    let rest = &baseline[at..];
    let at = rest.find("\"seq_ms\":")?;
    let rest = &rest[at + "\"seq_ms\":".len()..];
    let end = rest
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Measures the cost of one *disabled* span site: the price every
/// instrumented call pays when tracing is off. This is the recorder's
/// overhead budget — a handful of nanoseconds (one relaxed atomic load)
/// per site, far below 3% of any solve.
fn disabled_span_ns() -> f64 {
    assert!(!offload_obs::enabled(), "probe must run with tracing off");
    const N: u64 = 1_000_000;
    let start = Instant::now();
    for _ in 0..N {
        let g = offload_obs::span!("bench", "disabled_probe");
        std::hint::black_box(&g);
    }
    start.elapsed().as_nanos() as f64 / N as f64
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut json_mode = false;
    let mut trace_path: Option<String> = None;
    let mut repeat: usize = 1;
    let mut selected: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json_mode = true,
            "--trace" => {
                trace_path = Some(args.next().ok_or("--trace requires a path")?);
            }
            "--repeat" => {
                repeat = args
                    .next()
                    .ok_or("--repeat requires a count")?
                    .parse()
                    .map_err(|_| "--repeat requires a positive integer")?;
                if repeat == 0 {
                    return Err("--repeat requires a positive integer".into());
                }
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other}").into());
            }
            name => selected.push(name.to_string()),
        }
    }
    let default_set = ["rawcaudio", "rawdaudio", "fft"];
    let out_path = std::env::var("SOLVEBENCH_OUT").unwrap_or_else(|_| "BENCH_solve.json".into());
    let baseline_path =
        std::env::var("SOLVEBENCH_BASELINE").unwrap_or_else(|_| "BENCH_baseline.json".into());
    let baseline = std::fs::read_to_string(&baseline_path).ok();
    if baseline.is_none() {
        eprintln!("note: no baseline at {baseline_path}; speedup_vs_baseline will be null");
    }

    // Calibrate the disabled-site cost before any tracing turns on.
    let disabled_ns = disabled_span_ns();
    if trace_path.is_some() {
        offload_obs::set_enabled(true);
    }

    let mut rows: Vec<Row> = Vec::new();
    for b in all() {
        let wanted = if selected.is_empty() {
            default_set.contains(&b.name)
        } else {
            selected.iter().any(|s| s == b.name)
        };
        if !wanted {
            continue;
        }
        eprintln!("solving {} ...", b.name);
        let (seq, mut seq_ms) = analyze_timed(&b)?;
        for _ in 1..repeat {
            let (again, t) = analyze_timed(&b)?;
            assert!(
                again.partition.choices == seq.partition.choices,
                "{}: re-run diverged",
                b.name
            );
            seq_ms = seq_ms.min(t);
        }
        if trace_path.is_some() {
            // Exercise the dispatcher and executor too, so the trace
            // carries the runtime category next to flow/poly/parametric.
            let idx = seq.select(&b.default_params)?;
            let input = (b.make_input)(&b.default_params);
            let sim = Simulator::new(&seq, DeviceModel::ipaq_testbed());
            sim.run_choice(idx, &b.default_params, &input)
                .map_err(|e| format!("{}: traced run failed: {e}", b.name))?;
        }
        let strategy = match b.region_strategy() {
            offload_core::RegionStrategy::Dominance => "dominance",
            _ => "exact",
        };
        rows.push(Row {
            name: b.name,
            strategy,
            seq_ms,
            choices: seq.partition.choices.len(),
            speedup_vs_baseline: baseline
                .as_deref()
                .and_then(|base| baseline_seq_ms(base, b.name))
                .map(|base_ms| base_ms / seq_ms),
            seq_pipeline: seq.pipeline_stats(),
            passes: seq.pass_reports().to_vec(),
        });
    }

    // Recorder accounting: how many span sites actually fired, and what
    // the same sites would have cost with tracing disabled.
    let mut spans_recorded = 0u64;
    if trace_path.is_some() {
        for t in offload_obs::snapshot() {
            spans_recorded += t
                .events
                .iter()
                .filter(|e| matches!(e.kind, offload_obs::EventKind::Begin))
                .count() as u64;
        }
    }
    let solve_wall_ms: f64 = rows.iter().map(|r| r.seq_ms).sum();
    let disabled_overhead_pct = if solve_wall_ms > 0.0 {
        (spans_recorded as f64 * disabled_ns) / (solve_wall_ms * 1e6) * 100.0
    } else {
        0.0
    };

    if !json_mode {
        println!(
            "{:<10} {:<9} {:>8} {:>10} {:>8}",
            "benchmark", "strategy", "choices", "solve (ms)", "vs-base"
        );
        for r in &rows {
            println!(
                "{:<10} {:<9} {:>8} {:>10.1} {:>8}",
                r.name,
                r.strategy,
                r.choices,
                r.seq_ms,
                r.speedup_vs_baseline
                    .map(|s| format!("{s:.2}x"))
                    .unwrap_or_else(|| "-".into()),
            );
        }
        for r in &rows {
            println!("\n{} pipeline:\n{}", r.name, r.seq_pipeline);
        }
        for r in &rows {
            println!("\n{} passes:", r.name);
            println!("{:<12} {:>10}  counters", "pass", "micros");
            for p in &r.passes {
                let counters: Vec<String> =
                    p.counters.iter().map(|(k, v)| format!("{k}={v}")).collect();
                println!("{:<12} {:>10}  {}", p.pass, p.micros, counters.join(" "));
                for w in &p.warnings {
                    println!("{:<12} {:>10}  warning: {w}", "", "");
                }
            }
        }
    }

    let mut json = String::from("{\n  \"recorder\": ");
    json.push_str(&format!(
        concat!(
            "{{\"disabled_ns_per_span\":{:.2},\"spans_recorded\":{},",
            "\"disabled_overhead_pct\":{:.4}}}"
        ),
        disabled_ns, spans_recorded, disabled_overhead_pct,
    ));
    // The counters the determinism contract covers, so consumers compare
    // exactly the declared set without keeping their own list.
    let work: Vec<String> = PipelineStats::COUNTERS
        .iter()
        .filter(|c| c.kind.deterministic())
        .map(|c| format!("\"{}\"", c.name))
        .collect();
    json.push_str(&format!(",\n  \"work_counters\": [{}]", work.join(",")));
    json.push_str(",\n  \"benchmarks\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            concat!(
                "    {{\"name\":\"{}\",\"strategy\":\"{}\",\"choices\":{},",
                "\"seq_ms\":{:.3},\"speedup_vs_baseline\":{},",
                "\"seq_pipeline\":{},\"passes\":{}}}{}\n"
            ),
            r.name,
            r.strategy,
            r.choices,
            r.seq_ms,
            r.speedup_vs_baseline
                .map(|s| format!("{s:.3}"))
                .unwrap_or_else(|| "null".into()),
            json_pipeline(&r.seq_pipeline),
            json_passes(&r.passes),
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json)?;

    if let Some(path) = &trace_path {
        let snapshot = offload_obs::snapshot();
        offload_obs::export::write_chrome_trace(path, &snapshot)?;
        eprintln!(
            "wrote {path} ({spans_recorded} spans; open in chrome://tracing or ui.perfetto.dev)"
        );
        eprint!("{}", offload_obs::export::summary_tree(&snapshot));
    }
    if json_mode {
        print!("{json}");
        eprintln!("wrote {out_path}");
    } else {
        println!("\nwrote {out_path}");
    }
    Ok(())
}
