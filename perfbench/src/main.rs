//! A steady benchmark of the three offloading paths.
//!
//! ```text
//! perfbench --workload compile|dispatch|offload --seed N --seconds S --trace 0|1 [--trace-out FILE]
//! ```
//!
//! * `compile` — source → compiled dispatcher for the six Table 3
//!   programs, in process, in round-robin rounds;
//! * `dispatch` — closed-loop `DispatchBatch` round trips, one batch in
//!   flight, against one single-worker server per program;
//! * `offload` — `OffloadEngine::run` over loopback at a partitioned
//!   parameter point per program (paired with the all-local run when
//!   traced).
//!
//! Every operation's output is checked; the last line of standard output
//! is one JSON object with the attempted and failed counts and the
//! metrics. With `--trace 0` those are the end-to-end metrics; with
//! `--trace 1` the run alternates untraced and traced rounds and prints
//! the per-layer rows, and the benchmark's spans go to `--trace-out`.
//! See `NOTES.md` for why each workload and metric is what it is.
//!
//! `perfbench --yardstick` is the host-speed yardstick process the
//! benchmark starts for itself (see `yardstick.rs`).

mod common;
mod compile;
mod dispatch;
mod layers;
mod offload;
mod stats;
mod trace;
mod yardstick;

use common::Report;
use offload_benchmarks::Benchmark;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// What every workload runs with.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Whether this is the traced run (`--trace 1`).
    pub trace: bool,
    /// Process start: the first set-up is timed from here.
    pub start: Instant,
    pub tracer: Tracer,
    pub programs: Vec<Benchmark>,
    pub report: Report,
    /// Each set-up round's wall time, in nanoseconds.
    pub setup_times: Vec<u64>,
    /// Every yardstick sample of the run, in order.
    pub yard: Vec<u64>,
    /// The yardstick process, started at the first sample.
    pub yardstick: Option<yardstick::Yardstick>,
}

impl Ctx {
    /// Takes a yardstick sample and records it. Callers make sure no
    /// program thread is alive (every server stopped) and no window is
    /// being timed.
    pub fn yardstick_ns(&mut self) -> Result<u64, String> {
        if self.yardstick.is_none() {
            self.yardstick = Some(yardstick::Yardstick::spawn()?);
        }
        let ns = self
            .yardstick
            .as_mut()
            .expect("started above")
            .sample_ns()?;
        self.yard.push(ns);
        Ok(ns)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut trace_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        trace_out,
    })
}

fn run(args: &Args, start: Instant) -> Result<Report, String> {
    common::check_pass_list()?;
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        start,
        tracer: Tracer::new(start),
        programs: offload_benchmarks::all(),
        report: Report::default(),
        setup_times: Vec::new(),
        yard: Vec::new(),
        yardstick: None,
    };
    match args.workload.as_str() {
        "compile" => compile::run(&mut ctx)?,
        "dispatch" => dispatch::run(&mut ctx)?,
        "offload" => offload::run(&mut ctx)?,
        other => {
            return Err(format!(
                "unknown workload {other} (compile|dispatch|offload)"
            ))
        }
    }
    if let Some(path) = &args.trace_out {
        if args.trace {
            ctx.tracer
                .write_json(path, &args.workload, args.seed)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            ctx.report.lines.push(format!(
                "{} spans written to {}",
                ctx.tracer.spans().len(),
                path.display()
            ));
        }
    }
    Ok(ctx.report)
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
fn result_json(report: &Report) -> Result<String, String> {
    let mut metrics = Vec::new();
    for m in &report.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not a number ({})", m.name, m.value));
        }
        metrics.push(format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed() == 0,
        report.attempted(),
        report.failed(),
        metrics.join(",")
    ))
}

fn main() -> ExitCode {
    let start = Instant::now();
    if std::env::args().skip(1).eq(["--yardstick"]) {
        return match yardstick::serve() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench --yardstick: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args, start) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let json = match result_json(&report) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "perfbench {} seed={} seconds={} trace={} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for k in &report.kinds {
        println!(
            "  {:<16} attempted {:>8}  failed {}",
            k.name, k.attempted, k.failed
        );
    }
    for p in &report.problems {
        println!("  FAILED {p}");
    }
    for l in &report.lines {
        println!("  {l}");
    }
    for m in &report.metrics {
        println!("  {:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("{json}");
    ExitCode::SUCCESS
}
