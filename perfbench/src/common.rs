//! What every workload shares: the program set, seeded inputs, the
//! compile paths (whole and pass by pass), the in-process layer probes
//! and the report every run prints.

use crate::stats::{PerProgram, Samples};
use crate::trace::Tracer;
use crate::yardstick;
use offload_benchmarks::Benchmark;
use offload_core::passes::{self, keys, Pass, PassContext, PassManager};
use offload_core::{
    Analysis, AnalysisOptions, CompiledDispatcher, Partition, PipelineStats, SolveOptions,
};
use offload_net::protocol::{decode_frame, encode_frame};
use offload_net::{OffloadServer, ServerConfig, ServerHandle, TraceContext, WireFrame, WireMsg};
use offload_runtime::{DeviceModel, RunResult, Simulator};
use std::sync::Arc;
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_ROUNDS: usize = 5;
/// Parameter points per `DispatchBatch`.
pub const BATCH_POINTS: usize = 16;
/// Batches drawn per program for the in-process select/codec probe.
pub const PROBE_BATCHES: usize = 64;

/// The span names of the pass-by-pass compile, in pipeline order: the
/// front end, lowering, then every pass of `PassManager::standard()`.
pub const COMPILE_ROWS: [&str; 11] = [
    "lang.frontend",
    "ir.lower",
    "pta.points_to",
    "tcfg.build",
    "pta.modref",
    "symbolic.analysis",
    "core.annotate",
    "core.items",
    "core.netbuild",
    "core.solve",
    "core.compile",
];

fn standard_passes() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(passes::PointsToPass),
        Box::new(passes::TcfgPass),
        Box::new(passes::ModRefPass),
        Box::new(passes::SymbolicPass),
        Box::new(passes::AnnotatePass),
        Box::new(passes::ItemsPass),
        Box::new(passes::NetBuildPass),
        Box::new(passes::SolvePass),
        Box::new(passes::CompilePass),
    ]
}

/// Fails when the standard pipeline no longer matches the passes this
/// benchmark runs one by one, so the traced compile cannot drift from
/// the untraced one unnoticed.
pub fn check_pass_list() -> Result<(), String> {
    let ours: Vec<&str> = standard_passes().iter().map(|p| p.name()).collect();
    let standard = PassManager::standard().pass_names();
    if ours == standard {
        Ok(())
    } else {
        Err(format!(
            "PassManager::standard() runs {standard:?}, the traced compile runs {ours:?}"
        ))
    }
}

/// The solver options every compile uses: one thread, the program's own
/// region strategy (set by `Benchmark::analyze_with`).
fn solve_options(b: &Benchmark) -> SolveOptions {
    SolveOptions {
        threads: 1,
        region_strategy: b.region_strategy(),
        ..SolveOptions::default()
    }
}

/// Source → compiled dispatcher in one call, the way users compile.
pub fn compile(b: &Benchmark) -> Result<Analysis, String> {
    b.analyze_with(solve_options(b)).map_err(|e| e.to_string())
}

/// The same compile, one layer at a time, with a span around each call:
/// the front end, lowering, and each standard pass run alone through
/// `PassManager::run` on one shared `PassContext`.
pub fn compile_traced(
    b: &Benchmark,
    program: usize,
    op: u64,
    tr: &mut Tracer,
) -> Result<Analysis, String> {
    let root = tr.begin("compile", program, op);
    let out = compile_layers(b, program, op, tr);
    tr.end(root);
    out
}

fn compile_layers(
    b: &Benchmark,
    program: usize,
    op: u64,
    tr: &mut Tracer,
) -> Result<Analysis, String> {
    let start = Instant::now();
    let span = tr.begin(COMPILE_ROWS[0], program, op);
    let checked = offload_lang::frontend(&b.source).map_err(|e| e.to_string())?;
    tr.end(span);
    let span = tr.begin(COMPILE_ROWS[1], program, op);
    let module = offload_ir::lower(&checked);
    tr.end(span);
    let options = AnalysisOptions::builder()
        .bounds(b.bounds.clone())
        .annotate_with(b.annotate)
        .solve(solve_options(b))
        .build();
    let mut cx = PassContext::new();
    cx.put(keys::MODULE, module);
    cx.put(keys::OPTIONS, options);
    let mut reports = Vec::new();
    for (row, pass) in COMPILE_ROWS[2..].iter().zip(standard_passes()) {
        let mut manager = PassManager::new();
        manager.register(pass);
        let span = tr.begin(row, program, op);
        let report = manager.run(&mut cx).map_err(|e| e.to_string())?;
        tr.end(span);
        reports.extend(report);
    }
    let e = |e: passes::PassError| e.to_string();
    Ok(Analysis {
        module: cx.take(keys::MODULE).map_err(e)?,
        tcfg: cx.take(keys::TCFG).map_err(e)?,
        pta: cx.take(keys::POINTS_TO).map_err(e)?,
        modref: cx.take(keys::MODREF).map_err(e)?,
        symbolic: cx.take(keys::SYMBOLIC).map_err(e)?,
        items: cx.take(keys::ITEMS).map_err(e)?,
        network: cx.take(keys::NETWORK).map_err(e)?,
        partition: cx.take(keys::PARTITION).map_err(e)?,
        dispatcher: cx.take(keys::DISPATCHER).map_err(e)?,
        compiled: cx.take::<CompiledDispatcher>(keys::COMPILED).map_err(e)?,
        reports,
        analysis_time: start.elapsed(),
    })
}

/// What every compile of a program must reproduce exactly.
///
/// `work_counters()` zeroes `lp_cache_hits`, and a cache hit still counts
/// as an LP solve with the original solve's pivots, so the work counters
/// alone would not tell a warm LP cache from a cold one. The hit count is
/// kept beside them: at one solver thread it repeats exactly, since the
/// solver clears the cache when it starts, so a cache that survived from
/// one compile into the next would fail the check.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub choices: Vec<Partition>,
    pub work: PipelineStats,
    pub lp_cache_hits: u64,
}

impl Outcome {
    pub fn of(a: &Analysis) -> Outcome {
        let stats = a.pipeline_stats();
        Outcome {
            choices: a.partition.choices.clone(),
            work: stats.work_counters(),
            lp_cache_hits: stats.lp_cache_hits,
        }
    }
}

/// Attempted and failed operations of one kind.
#[derive(Debug, Clone)]
pub struct Kind {
    pub name: &'static str,
    pub attempted: u64,
    pub failed: u64,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run prints.
#[derive(Debug, Default)]
pub struct Report {
    pub kinds: Vec<Kind>,
    pub metrics: Vec<Metric>,
    /// Supporting lines for a reader (sample counts, tails, checks).
    pub lines: Vec<String>,
    /// The first few failed checks, for diagnosis.
    pub problems: Vec<String>,
}

impl Report {
    fn kind(&mut self, name: &'static str) -> usize {
        if let Some(i) = self.kinds.iter().position(|k| k.name == name) {
            return i;
        }
        self.kinds.push(Kind {
            name,
            attempted: 0,
            failed: 0,
        });
        self.kinds.len() - 1
    }

    /// Counts one attempt of `kind`; `problem` is `Some` when it failed.
    pub fn attempt(&mut self, kind: &'static str, problem: Option<String>) {
        let i = self.kind(kind);
        self.kinds[i].attempted += 1;
        if let Some(p) = problem {
            self.kinds[i].failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(format!("{kind}: {p}"));
            }
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Fails the run without counting an operation (a check on the run
    /// as a whole, such as the traced rows summing to the wall time).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        let i = self.kind("run checks");
        self.kinds[i].attempted += 1;
        if !ok {
            self.kinds[i].failed += 1;
            self.problems.push(format!("run checks: {}", what()));
        }
    }

    pub fn attempted(&self) -> u64 {
        self.kinds.iter().map(|k| k.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.kinds.iter().map(|k| k.failed).sum()
    }
}

/// splitmix64: every seeded draw in the benchmark comes from here.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        let span = (hi - lo) as u64 + 1;
        lo + (self.next_u64() % span) as i64
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The size parameters of each program, and the upper end drawn for a
/// size the program leaves unbounded. Sizes are drawn log-uniform because
/// the repository evaluates them on geometric sweeps: ADPCM `n` = 256,
/// 1024, 4096 (`summary`); G.721 `bufsz` = 16 … 2048 by ×4 at 2048
/// samples (`figure10`); fft `n` = 16 … 4096 by ×4 (`figure11`); susan
/// 24×24 and 56×56 (`figure12`). The unbounded ones are capped at the
/// largest value those settings use: ADPCM `n` at 4096 (`summary`),
/// G.721 `nbuf` at 128 (`figure10`: 2048 samples in buffers of 16).
pub fn sizes_of(b: &Benchmark) -> &'static [(usize, Option<i64>)] {
    match b.name {
        "rawcaudio" | "rawdaudio" => &[(0, Some(4096))],
        "encode" | "decode" => &[(2, None), (3, Some(128))],
        "fft" => &[(1, None)],
        "susan" => &[(3, None), (4, None)],
        _ => &[],
    }
}

/// One parameter point inside the program's declared bounds: a size
/// log-uniform between its bounds (see `sizes_of`), anything else (modes,
/// flags, counts, thresholds) uniform between its bounds.
pub fn draw_point(rng: &mut Rng, b: &Benchmark) -> Result<Vec<i64>, String> {
    let sizes = sizes_of(b);
    (0..b.param_names.len())
        .map(|i| {
            let size = sizes.iter().find(|s| s.0 == i);
            let lo = b.bounds.lower(i);
            let hi = b.bounds.upper(i).or(size.and_then(|s| s.1));
            let (Some(lo), Some(hi)) = (lo, hi) else {
                return Err(format!(
                    "{}: parameter {} has no range to draw from",
                    b.name, b.param_names[i]
                ));
            };
            Ok(if size.is_some() {
                let span = (hi - lo + 1) as f64;
                let x = (rng.unit() * span.ln()).exp() as i64;
                (lo + x - 1).clamp(lo, hi)
            } else {
                rng.range(lo, hi)
            })
        })
        .collect()
}

/// A batch of points for `b`, drawn from `rng`.
pub fn draw_batch(rng: &mut Rng, b: &Benchmark) -> Result<Vec<Vec<i64>>, String> {
    (0..BATCH_POINTS).map(|_| draw_point(rng, b)).collect()
}

/// The parameter point each program is offloaded at: the `summary`
/// settings at which the dispatcher picks a partitioned choice.
pub fn offload_point(b: &Benchmark) -> Vec<i64> {
    match b.name {
        "rawcaudio" | "rawdaudio" => vec![4096],
        "encode" | "decode" => vec![4, 0, 512, 4],
        "fft" => vec![4, 1024, 0],
        "susan" => vec![0, 1, 0, 24, 24, 20, 2, 1, 1, 1200, 16, 10],
        other => panic!("no offload point for benchmark {other}"),
    }
}

/// The input stream for `params`, drawn from the seed: the length and
/// value range of the program's own generator, fresh values.
pub fn draw_input(seed: u64, program: usize, b: &Benchmark, params: &[i64]) -> Vec<i64> {
    let shape = (b.make_input)(params);
    let (Some(&lo), Some(&hi)) = (shape.iter().min(), shape.iter().max()) else {
        return Vec::new();
    };
    let mut rng = Rng::new(seed, 0x1_0000 + program as u64);
    (0..shape.len()).map(|_| rng.range(lo, hi)).collect()
}

/// The device model both hosts run with.
pub fn device() -> DeviceModel {
    DeviceModel::ipaq_testbed()
}

/// A loopback server with `a` as its primary and a one-worker dispatch
/// pool.
pub fn bind_server(a: &Arc<Analysis>) -> Result<ServerHandle, String> {
    OffloadServer::bind(
        "127.0.0.1:0",
        Arc::clone(a),
        device(),
        ServerConfig::builder().threads(1).build(),
    )
    .map_err(|e| format!("binding a server: {e}"))
}

/// Nanoseconds since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Peak resident set of this process (client and in-process servers).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// One batch's in-process layer costs and frame sizes.
pub struct BatchProbe {
    pub expected: Vec<u32>,
    pub select_ns: u64,
    pub codec_ns: u64,
    pub request_bytes: usize,
    pub reply_bytes: usize,
}

/// Answers `points` with `Analysis::select` (the expected dispatch
/// replies) and puts the batch and its reply through the wire codec,
/// timing each from outside.
pub fn probe_batch(
    a: &Analysis,
    fingerprint: u64,
    points: &[Vec<i64>],
    tr: &mut Tracer,
    program: usize,
    op: u64,
) -> Result<BatchProbe, String> {
    let span = tr.begin("core.select", program, op);
    let t = Instant::now();
    let expected: Result<Vec<u32>, _> = points
        .iter()
        .map(|p| a.select(p).map(|c| c as u32))
        .collect();
    let select_ns = ns_since(t);
    tr.end(span);
    let expected = expected.map_err(|e| format!("select: {e}"))?;

    let request = WireFrame {
        request_id: op + 1,
        msg: WireMsg::DispatchBatch {
            fingerprint,
            points: points.to_vec(),
            trace: TraceContext::default(),
        },
    };
    let reply = WireFrame {
        request_id: op + 1,
        msg: WireMsg::DispatchChoices {
            choices: expected.clone(),
        },
    };
    let span = tr.begin("net.codec", program, op);
    let t = Instant::now();
    let req = encode_frame(&request);
    let req_back = decode_frame(payload(&req));
    let rep = encode_frame(&reply);
    let rep_back = decode_frame(payload(&rep));
    let codec_ns = ns_since(t);
    tr.end(span);
    match (req_back, rep_back) {
        (Ok(q), Ok(r)) if q.msg == request.msg && r.msg == reply.msg => {}
        _ => return Err("frame did not survive encode/decode".into()),
    }
    Ok(BatchProbe {
        expected,
        select_ns,
        codec_ns,
        request_bytes: req.len(),
        reply_bytes: rep.len(),
    })
}

/// The frame payload after its LEB128 length prefix.
fn payload(frame: &[u8]) -> &[u8] {
    let prefix = frame
        .iter()
        .position(|b| b & 0x80 == 0)
        .map_or(0, |i| i + 1);
    &frame[prefix..]
}

/// Per-program select and codec samples and frame sizes.
pub struct ProbeStats {
    pub select: PerProgram,
    pub codec: PerProgram,
    pub request_bytes: PerProgram,
    pub reply_bytes: PerProgram,
}

impl ProbeStats {
    pub fn new(programs: usize) -> ProbeStats {
        ProbeStats {
            select: PerProgram::new(programs),
            codec: PerProgram::new(programs),
            request_bytes: PerProgram::new(programs),
            reply_bytes: PerProgram::new(programs),
        }
    }

    pub fn record(&mut self, program: usize, p: &BatchProbe) {
        self.select.push(program, p.select_ns);
        self.codec.push(program, p.codec_ns);
        self.request_bytes.push(program, p.request_bytes as u64);
        self.reply_bytes.push(program, p.reply_bytes as u64);
    }
}

/// Frame sizes over a fixed seeded sample of batches per program, so the
/// byte rows repeat exactly at a seed whatever the run length.
pub fn probe_sample(
    seed: u64,
    programs: &[Benchmark],
    analyses: &[&Analysis],
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<ProbeStats, String> {
    let mut stats = ProbeStats::new(programs.len());
    for (p, (b, a)) in programs.iter().zip(analyses).enumerate() {
        let fp = offload_net::fingerprint(a);
        let mut rng = Rng::new(seed, 0x2_0000 + p as u64);
        for i in 0..PROBE_BATCHES {
            let batch = draw_batch(&mut rng, b)?;
            match probe_batch(a, fp, &batch, tr, p, i as u64) {
                Ok(probe) => {
                    stats.record(p, &probe);
                    report.attempt("select probes", None);
                }
                Err(e) => report.attempt("select probes", Some(e)),
            }
        }
    }
    Ok(stats)
}

/// Runs `b` at its offload point all-local and split (both hosts in this
/// thread), with spans, and checks the two agree on outputs. Returns
/// both results and their wall times in nanoseconds.
pub fn split_run(
    seed: u64,
    program: usize,
    b: &Benchmark,
    a: &Analysis,
    tr: &mut Tracer,
    op: u64,
) -> Result<(RunResult, RunResult, u64, u64), String> {
    let params = offload_point(b);
    let input = draw_input(seed, program, b, &params);
    let choice = a.select(&params).map_err(|e| format!("select: {e}"))?;
    let sim = Simulator::new(a, device());
    let span = tr.begin("runtime.local", program, op);
    let t = Instant::now();
    let local = sim.run_local(&params, &input);
    let local_ns = ns_since(t);
    tr.end(span);
    let span = tr.begin("runtime.split", program, op);
    let t = Instant::now();
    let split = sim.run_choice(choice, &params, &input);
    let split_ns = ns_since(t);
    tr.end(span);
    let local = local.map_err(|e| format!("local run: {e}"))?;
    let split = split.map_err(|e| format!("split run: {e}"))?;
    if split.outputs != local.outputs {
        return Err("split run outputs differ from the all-local run".into());
    }
    Ok((local, split, local_ns, split_ns))
}

/// The end-to-end metrics of an untraced run: the median set-up and the
/// suite time at the reference host speed, and the peak resident set.
///
/// Set-up is scaled by the run's median yardstick, since no sample may
/// fall inside a set-up and the few samples that could be taken right
/// after one track it worse than the run's median does (see `NOTES.md`).
pub fn report_end_to_end(ctx: &mut crate::Ctx, timed: &Timed) -> Result<(), String> {
    let yard = Samples::from_ns(ctx.yard.clone()).median_ns();
    let setup_ns = Samples::from_ns(ctx.setup_times.clone()).median_ns();
    let setup_s = setup_ns / 1e9 * yardstick::YARDSTICK_REF_NS / yard;
    ctx.report.metric("setup_s", setup_s, "s");
    ctx.report.metric("peak_rss_mb", peak_rss_mb()?, "MB");
    ctx.report
        .metric("suite_ms", ms(timed.norm.suite_median_ns()), "ms");
    let rounds: Vec<f64> = ctx
        .setup_times
        .iter()
        .map(|&ns| (ns as f64 / 1e5).round() / 1e4)
        .collect();
    ctx.report.lines.push(format!(
        "set-up: {} rounds, {rounds:?} s as measured; median {setup_s:.4} s at the reference speed",
        rounds.len(),
    ));
    ctx.report.lines.push(format!(
        "suite: {:.3} ms at the reference speed, {:.3} ms as measured; yardstick median {:.3} ms over {} samples (reference {:.3} ms)",
        ms(timed.norm.suite_median_ns()),
        ms(timed.raw.suite_median_ns()),
        ms(yard),
        ctx.yard.len(),
        ms(yardstick::YARDSTICK_REF_NS),
    ));
    Ok(())
}

/// Per-program samples of an operation, as measured and at the reference
/// host speed.
pub struct Timed {
    pub raw: PerProgram,
    pub norm: PerProgram,
}

impl Timed {
    pub fn new(programs: usize) -> Timed {
        Timed {
            raw: PerProgram::new(programs),
            norm: PerProgram::new(programs),
        }
    }

    /// Records one operation of `ns`, preceded by a yardstick of `yard_ns`.
    pub fn push(&mut self, program: usize, ns: u64, yard_ns: u64) {
        self.raw.push(program, ns);
        self.norm.push(program, yardstick::normalize(ns, yard_ns));
    }
}

/// Milliseconds from nanoseconds.
pub fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Microseconds from nanoseconds.
pub fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Each program's sample count and median, for a reader.
pub fn describe_programs(label: &str, programs: &[Benchmark], samples: &PerProgram) -> String {
    let parts: Vec<String> = programs
        .iter()
        .zip(&samples.programs)
        .map(|(b, s)| {
            format!(
                "{} {:.3} [{:.3}..{:.3}] (n={})",
                b.name,
                ms(s.median_ns()),
                ms(s.quantile_ns(0.0)),
                ms(s.quantile_ns(1.0)),
                s.len()
            )
        })
        .collect();
    format!(
        "{label} per-program median [min..max], ms: {}",
        parts.join(", ")
    )
}

/// "p50 1.234 ms, p99 … (n=…, … beyond p99)" for a reader.
pub fn describe(label: &str, s: &Samples) -> String {
    if s.is_empty() {
        return format!("{label}: no samples");
    }
    format!(
        "{label}: n={} p50={:.3} ms p99={:.3} ms ({} beyond) p999={:.3} ms ({} beyond)",
        s.len(),
        ms(s.median_ns()),
        ms(s.quantile_ns(0.99)),
        s.beyond(0.99),
        ms(s.quantile_ns(0.999)),
        s.beyond(0.999),
    )
}
