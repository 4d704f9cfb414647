//! # offload-bench
//!
//! The experiment harness. Each table and figure of the paper's
//! evaluation, and the solver's work counters, has a renderer here that
//! returns the text the `repro` binary prints and `results/<name>.txt`
//! holds (see `DESIGN.md`'s experiment index). Where the paper makes a
//! claim about the numbers (Table 1, Figures 9–13, §6.2, the §2.2
//! ablation), a function returns the typed rows and the renderer formats
//! them. `tests/paper_claims.rs` compares every rendering with
//! `results/` and asserts the claims from the rows. [`diff`] and [`gen`]
//! are the differential fuzzer behind the `fuzzgen` binary.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod diff;
pub mod gen;

use offload_benchmarks::{all, Benchmark};
use offload_core::{
    cut_cost_at, Analysis, AnalysisOptions, PipelineStats, Plan, RegionStrategy, ValidityModel,
};
use offload_flow::{ParamCap, ParamNetwork};
use offload_poly::{Constraint, LinExpr, Polyhedron, Rational, Region};
use offload_runtime::{DeviceModel, SimError, Simulator};
use offload_symbolic::{Atom, ParamDict, SymExpr};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

/// Why an experiment could not run: an analysis, dispatch or simulation
/// failure.
pub type Error = Box<dyn std::error::Error>;

/// Computes an experiment and renders its text.
pub type Renderer = fn() -> Result<String, Error>;

/// Every experiment: the name `repro` takes and `results/` files it under,
/// and its renderer.
pub const EXPERIMENTS: [(&str, Renderer); 14] = [
    ("table1", || Ok(render_table1(&table1()))),
    ("table3", || Ok(render_table3())),
    ("table4", render_table4),
    ("solve_counters", render_solve_counters),
    ("figure2", render_figure2),
    ("figure6_7", || Ok(render_figure6_7())),
    ("figure9", || Ok(render_figure9(&figure9().run()?))),
    ("figure10", || Ok(render_figure10(&figure10().run()?))),
    ("figure11", || {
        let fig = figure11().run()?;
        Ok(render_figure11(&fig, &figure11_picks(fig.analysis)?))
    }),
    ("figure12", || Ok(render_figure12(&figure12().run()?))),
    ("figure13", || Ok(render_figure13(&figure13()?))),
    ("summary", || Ok(render_summary(&run_all(&summary())?))),
    ("ablation_duchain", || Ok(render_ablation(&ablation()?))),
    ("offloadc", || {
        let src = include_str!("../../../examples/programs/pipeline.mc");
        let name = "examples/programs/pipeline.mc";
        offloadc(name, src, &[4, 50000], &[1, 2, 3, 4], true)
    }),
];

/// Renders experiment `name`. For `offloadc` that is the demo run
/// `results/offloadc.txt` records.
pub fn render(name: &str) -> Result<String, Error> {
    let found = EXPERIMENTS.iter().find(|(n, _)| *n == name);
    let (_, render) = found.ok_or_else(|| format!("unknown experiment `{name}`"))?;
    render()
}

/// Where `results/` keeps experiment `name`'s rendering. The crate
/// directory is read from the environment, which cargo sets for `cargo
/// test` and `cargo run`, so a build shared by two checkouts reads the
/// running checkout's files; a binary run by hand falls back to the
/// directory it was built from.
pub fn results_path(name: &str) -> PathBuf {
    let dir = std::env::var_os("CARGO_MANIFEST_DIR");
    let dir = dir.map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    dir.join(format!("../../results/{name}.txt"))
}

/// Table 3 program `name` and its analysis, which runs on first use and
/// at most once per process. Progress goes to stderr.
pub fn analyzed(name: &str) -> Result<(&'static Benchmark, &'static Analysis), Error> {
    type Cell = OnceLock<Result<Analysis, String>>;
    static SUITE: OnceLock<Vec<(Benchmark, Cell)>> = OnceLock::new();
    let suite = SUITE.get_or_init(|| all().into_iter().map(|b| (b, OnceLock::new())).collect());
    let found = suite.iter().find(|(b, _)| b.name == name);
    let (bench, cell) = found.ok_or_else(|| format!("no Table 3 program `{name}`"))?;
    let analysis = cell.get_or_init(|| {
        eprintln!("analyzing {name} ...");
        let a = bench.analyze().map_err(|e| e.to_string())?;
        let n = a.partition.choices.len();
        eprintln!("{n} choices found in {:?}", a.analysis_time);
        Ok(a)
    });
    match analysis {
        Ok(a) => Ok((bench, a)),
        Err(e) => Err(format!("{name}: {e}").into()),
    }
}

// ---- Tables 1, 3 and 4 ----

/// Table 1: the running example's costs under the three offloading
/// choices, as symbolic functions of `x`, `y` and `z`.
pub struct Table1 {
    dict: ParamDict,
    /// Computation, communication and total cost of offloading nothing,
    /// `g`, and `f` and `g`.
    pub rows: [(&'static str, [SymExpr; 3]); 3],
    /// The three total costs at each of the paper's sample points.
    pub samples: [([i64; 3], [Rational; 3]); 3],
}

/// Builds Table 1 (§1.1: unit computation per innermost statement,
/// startup 6, unit transfer 1).
pub fn table1() -> Table1 {
    let mut dict = ParamDict::new(vec!["x".into(), "y".into(), "z".into()]);
    let [x, y, z] = [0, 1, 2].map(|i| SymExpr::atom(&mut dict, Atom::Param(i)));
    let xy = x.mul(&y, &mut dict);
    let xyz = xy.mul(&z, &mut dict);
    let (zero, two_xy) = (SymExpr::zero(), xy.scale(&2.into()));
    let comp = [xyz.add(&two_xy), two_xy.clone(), zero.clone()];
    let comm = [zero, x.scale(&12.into()).add(&two_xy), xy.scale(&14.into())];
    let total = [0, 1, 2].map(|i| comp[i].add(&comm[i]));
    let samples = [[1, 6, 3], [1, 6, 6], [1, 1, 18]].map(|v| {
        let at = |a: Atom| match a {
            Atom::Param(i) => Rational::from(v[i as usize]),
            Atom::Dummy(_) => Rational::zero(),
        };
        (v, total.clone().map(|e| e.eval(&dict, &at)))
    });
    let rows = [
        ("computation workload", comp),
        ("communication cost", comm),
        ("total cost", total),
    ];
    Table1 {
        dict,
        rows,
        samples,
    }
}

/// Renders Table 1.
pub fn render_table1(t: &Table1) -> String {
    let mut o = "== Table 1: Cost for Different Computation Offloading ==\n".to_string();
    o += &format!("{:<24}{:<18}{:<18}{:<12}\n", "offload", "-", "g", "f,g");
    for (name, exprs) in &t.rows {
        let [l, g, fg] = exprs.each_ref().map(|e| e.display(&t.dict).to_string());
        o += &format!("{name:<24}{l:<18}{g:<18}{fg:<12}\n");
    }
    for ([x, y, z], [l, g, fg]) in &t.samples {
        o += &format!("  at (x={x}, y={y}, z={z}): local={l} g={g} f,g={fg}\n");
    }
    o + "
conditions (paper §1.1):
  offload f,g iff 12 < z && 5y < 6
  offload g   iff 12 + 2y < yz (otherwise local)
"
}

/// Renders Table 3: each benchmark's description, parameter count and
/// source size.
pub fn render_table3() -> String {
    let mut o = "== Table 3: Test programs ==
Program      Description                                       No. of Params No. of Source Lines
"
    .to_string();
    for b in all() {
        let (name, what) = (b.name, b.description);
        let (n, l) = (b.param_names.len(), b.source_lines());
        o += &format!("{name:<12} {what:<48} {n:>14} {l:>18}\n");
    }
    o + "
(paper: rawcaudio 1/205, rawdaudio 1/178, encode 4/1118,
 decode 4/1248, fft 3/332, susan 12/2122 — our mini-C
 re-implementations are necessarily shorter than the C originals)
"
}

/// Renders Table 4: each benchmark's task, dummy-parameter and choice
/// counts, and its wall-clock analysis time. Dummies are what the
/// analysis names (§3.4): auto-resolvable conditions plus user-annotated
/// quantities.
pub fn render_table4() -> Result<String, Error> {
    let mut o = "== Table 4: Parametric Analysis Results ==
Program      No. Tasks No. Annotations  No. Partition Choices  Analysis Time
"
    .to_string();
    for b in all() {
        let (name, (_, a)) = (b.name, analyzed(b.name)?);
        let (t, d) = (a.tcfg.tasks().len(), a.symbolic.dict.dummies().len());
        let (c, time) = (a.partition.choices.len(), a.analysis_time);
        o += &format!("{name:<12} {t:>9} {d:>15} {c:>22}  {time:.1?}\n");
    }
    Ok(o + "
(paper, tasks/annotations/choices/seconds: rawcaudio 10/2/1/164,
 rawdaudio 10/2/1/185, encode 107/4/4/2247, decode 87/4/4/2159,
 fft 26/3/2/748, susan 95/13/3/3482)
(each Analysis Time is one cold analysis on the host that ran `repro --write`;
 the timed medians with their spread are in BENCH_compile_baseline.json)
")
}

/// Renders the parametric solve's deterministic work counters for each
/// Table 3 program, next to its region strategy and choice count. The
/// wall-clock counters are left out; solve times come from perfbench's
/// `compile` workload.
pub fn render_solve_counters() -> Result<String, Error> {
    let programs = all()
        .iter()
        .map(|b| analyzed(b.name))
        .collect::<Result<Vec<_>, _>>()?;
    let row = |label: &str, cells: &mut dyn Iterator<Item = String>| {
        let cells: String = cells.map(|c| format!(" {c:>10}")).collect();
        format!("{label:<22}{cells}\n")
    };
    let mut o = "== Solve work counters ==\n".to_string();
    o += &row("counter", &mut programs.iter().map(|(b, _)| b.name.into()));
    o += &row(
        "strategy",
        &mut programs.iter().map(|(b, _)| match b.region_strategy() {
            RegionStrategy::Exact => "exact".into(),
            RegionStrategy::Dominance => "dominance".into(),
        }),
    );
    let choices = programs.iter().map(|(_, a)| a.partition.choices.len());
    o += &row("choices", &mut choices.map(|c| c.to_string()));
    let counts: Vec<Vec<u64>> = programs
        .iter()
        .map(|(_, a)| a.pipeline_stats().entries().map(|(_, v)| v).collect())
        .collect();
    for (i, c) in PipelineStats::COUNTERS.iter().enumerate() {
        if c.kind.deterministic() {
            o += &row(c.name, &mut counts.iter().map(|p| p[i].to_string()));
        }
    }
    Ok(o)
}

// ---- Figures 2 and 6-7: the running example ----

/// Renders Figure 2: the dispatch guards the compiler generates for the
/// running example, in the paper's `if (cond) call server_X() else call
/// client_X()` style.
pub fn render_figure2() -> Result<String, Error> {
    let src = offload_lang::examples_src::FIGURE1;
    let a = Analysis::from_source(src, AnalysisOptions::default())?;
    let mut o = "== Figure 2: transformed program (dispatch guards) ==\n\n".to_string();
    for (i, choice) in a.partition.choices.iter().enumerate() {
        let guard = a.dispatcher.guard_text(&a.network, choice);
        o += &format!("if ({guard}) {{\n");
        if choice.is_all_local() {
            o += "    // run every task on the client\n";
        }
        for (t, task) in a.tcfg.tasks().iter().enumerate() {
            if choice.is_all_local() {
                o += &format!("    schedule client_task{t}();\n");
            } else {
                let host = ["client", "server"][usize::from(choice.server_tasks[t])];
                let f = &a.module.function(task.func).name;
                o += &format!("    schedule {host}_task{t}();   // in {f}\n");
            }
        }
        o += &format!("}}  // choice {i}\n\n");
    }
    Ok(o + "paper (§1.1) guards for comparison:
  f offloaded:  (12 < z) && (5*y < 6)
  g offloaded:  (12 + 2*y < y*z) || (12 < z)
")
}

/// Renders Figures 6–7: Algorithm 2 by hand on the worked example's
/// Table 1 network, one sample point, minimum cut and region per
/// iteration.
pub fn render_figure6_7() -> String {
    // Linearized dimensions d0 = x, d1 = x·y, d2 = x·y·z (§5.1).
    let k = 3;
    let aff = |c: [i64; 3]| {
        let e = (0..k).fold(LinExpr::zero(k), |e, i| e.plus_term(i, c[i].into()));
        ParamCap::Affine(e)
    };
    // Nodes: 0 = s, 1 = t, 2 = M(f), 3 = M(g).
    let mut net = ParamNetwork::new(k, 4, 0, 1);
    net.add_arc(0, 2, aff([0, 2, 0]));
    net.add_arc(0, 3, aff([0, 0, 1]));
    net.add_arc(2, 3, aff([12, 2, 0]));
    net.add_arc(3, 2, aff([12, 2, 0]));
    net.add_arc(2, 1, aff([0, 14, 0]));
    let var = |i| LinExpr::var(k, i);
    let space = Polyhedron::from_constraints(
        k,
        vec![
            Constraint::ge0(var(0).plus_constant(Rational::from(-1))),
            Constraint::ge0(var(1).sub(&var(0))),
            Constraint::ge0(var(2).sub(&var(1))),
        ],
    );
    let mut o = "== Figures 6-7: Algorithm 2 on the worked example ==\n\n".to_string();
    let names = |i: usize| ["x", "x*y", "x*y*z"][i].to_string();
    let mut rest = Region::from(space.clone());
    let mut round = 0;
    while let Some(p) = rest.sample() {
        round += 1;
        let mf = net.solve_at(&p).expect("the example's cuts are finite");
        let region = net.optimality_region(&mf.source_side, &space);
        let label = match (mf.source_side[2], mf.source_side[3]) {
            (false, false) => "P: run f and g locally",
            (false, true) => "P: offload g",
            (true, true) => "P: offload f and g",
            (true, false) => "P: offload f only",
        };
        let (x, xy, xyz, value) = (&p[0], &p[1], &p[2], &mf.value);
        o += &format!("iteration {round}: sample (x, xy, xyz) = ({x}, {xy}, {xyz})\n");
        o += &format!("  minimum cut {label}, value {value}\n");
        o += &format!("  region R{round}: {}\n", region.display_with(&names));
        rest = rest.subtract(&region);
        if round > 6 {
            break;
        }
    }
    o + "
paper's ranges (divide by x; y = xy/x, z = xyz/xy):
  R1: z <= 12 && yz <= 12 + 2y        (all local)
  R2: 6 <= 5y && 12 + 2y <= yz        (offload g)
  R3: 5y <= 6 && 12 <= z              (offload f and g)
"
}

// ---- Figures 9-12 and §6.2: parameter sweeps ----

/// Result of running one parameter setting under local execution and
/// every partitioning choice.
#[derive(Debug, Clone)]
pub struct SettingRow {
    /// Human-readable label of the setting (e.g. `-4 -l`).
    pub label: String,
    /// Virtual time of the all-local run.
    pub local_time: f64,
    /// Virtual time under each partitioning choice, in choice order.
    pub choice_times: Vec<f64>,
    /// The choice the dispatcher picks for this setting.
    pub dispatched: usize,
    /// Client energy of the all-local run.
    pub local_energy: f64,
    /// Client energy per choice.
    pub choice_energy: Vec<f64>,
}

impl SettingRow {
    /// Times normalized so the local run is 1.0 (the paper's Figures
    /// 9–12 normalization).
    pub fn normalized(&self) -> Vec<f64> {
        self.choice_times
            .iter()
            .map(|t| t / self.local_time)
            .collect()
    }

    /// The fastest choice for this setting.
    pub fn best_choice(&self) -> usize {
        self.choice_times
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("non-empty")
    }
}

/// Runs `params` under local execution and every partitioning choice.
///
/// # Errors
///
/// Propagates simulator failures.
pub fn run_setting(
    bench: &Benchmark,
    analysis: &Analysis,
    label: impl Into<String>,
    params: &[i64],
) -> Result<SettingRow, SimError> {
    let sim = Simulator::new(analysis, DeviceModel::ipaq_testbed());
    let input = (bench.make_input)(params);
    let local = sim.run(Plan::AllLocal, params, &input)?;
    let mut choice_times = Vec::new();
    let mut choice_energy = Vec::new();
    for i in 0..analysis.partition.choices.len() {
        let r = sim.run(Plan::Remote(i), params, &input)?;
        assert_eq!(
            r.outputs, local.outputs,
            "behaviour preserved under choice {i}"
        );
        choice_times.push(r.stats.total_time.to_f64());
        choice_energy.push(r.stats.energy.to_f64());
    }
    let (dispatched, _) = analysis.plan_for(params)?;
    Ok(SettingRow {
        label: label.into(),
        local_time: local.stats.total_time.to_f64(),
        choice_times,
        dispatched,
        local_energy: local.stats.energy.to_f64(),
        choice_energy,
    })
}

/// The paper's §6.2 headline statistic: average improvement of the best
/// partitioning over local execution, excluding settings where the best
/// choice is to run everything locally.
pub fn average_improvement(rows: &[SettingRow], analysis: &Analysis) -> Option<f64> {
    let mut gains = Vec::new();
    for row in rows {
        let best = row.best_choice();
        if analysis.partition.choices[best].is_all_local() {
            continue;
        }
        gains.push(1.0 - row.choice_times[best] / row.local_time);
    }
    if gains.is_empty() {
        None
    } else {
        Some(gains.iter().sum::<f64>() / gains.len() as f64)
    }
}

/// A Table 3 program and the labelled parameter settings an experiment
/// runs it at.
pub struct Sweep {
    /// The program's Table 3 name.
    pub program: &'static str,
    /// `(label, parameters)` per setting.
    pub settings: Vec<(String, Vec<i64>)>,
}

/// A [`Sweep`] that ran: one [`SettingRow`] per setting.
pub struct Swept {
    /// The program's Table 3 name.
    pub program: &'static str,
    /// Its analysis.
    pub analysis: &'static Analysis,
    /// One row per setting, in sweep order.
    pub rows: Vec<SettingRow>,
}

impl Sweep {
    fn new<L: Into<String>, const N: usize>(
        program: &'static str,
        settings: impl IntoIterator<Item = (L, [i64; N])>,
    ) -> Sweep {
        let settings = settings
            .into_iter()
            .map(|(label, params)| (label.into(), params.to_vec()))
            .collect();
        Sweep { program, settings }
    }

    /// Runs every setting under local execution and every choice.
    pub fn run(&self) -> Result<Swept, Error> {
        let (bench, analysis) = analyzed(self.program)?;
        let rows = self
            .settings
            .iter()
            .map(|(label, params)| run_setting(bench, analysis, label, params))
            .collect::<Result<_, _>>()?;
        let program = self.program;
        Ok(Swept {
            program,
            analysis,
            rows,
        })
    }
}

/// Runs every sweep in order.
pub fn run_all(sweeps: &[Sweep]) -> Result<Vec<Swept>, Error> {
    sweeps.iter().map(Sweep::run).collect()
}

/// A figure as a normalized-time table: one row per setting, one column
/// per partitioning (local execution = 1.0), the dispatcher's pick
/// starred.
pub fn normalized_table(title: &str, swept: &Swept) -> String {
    let mut o = format!("== {title} ==\nsetting           ");
    for i in 0..swept.analysis.partition.choices.len() {
        o += &format!("  partition{i:<2}");
    }
    o += "  (local = 1.0; * = dispatched)\n";
    for row in &swept.rows {
        o += &format!("{:<18}", row.label);
        for (i, t) in row.normalized().iter().enumerate() {
            let star = if i == row.dispatched { "*" } else { " " };
            o += &format!("  {t:>9.3}{star} ");
        }
        o += "\n";
    }
    o + "\n"
}

/// The average improvement line of Figures 9 and 12, if a setting
/// offloads.
fn improvement_line(swept: &Swept) -> String {
    let gain = average_improvement(&swept.rows, swept.analysis).map(|g| g * 100.0);
    let line = |g| format!("average improvement over local (offloaded settings): {g:.1}%\n");
    gain.map(line).unwrap_or_default()
}

/// The nine G.721 option combinations: coding method `-3/-4/-5` by audio
/// law `-l/-a/-u`, as `(label, [method, law])`.
fn g721_options() -> impl Iterator<Item = (String, [i64; 2])> {
    let laws = [("-l", 0), ("-a", 1), ("-u", 2)];
    let methods = [("-3", 3), ("-4", 4), ("-5", 5)].into_iter();
    methods.flat_map(move |(m, method)| laws.map(|(l, law)| (format!("{m} {l}"), [method, law])))
}

/// Figure 9: G.721 encode under the nine option combinations, with the
/// buffer size near the offloading crossover of Figure 10, where the
/// per-option work decides the winner (the regime of the paper's
/// unbuffered G.721).
pub fn figure9() -> Sweep {
    let settings = g721_options().map(|(l, [m, law])| (l, [m, law, 32, 8]));
    Sweep::new("encode", settings)
}

/// Renders Figure 9. The paper's takeaway: no single partitioning is best
/// under all command options.
pub fn render_figure9(fig: &Swept) -> String {
    let o = normalized_table("Figure 9: G.721 encode with different options", fig);
    let bests: BTreeSet<usize> = fig.rows.iter().map(SettingRow::best_choice).collect();
    let n = bests.len();
    o + &format!("distinct best partitionings across options: {n}\n") + &improvement_line(fig)
}

/// Figure 10: G.721 encode `-4 -l` over the buffer size, with the total
/// sample count held at 2048.
pub fn figure10() -> Sweep {
    let sizes = [16, 64, 256, 1024, 2048];
    let settings = sizes.map(|b| (format!("bufsz={b}"), [4, 0, b, 2048 / b]));
    Sweep::new("encode", settings)
}

/// The worst slowdown of any fixed partitioning against each setting's
/// fastest choice (the paper: up to 60%).
pub fn worst_fixed_penalty(rows: &[SettingRow]) -> f64 {
    let penalties = rows.iter().flat_map(|r| {
        let best = r.choice_times[r.best_choice()];
        r.choice_times.iter().map(move |t| t / best - 1.0)
    });
    penalties.fold(0.0, f64::max)
}

/// Renders Figure 10.
pub fn render_figure10(fig: &Swept) -> String {
    let title = "Figure 10: G.721 encode with different buffer sizes (-4 -l)";
    let worst = worst_fixed_penalty(&fig.rows) * 100.0;
    let penalty = "worst penalty of any fixed partitioning vs per-setting optimum";
    normalized_table(title, fig) + &format!("{penalty}: {worst:.0}%\n")
}

/// Figure 11: FFT over the sample number, with 4 sinusoids, forward.
pub fn figure11() -> Sweep {
    let ns = [16, 64, 256, 1024, 4096];
    Sweep::new("fft", ns.map(|n| (format!("n={n}"), [4, n, 0])))
}

/// The choices fft dispatches to at n = 512 across (nsin, inv) ∈ {(1, 0),
/// (16, 0), (4, 1)}: the paper finds the pick independent of both.
pub fn figure11_picks(fft: &Analysis) -> Result<BTreeSet<usize>, Error> {
    let settings = [(1, 0), (16, 0), (4, 1)].into_iter();
    let picks = settings.map(|(nsin, inv)| fft.select(&[nsin, 512, inv]));
    Ok(picks.collect::<Result<_, _>>()?)
}

/// Renders Figure 11, with the picks of [`figure11_picks`].
pub fn render_figure11(fig: &Swept, picks: &BTreeSet<usize>) -> String {
    let a = fig.analysis;
    let (choices, dummies) = (a.partition.choices.len(), a.symbolic.dict.dummies().len());
    let user = a.symbolic.annotations_required().len();
    let mut o = format!("{choices} choices, {dummies} dummies ({user} need user annotations)\n");
    o += &normalized_table("Figure 11: FFT with different sample numbers", fig);
    let n = picks.len();
    o + &format!("distinct dispatched choices across (nsin, inv) at n=512: {n} (paper: 1)\n")
}

/// Figure 12: susan's six representative settings: smoothing, edges and
/// corners on a small and a large photo.
pub fn figure12() -> Sweep {
    Sweep::new("susan", susan_settings(&["-s", "-e", "-c"]))
}

/// susan's parameters for each mode flag on a 24×24 and a 56×56 photo.
fn susan_settings(modes: &[&'static str]) -> Vec<(String, [i64; 12])> {
    let setting = |n: i64, mode: &str| {
        let [s, e, c] = ["-s", "-e", "-c"].map(|m| i64::from(m == mode));
        let params = [s, e, c, n, n, 20, 2, 1, 1, 1200, 16, 10];
        (format!("{mode} {n}x{n}"), params)
    };
    let sizes = [24, 56].into_iter();
    sizes
        .flat_map(|n| modes.iter().map(move |m| setting(n, m)))
        .collect()
}

/// Renders Figure 12.
pub fn render_figure12(fig: &Swept) -> String {
    let title = "Figure 12: susan under 6 representative settings";
    normalized_table(title, fig) + &improvement_line(fig)
}

/// The §6.2 headline settings for all six programs.
pub fn summary() -> Vec<Sweep> {
    let adpcm = |p| Sweep::new(p, [256, 1024, 4096].map(|n| (format!("n={n}"), [n])));
    let g721 = |p| {
        let settings = [
            ("-4 -l small", [4, 0, 64, 4]),
            ("-4 -l large", [4, 0, 512, 4]),
            ("-5 -u large", [5, 2, 512, 4]),
        ];
        Sweep::new(p, settings)
    };
    vec![
        adpcm("rawcaudio"),
        adpcm("rawdaudio"),
        g721("encode"),
        g721("decode"),
        Sweep::new("fft", [("n=64", [4, 64, 0]), ("n=1024", [4, 1024, 0])]),
        Sweep::new("susan", susan_settings(&["-e"])),
    ]
}

/// Renders the §6.2 headline: per program, the fastest choice at each
/// setting with its speedup and energy ratio, and the average
/// improvement over local execution (the paper reports ≈37%, excluding
/// instances where the optimum is to stay local).
pub fn render_summary(programs: &[Swept]) -> String {
    let mut o = String::new();
    let mut gains = Vec::new();
    for s in programs {
        let (a, name, n) = (s.analysis, s.program, s.rows.len());
        let (choices, p) = (a.partition.choices.len(), a.pipeline_stats());
        let solve = Duration::from_micros(p.simplify_micros + p.solve_micros);
        let (r, f, l) = (p.regions_explored, p.flow_solves, p.lp_solves);
        o += &format!("{name:<10} choices={choices} settings={n} (solve: {r} regions, ");
        o += &format!("{f} flow solves, {l} LP solves, {solve:.1?})\n");
        for row in &s.rows {
            let (label, best) = (&row.label, row.best_choice());
            let speedup = row.local_time / row.choice_times[best];
            let energy = row.choice_energy[best] / row.local_energy;
            let time = row.choice_times[best] / row.local_time;
            o += &format!("    {label:<14} best=partition{best} speedup={speedup:.2}x  ");
            o += &format!("energy/time ratio {energy:.2}/{time:.2}\n");
        }
        let gain = average_improvement(&s.rows, a);
        o += &match gain {
            Some(g) => format!("    average improvement over local: {:.1}%\n", g * 100.0),
            None => {
                "    local execution is optimal everywhere (as the paper found for ADPCM)\n".into()
            }
        };
        gains.extend(gain);
    }
    if !gains.is_empty() {
        let avg = gains.iter().sum::<f64>() / gains.len() as f64 * 100.0;
        o += &format!("\noverall average improvement (offloaded instances): {avg:.1}%\n");
        o += "(paper §6.2: about 37%, energy roughly proportional to time)\n";
    }
    o
}

// ---- Figure 13 ----

/// One Figure 13 setting: each choice's predicted cost and simulated
/// time.
pub struct PredictionRow {
    /// The option combination.
    pub label: String,
    /// Predicted cost per choice (`None`: an infinite cut).
    pub predicted: Vec<Option<f64>>,
    /// Simulated time per choice.
    pub measured: Vec<f64>,
}

/// Figure 13: prediction error for G.721 encode over the nine option
/// combinations, at `bufsz` 128 and `nbuf` 4.
pub fn figure13() -> Result<Vec<PredictionRow>, Error> {
    let (bench, a) = analyzed("encode")?;
    let sim = Simulator::new(a, DeviceModel::ipaq_testbed());
    let mut rows = Vec::new();
    for (label, [method, law]) in g721_options() {
        let params = [method, law, 128, 4];
        let input = (bench.make_input)(&params);
        let point = a
            .dispatcher
            .dim_point(&a.network, &params.map(Rational::from))?;
        let (mut predicted, mut measured) = (Vec::new(), Vec::new());
        for (i, choice) in a.partition.choices.iter().enumerate() {
            predicted.push(cut_cost_at(&a.network, choice, &point).map(|v| v.to_f64()));
            let run = sim.run_choice(i, &params, &input)?;
            measured.push(run.stats.total_time.to_f64());
        }
        rows.push(PredictionRow {
            label,
            predicted,
            measured,
        });
    }
    Ok(rows)
}

/// Renders Figure 13 as predicted/measured ratios. The paper reports all
/// within 10%; the simulator models cache effects the analysis ignores.
pub fn render_figure13(rows: &[PredictionRow]) -> String {
    let mut o = "== Figure 13: predicted / measured cost ratios (G.721 encode) ==\n".to_string();
    o += "setting     ";
    for i in 0..rows.first().map_or(0, |r| r.measured.len()) {
        o += &format!("  partition{i:<2}");
    }
    let mut worst: f64 = 1.0;
    for row in rows {
        o += &format!("\n{:<12}", row.label);
        for (predicted, measured) in row.predicted.iter().zip(&row.measured) {
            let Some(p) = predicted else {
                o += &format!("  {:>10}", "inf");
                continue;
            };
            let ratio = p / measured;
            worst = worst.max(ratio.max(1.0 / ratio));
            o += &format!("  {ratio:>10.3}");
        }
    }
    let pct = (worst - 1.0) * 100.0;
    o += &format!("\n\nworst |ratio - 1| across all settings and partitionings: {pct:.1}%\n");
    o + "(paper: all prediction errors within 10%)\n"
}

// ---- §2.2 ablation ----

/// One producer feeding two consumer tasks: Figure 3's scenario, where
/// per-DU-chain charging counts the shared data once per consumer.
const ABLATION_PROGRAM: &str = "
    int data[256];
    void produce(int n) {
        int i; int acc;
        acc = 7;
        for (i = 0; i < n; i++) { acc = acc + acc % 13 + 1; data[i % 256] = acc % 97; }
    }
    void consume_a(int k) {
        int i; int acc;
        acc = 0;
        for (i = 0; i < k; i++) { acc = acc + data[i % 256]; }
        output(acc);
    }
    void consume_b(int k) {
        int i; int acc;
        acc = 0;
        for (i = 0; i < k; i++) { acc = acc + data[i % 256] * 2; }
        output(acc);
    }
    void main(int n) { produce(n); consume_a(64); consume_b(64); }";

/// The producer sizes the ablation sweeps; the crossover scan stops at
/// the last.
pub const ABLATION_NS: [i64; 5] = [64, 512, 4096, 32768, 262144];

/// One validity model's side of the §2.2 ablation.
pub struct AblationModel {
    /// Choices the analysis found.
    pub choices: usize,
    /// The dispatched choice and its predicted cost at each of
    /// [`ABLATION_NS`].
    pub sweep: [Option<(usize, f64)>; 5],
    /// The first `n` at which dispatch leaves all-local.
    pub crossover: Option<i64>,
    /// Every choice's predicted cost at `n = 4096`.
    pub costs_at_4096: Vec<Option<f64>>,
}

/// The §2.2 ablation: the paper's validity states against per-DU-chain
/// charging, in that order.
pub fn ablation() -> Result<[AblationModel; 2], Error> {
    let model = |validity_model| -> Result<AblationModel, Error> {
        let opts = AnalysisOptions::builder().validity_model(validity_model);
        let a = Analysis::from_source(ABLATION_PROGRAM, opts.build())?;
        let choices = &a.partition.choices;
        let point = |n: i64| {
            a.dispatcher
                .dim_point(&a.network, &[Rational::from(n)])
                .ok()
        };
        let cost = |i: usize, p: &[Rational]| cut_cost_at(&a.network, &choices[i], p);
        let cost = |i, p: &[Rational]| cost(i, p).map(|v| v.to_f64());
        let dispatched = |n: i64| -> Option<(usize, f64)> {
            let i = a.select(&[n]).ok()?;
            Some((i, cost(i, &point(n)?)?))
        };
        let p = point(4096).unwrap_or_default();
        let costs_at_4096 = (0..choices.len()).map(|i| cost(i, &p)).collect();
        let offloads = |&n: &i64| a.select(&[n]).is_ok_and(|i| !choices[i].is_all_local());
        let crossover = (0..=ABLATION_NS[4]).find(offloads);
        let (choices, sweep) = (choices.len(), ABLATION_NS.map(dispatched));
        Ok(AblationModel {
            choices,
            sweep,
            crossover,
            costs_at_4096,
        })
    };
    Ok([
        model(ValidityModel::States)?,
        model(ValidityModel::DuChains)?,
    ])
}

/// Renders the ablation.
pub fn render_ablation([states, duchains]: &[AblationModel; 2]) -> String {
    let mut o = "== Ablation: validity states vs DU-chain charging ==
(one producer feeding two consumer tasks; Figure 3's scenario)
         n    states: choice/cost du-chains: choice/cost
"
    .to_string();
    let cell = |v: Option<(usize, f64)>| v.map_or("-".into(), |(i, c)| format!("{i} / {c:.0}"));
    for (i, n) in ABLATION_NS.iter().enumerate() {
        let (s, d) = (cell(states.sweep[i]), cell(duchains.sweep[i]));
        o += &format!("{n:>10} {s:>22} {d:>22}\n");
    }
    let (s, d) = (states.choices, duchains.choices);
    o += &format!("\nstates model: {s} choices; du-chain model: {d} choices\n");
    let at = |m: &AblationModel| m.crossover.map_or("never".into(), |n| n.to_string());
    let (s, d) = (at(states), at(duchains));
    o += &format!("first n that offloads: states {s}, du-chains {d}\n");
    for (name, m) in [("states", states), ("du-chains", duchains)] {
        let costs = m.costs_at_4096.iter();
        let costs: Vec<_> = costs
            .map(|c| c.map_or("inf".into(), |v| format!("{v:.0}")))
            .collect();
        o += &format!("{name:>10}: choice costs at n=4096: {costs:?}\n");
    }
    o + "the du-chain model charges the shared producer data once per consumer,
so it predicts a higher cost and offloads only at a larger n: the
exaggeration the paper's validity states remove.
"
}

// ---- offloadc ----

/// The offloading compiler on one program: its task graph, tracked data
/// items and partitioning choices with their dispatch guards; at
/// `params`, the dispatched choice; with `run`, a simulated local and
/// dispatched run on `input`, which must print the same outputs. `name`
/// heads the text.
pub fn offloadc(
    name: &str,
    src: &str,
    params: &[i64],
    input: &[i64],
    run: bool,
) -> Result<String, Error> {
    let a = Analysis::from_source(src, AnalysisOptions::default())?;
    let (f, t) = (a.module.functions.len(), a.tcfg.tasks().len());
    let (i, stats) = (a.items.items.len(), &a.partition.stats);
    let (before, after) = (stats.nodes_before, stats.nodes_after);
    let mut o = format!("== {name} ==\nfunctions: {f}   tasks: {t}   tracked items: {i}   ");
    o += &format!("network: {before} -> {after} nodes\n");
    let missing = a.missing_annotations();
    if !missing.is_empty() {
        o += &format!("NOTE: dummies needing annotations before dispatch: {missing:?}\n");
        for d in &missing {
            if let Some(origin) = a.symbolic.dict.dummies().get(*d as usize) {
                o += &format!("  d{d}: {origin:?}\n");
            }
        }
    }
    o += &format!("\npartitioning choices:\n{}\n", a.describe_choices());
    o += &format!("analysis time: {:?}\n", a.analysis_time);
    if params.is_empty() {
        return Ok(o);
    }
    let idx = a.select(params)?;
    o += &format!("dispatch at {params:?}: choice {idx}\n");
    if run {
        let sim = Simulator::new(&a, DeviceModel::ipaq_testbed());
        let local = sim.run_local(params, input)?;
        let chosen = sim.run_choice(idx, params, input)?;
        let (l, d) = (local.stats.total_time.to_f64(), &chosen.stats.total_time);
        let (m, s) = (chosen.stats.messages, chosen.stats.slots_transferred);
        o += &format!("local      time {l:>12} \n");
        o += &format!(
            "dispatched time {:>12}  ({m} messages, {s} slots moved)\n",
            d.to_f64()
        );
        o += &format!("outputs: {:?}\n", chosen.outputs);
        if chosen.outputs != local.outputs {
            return Err(format!("choice {idx} changed the outputs {:?}", local.outputs).into());
        }
    }
    Ok(o)
}
