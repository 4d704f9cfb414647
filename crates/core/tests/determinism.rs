//! Determinism contracts of the region-exploration engine.
//!
//! The whole analysis must be reproducible run to run within one process
//! (no hash-iteration ordering may leak into the output or the work
//! counters).

use offload_core::{Analysis, AnalysisOptions, PipelineStats, SolveOptions};

/// Programs with multi-choice partitions exercising several rounds of
/// the worklist (loops over distinct parameters produce distinct cuts).
const PROGRAMS: &[&str] = &[
    "int work(int k) {
         int j; int acc;
         acc = 0;
         for (j = 0; j < k; j++) { acc = acc + j * j; }
         return acc;
     }
     void main(int n) { output(work(n)); }",
    "int stage1(int k) {
         int j; int acc;
         acc = 0;
         for (j = 0; j < k; j++) { acc = acc + j * 3 % 97; }
         return acc;
     }
     int stage2(int k) {
         int j; int acc;
         acc = 1;
         for (j = 0; j < k; j++) { acc = acc + j * j % 31; }
         return acc;
     }
     void main(int n, int m) { output(stage1(n) + stage2(m)); }",
    "int inner(int k) {
         int j; int acc;
         acc = 0;
         for (j = 0; j < k; j++) { acc = acc + j; }
         return acc;
     }
     int outer(int n, int m) {
         int i; int acc;
         acc = 0;
         for (i = 0; i < n; i++) { acc = acc + inner(m); }
         return acc;
     }
     void main(int n, int m) { output(outer(n, m)); }",
];

fn analyze_with(src: &str, solve: SolveOptions) -> Analysis {
    let opts = AnalysisOptions {
        solve,
        ..AnalysisOptions::default()
    };
    Analysis::from_source(src, opts).expect("analysis succeeds")
}

#[test]
fn analysis_is_reproducible_within_a_process() {
    // Two analyses of the same source in one process see differently
    // seeded hash maps; none of that may reach the output.
    for (i, src) in PROGRAMS.iter().enumerate() {
        let a = analyze_with(src, SolveOptions::default());
        let b = analyze_with(src, SolveOptions::default());
        assert_eq!(
            a.partition.choices, b.partition.choices,
            "program {i}: repeated analysis diverged"
        );
        assert_eq!(a.network.param_space, b.network.param_space);
        assert_eq!(
            a.pipeline_stats().work_counters(),
            b.pipeline_stats().work_counters(),
            "program {i}: repeated analysis did different work"
        );
    }
}

#[test]
fn incremental_prune_counters_fire_and_are_thread_count_independent() {
    // The warm-started redundancy pipeline must actually run on a real
    // evaluation program: every ladder stage fires, so none of the
    // counters may be zero.
    let bench = offload_benchmarks::all()
        .into_iter()
        .find(|b| b.name == "rawcaudio")
        .expect("rawcaudio is a stock benchmark");
    let stats = bench.analyze().expect("analysis succeeds").pipeline_stats();
    assert!(stats.prefilter_hits() > 0, "pre-filter ladder never fired");
    assert!(stats.lp_warm_starts > 0, "incremental LP never consulted");
    assert!(stats.dual_pivots > 0, "dual-simplex restore never ran");
    assert!(stats.prune_micros > 0, "prune time must be accounted");
}

#[test]
fn dominance_strategy_is_thread_count_independent_on_fft() {
    // fft takes the dominance strategy. Two analyses in one process must
    // agree on the partition and on every work counter, and the simplex
    // must actually pivot: a kernel that never pivots would leave the
    // same counts on both runs and pass the comparison anyway.
    let fft = offload_benchmarks::all()
        .into_iter()
        .find(|b| b.name == "fft")
        .expect("fft is a stock benchmark");
    let runs: Vec<_> = (0..2)
        .map(|_| {
            let a = fft.analyze().expect("analysis succeeds");
            (a.partition.choices.clone(), a.pipeline_stats())
        })
        .collect();
    let (choices, stats) = &runs[0];
    assert!(stats.lp_pivots > 0, "the simplex made no pivot");
    let (again, again_stats) = &runs[1];
    assert_eq!(choices, again, "repeated analysis: partition diverged");
    assert_eq!(
        stats.work_counters(),
        again_stats.work_counters(),
        "repeated analysis: work counters diverged"
    );
}

#[test]
fn pipeline_stats_are_populated_on_the_exact_path() {
    let a = analyze_with(PROGRAMS[0], SolveOptions::default());
    let p: PipelineStats = a.pipeline_stats();
    assert!(p.flow_solves > 0, "min-cut work must be counted");
    assert!(p.lp_solves > 0, "LP work must be counted");
    assert!(p.rounds > 0, "worklist rounds must be counted");
    assert!(p.regions_explored as usize >= a.partition.choices.len());
}

#[test]
fn concurrent_analyses_report_their_own_counters() {
    // Each solve counts into its own record, so two analyses running at
    // once in one process must each report exactly the work counters they
    // report when run alone.
    let benches: Vec<_> = offload_benchmarks::all()
        .into_iter()
        .filter(|b| b.name == "rawcaudio" || b.name == "fft")
        .collect();
    assert_eq!(benches.len(), 2);
    let run = |b: &offload_benchmarks::Benchmark| {
        b.analyze()
            .expect("analysis succeeds")
            .pipeline_stats()
            .work_counters()
    };
    let alone: Vec<_> = benches.iter().map(run).collect();
    // Both analyses leave the barrier together, so their solves overlap.
    let start = std::sync::Barrier::new(benches.len());
    let together: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = benches
            .iter()
            .map(|b| {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    run(b)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for ((b, a), t) in benches.iter().zip(&alone).zip(&together) {
        assert_eq!(a, t, "{}: concurrent analysis saw foreign counts", b.name);
    }
}

/// The symbolic pass's parameter dictionary as text: its monomials in id
/// order, then its dummies' origins. Loop probing's temporary atoms
/// (`Dummy(1_000_000 + k)`) print as `probe`, because the digests below
/// were recorded when their numbering followed hash order;
/// `parameter_dictionary_repeats_within_a_process` checks them raw.
fn symbolic_dict_text(bench: &offload_benchmarks::Benchmark) -> (usize, String) {
    use offload_symbolic::{Atom, MonomialId};
    let checked = offload_lang::frontend(&bench.source).expect("front end accepts");
    let module = offload_ir::lower(&checked);
    let pta = offload_pta::PointsTo::analyze(&module);
    let dict = offload_symbolic::Symbolic::analyze(&module, pta.indirect_targets()).dict;
    let mut text = String::new();
    for m in 0..dict.monomial_count() {
        for atom in dict.atoms(MonomialId(m as u32)) {
            match atom {
                Atom::Param(i) => text += &format!("p{i} "),
                Atom::Dummy(d) if *d >= 1_000_000 => text += "probe ",
                Atom::Dummy(d) => text += &format!("d{d} "),
            }
        }
        text.push('\n');
    }
    for origin in dict.dummies() {
        text += &format!("{origin:?}\n");
    }
    (dict.monomial_count(), text)
}

/// 64-bit FNV-1a.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn symbolic_interning_order_is_pinned() {
    // Recorded before the symbolic fixpoint stopped re-transferring
    // unchanged blocks: monomial and dummy ids are positions in the
    // parameter space, so any change to the order in which the pass
    // interns them fails here.
    let pinned = [
        (offload_benchmarks::susan(), 611, 0x24ed_1474_08c3_5d37),
        (offload_benchmarks::fft(), 310, 0xf1c1_db3d_6190_344d),
    ];
    for (bench, monomials, digest) in pinned {
        let (count, text) = symbolic_dict_text(&bench);
        assert_eq!(count, monomials, "{}: monomial count", bench.name);
        assert_eq!(fnv1a(&text), digest, "{}: dictionary digest", bench.name);
    }
}

#[test]
fn parameter_dictionary_repeats_within_a_process() {
    // Each analysis in one process sees differently seeded hash maps.
    // Monomial ids are dimensions of the parameter space, so the whole
    // dictionary, loop-probe atoms included, must come out the same
    // every time.
    let benches = [
        offload_benchmarks::encode(),
        offload_benchmarks::decode(),
        offload_benchmarks::fft(),
        offload_benchmarks::susan(),
    ];
    for bench in benches {
        let dict = || {
            let a = bench.analyze().expect("analysis succeeds");
            format!("{:#?}", a.symbolic.dict)
        };
        let first = dict();
        for run in 1..4 {
            let again = dict();
            let diverged = first.lines().zip(again.lines()).position(|(a, b)| a != b);
            assert!(
                first == again,
                "{}: analysis {run}'s dictionary differs from the first's (line {diverged:?})",
                bench.name
            );
        }
    }
}
