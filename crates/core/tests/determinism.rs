//! Determinism contracts of the region-exploration engine.
//!
//! The cut-signature cache must be a pure memoization (identical output
//! on and off), and the whole analysis must be reproducible run to run
//! within one process (no hash-iteration ordering may leak into the
//! output or the work counters).

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
fn cut_cache_does_not_change_the_partition() {
    for (i, src) in PROGRAMS.iter().enumerate() {
        let cached = analyze_with(
            src,
            SolveOptions {
                cut_cache: true,
                ..Default::default()
            },
        );
        let raw = analyze_with(
            src,
            SolveOptions {
                cut_cache: false,
                ..Default::default()
            },
        );
        assert_eq!(
            cached.partition.choices, raw.partition.choices,
            "program {i}: cache changed the output"
        );
        let off = raw.pipeline_stats();
        assert_eq!(off.cache_hits, 0, "disabled cache must never report hits");
        assert_eq!(
            off.cache_misses, 0,
            "disabled cache must never report misses"
        );
    }
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
    // agree on the partition and on every work counter, and the f64
    // shadow must actually propose the pivots: a shadow that never
    // engages would leave the same counts on both runs and pass the
    // comparison anyway.
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
    assert!(stats.shadow_certified > 0, "the shadow certified nothing");
    let (again, again_stats) = &runs[1];
    assert_eq!(choices, again, "repeated analysis: partition diverged");
    assert_eq!(
        stats.work_counters(),
        again_stats.work_counters(),
        "repeated analysis: work counters diverged"
    );
}

#[test]
fn a_solve_leaves_no_lp_cache_on_its_thread() {
    // The solve runs on this test's thread and clears the thread's LP
    // result cache on entry; it must also free it on the way out.
    let fft = offload_benchmarks::fft()
        .analyze()
        .expect("analysis succeeds");
    assert!(
        fft.pipeline_stats().lp_cache_hits > 0,
        "the solve never used its LP cache"
    );
    assert_eq!(
        offload_poly::lp_cache_cells(),
        0,
        "the solve left its LP cache on the thread"
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
