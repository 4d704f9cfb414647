//! Determinism contracts of the region-exploration engine.
//!
//! The parallel worklist must produce bit-identical partitions for every
//! thread count (parallelism only decides *who* computes each piece,
//! never *which* results exist), the cut-signature cache must be a pure
//! memoization (identical output on and off), and the whole analysis must
//! be reproducible run to run within one process (no hash-iteration
//! ordering may leak into the output).

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
fn parallel_partition_is_bit_identical_to_sequential() {
    for (i, src) in PROGRAMS.iter().enumerate() {
        let seq = analyze_with(
            src,
            SolveOptions {
                threads: 1,
                ..Default::default()
            },
        );
        for threads in [2, 4, 8] {
            let par = analyze_with(
                src,
                SolveOptions {
                    threads,
                    ..Default::default()
                },
            );
            assert_eq!(
                seq.partition.choices, par.partition.choices,
                "program {i}: threads={threads} diverged from sequential"
            );
        }
    }
}

#[test]
fn parallel_work_counters_are_scheduling_independent() {
    // Every piece is explored in every round regardless of thread count,
    // so even the flow-layer effort counters must match exactly. The
    // `work_counters` view masks the legitimately run-dependent fields
    // (thread count, wall times), so the whole record must compare equal.
    for src in PROGRAMS {
        let seq = analyze_with(
            src,
            SolveOptions {
                threads: 1,
                ..Default::default()
            },
        );
        let par = analyze_with(
            src,
            SolveOptions {
                threads: 4,
                ..Default::default()
            },
        );
        let (s, p) = (seq.pipeline_stats(), par.pipeline_stats());
        assert_eq!(s.flow_solves, p.flow_solves);
        assert_eq!(s.flow_phases, p.flow_phases);
        assert_eq!(s.flow_augmenting_paths, p.flow_augmenting_paths);
        assert_eq!(s.rounds, p.rounds);
        assert_eq!(s.regions_explored, p.regions_explored);
        assert_eq!(s.work_counters(), p.work_counters());
        assert_ne!(
            s.threads_used, p.threads_used,
            "the masked field really differs"
        );
    }
}

#[test]
fn threads_used_reports_the_configured_worker_count() {
    // `threads_used` records the resolved configuration on every
    // strategy: dominance fans its probe storm across the same pool.
    for threads in [1usize, 2, 3] {
        let a = analyze_with(
            PROGRAMS[0],
            SolveOptions {
                threads,
                ..Default::default()
            },
        );
        let p = a.pipeline_stats();
        assert_eq!(p.threads_used as usize, threads);
    }
    let dom = analyze_with(
        PROGRAMS[0],
        SolveOptions {
            threads: 2,
            region_strategy: offload_core::RegionStrategy::Dominance,
            ..Default::default()
        },
    );
    let p = dom.pipeline_stats();
    assert_eq!(
        p.threads_used, 2,
        "dominance still reports the configured count"
    );
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
    }
}

#[test]
fn incremental_prune_counters_fire_and_are_thread_count_independent() {
    // The warm-started redundancy pipeline must (a) actually run on a
    // real evaluation program — every ladder stage fires, so none of the
    // counters may be zero — and (b) do *identical* work at every thread
    // count: the intra-piece parallel split only changes who verifies
    // each candidate, never which checks happen.
    let bench = offload_benchmarks::all()
        .into_iter()
        .find(|b| b.name == "rawcaudio")
        .expect("rawcaudio is a stock benchmark");
    let mut runs = Vec::new();
    for threads in [1usize, 2, 4] {
        let a = bench
            .analyze_with(SolveOptions {
                threads,
                ..Default::default()
            })
            .expect("analysis succeeds");
        runs.push((threads, a.pipeline_stats(), a.partition.choices.clone()));
    }
    let (_, first, choices) = &runs[0];
    assert!(first.prefilter_hits() > 0, "pre-filter ladder never fired");
    assert!(first.lp_warm_starts > 0, "incremental LP never consulted");
    assert!(first.dual_pivots > 0, "dual-simplex restore never ran");
    assert!(first.prune_micros > 0, "prune time must be accounted");
    for (threads, stats, ch) in &runs[1..] {
        assert_eq!(choices, ch, "threads={threads}: partition diverged");
        for (name, a, b) in [
            (
                "prefilter_hits",
                first.prefilter_hits(),
                stats.prefilter_hits(),
            ),
            ("lp_warm_starts", first.lp_warm_starts, stats.lp_warm_starts),
            ("dual_pivots", first.dual_pivots, stats.dual_pivots),
            ("lp_pivots", first.lp_pivots, stats.lp_pivots),
            ("lp_solves", first.lp_solves, stats.lp_solves),
            ("fm_constraints", first.fm_constraints, stats.fm_constraints),
        ] {
            assert_eq!(a, b, "threads={threads}: {name} depends on thread count");
        }
    }
}

#[test]
fn dominance_strategy_is_thread_count_independent_on_fft() {
    // fft takes the dominance strategy, whose probe storm fans out across
    // the solver threads. Its partition and every work counter must be
    // the same at every thread count, and the f64 shadow must actually
    // propose the pivots: a shadow that never engages would leave the
    // same counts at every thread count and pass the comparison anyway.
    let fft = offload_benchmarks::all()
        .into_iter()
        .find(|b| b.name == "fft")
        .expect("fft is a stock benchmark");
    let runs: Vec<_> = [1usize, 2, 4]
        .into_iter()
        .map(|threads| {
            let a = fft
                .analyze_with(SolveOptions {
                    threads,
                    ..Default::default()
                })
                .expect("analysis succeeds");
            (threads, a.partition.choices.clone(), a.pipeline_stats())
        })
        .collect();
    let (_, choices, stats) = &runs[0];
    assert!(stats.shadow_certified > 0, "the shadow certified nothing");
    for (threads, ch, st) in &runs[1..] {
        assert_eq!(choices, ch, "threads={threads}: partition diverged");
        assert_eq!(
            stats.work_counters(),
            st.work_counters(),
            "threads={threads}: work counters diverged"
        );
    }
}

#[test]
fn pipeline_stats_are_populated_on_the_exact_path() {
    let a = analyze_with(
        PROGRAMS[0],
        SolveOptions {
            threads: 2,
            ..Default::default()
        },
    );
    let p: PipelineStats = a.pipeline_stats();
    assert!(p.flow_solves > 0, "min-cut work must be counted");
    assert!(p.lp_solves > 0, "LP work must be counted");
    assert!(p.rounds > 0, "worklist rounds must be counted");
    assert!(p.regions_explored as usize >= a.partition.choices.len());
    assert_eq!(p.threads_used, 2);
}

#[test]
fn concurrent_analyses_report_their_own_counters() {
    // Each solve counts into its own record, so two analyses running at
    // once in one process must each report exactly what they report when
    // run alone: every work counter, and the LP cache hits (the solver
    // clears its thread's cache on entry, so at one solver thread those
    // repeat exactly too).
    let benches: Vec<_> = offload_benchmarks::all()
        .into_iter()
        .filter(|b| b.name == "rawcaudio" || b.name == "fft")
        .collect();
    assert_eq!(benches.len(), 2);
    let run = |b: &offload_benchmarks::Benchmark| {
        let p = b
            .analyze_with(SolveOptions {
                threads: 1,
                ..Default::default()
            })
            .expect("analysis succeeds")
            .pipeline_stats();
        (p.work_counters(), p.lp_cache_hits)
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
