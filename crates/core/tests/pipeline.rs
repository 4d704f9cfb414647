//! End-to-end tests of the parametric partitioning pipeline.

use offload_core::{Analysis, AnalysisOptions, CostModel, ParamBounds, SolveOptions};
use offload_poly::Rational;

fn analyze(src: &str) -> Analysis {
    Analysis::from_source(src, AnalysisOptions::default()).expect("analysis succeeds")
}

#[test]
fn trivial_program_single_local_choice() {
    let a = analyze("void main() { output(42); }");
    assert_eq!(a.partition.choices.len(), 1);
    assert!(
        a.partition.choices[0].is_all_local(),
        "I/O pins the only task to the client"
    );
    assert_eq!(a.select(&[]).unwrap(), 0);
}

#[test]
fn pure_compute_helper_offloads_for_large_inputs() {
    let a = analyze(
        "int work(int k) {
             int j; int acc;
             acc = 0;
             for (j = 0; j < k; j++) { acc = acc + j * j; }
             return acc;
         }
         void main(int n) { output(work(n)); }",
    );
    assert!(a.partition.choices.len() >= 2, "{}", a.describe_choices());
    let small = a.select(&[1]).unwrap();
    let large = a.select(&[1_000_000]).unwrap();
    assert!(a.partition.choices[small].is_all_local());
    assert!(!a.partition.choices[large].is_all_local());
    // The offloaded choice sends the worker to the server but keeps the
    // I/O task on the client.
    let offloaded = &a.partition.choices[large];
    let work = a.module.func_by_name("work").unwrap();
    let server_funcs: Vec<_> = offloaded
        .server_task_ids()
        .iter()
        .map(|t| a.tcfg.task(*t).func)
        .collect();
    assert!(server_funcs.contains(&work));
    for (i, t) in a.tcfg.tasks().iter().enumerate() {
        if t.is_io {
            assert!(!offloaded.server_tasks[i], "I/O tasks stay on the client");
        }
    }
}

#[test]
fn regions_partition_declared_space() {
    let a = analyze(
        "int work(int k) {
             int j; int acc;
             acc = 0;
             for (j = 0; j < k; j++) { acc = acc + j * j; }
             return acc;
         }
         void main(int n) { output(work(n)); }",
    );
    // Probe many parameter values: exactly one region should claim each.
    for n in [0i64, 1, 10, 100, 1000, 10_000, 100_000, 1_000_000] {
        let params = [Rational::from(n)];
        let point = a.dispatcher.dim_point(&a.network, &params).unwrap();
        let holders = a
            .partition
            .choices
            .iter()
            .filter(|c| c.region.contains(&point))
            .count();
        assert_eq!(holders, 1, "n={n}: point must lie in exactly one region");
    }
}

#[test]
fn selected_choice_is_cheapest() {
    let a = analyze(
        "int work(int k) {
             int j; int acc;
             acc = 0;
             for (j = 0; j < k; j++) { acc = acc + j * j; }
             return acc;
         }
         void main(int n) { output(work(n)); }",
    );
    for n in [1i64, 64, 512, 4096, 65536] {
        let chosen = a.select(&[n]).unwrap();
        let params = [Rational::from(n)];
        let point = a.dispatcher.dim_point(&a.network, &params).unwrap();
        let chosen_cost =
            offload_core::cut_cost_at(&a.network, &a.partition.choices[chosen], &point)
                .expect("finite");
        for (i, c) in a.partition.choices.iter().enumerate() {
            if let Some(v) = offload_core::cut_cost_at(&a.network, c, &point) {
                assert!(
                    chosen_cost <= v,
                    "n={n}: choice {chosen} ({chosen_cost}) beaten by {i} ({v})"
                );
            }
        }
    }
}

#[test]
fn figure1_produces_parameter_dependent_choices() {
    let a = analyze(offload_lang::examples_src::FIGURE1);
    // No annotations needed for Figure 1.
    assert!(a.missing_annotations().is_empty());
    // Different (x, y, z) corners select different partitionings, as in
    // the paper's worked example: heavy per-unit work (large z) favors
    // offloading the encoder; tiny work keeps everything local.
    let local = a.select(&[4, 64, 1]).unwrap();
    let heavy = a.select(&[4, 64, 100_000]).unwrap();
    assert_ne!(local, heavy, "{}", a.describe_choices());
    assert!(a.partition.choices[local].is_all_local());
    let g = a.module.func_by_name("g_fast").unwrap();
    let heavy_choice = &a.partition.choices[heavy];
    let server_funcs: Vec<_> = heavy_choice
        .server_task_ids()
        .iter()
        .map(|t| a.tcfg.task(*t).func)
        .collect();
    assert!(
        server_funcs.contains(&g),
        "large z offloads the encoder\n{}",
        a.describe_choices()
    );
}

#[test]
fn figure1_transfers_buffers_not_garbage() {
    let a = analyze(offload_lang::examples_src::FIGURE1);
    let heavy = a.select(&[4, 64, 100_000]).unwrap();
    let choice = &a.partition.choices[heavy];
    // Some edge carries a client-to-server transfer (inbuf) and some edge
    // carries a server-to-client transfer (outbuf).
    let dirs: std::collections::HashSet<offload_core::Direction> =
        choice.transfers.iter().flatten().map(|(_, d)| *d).collect();
    assert!(
        dirs.contains(&offload_core::Direction::ClientToServer),
        "input buffer must move to the server"
    );
    assert!(
        dirs.contains(&offload_core::Direction::ServerToClient),
        "output buffer must come back"
    );
}

#[test]
fn degeneracy_reduction_reduces_or_keeps() {
    let src = "int work(int k) {
                   int j; int acc;
                   acc = 0;
                   for (j = 0; j < k; j++) { acc = acc + j * j; }
                   return acc;
               }
               void main(int n) { output(work(n)); }";
    let opts = AnalysisOptions {
        solve: SolveOptions {
            reduce_degeneracy: false,
            ..Default::default()
        },
        ..Default::default()
    };
    let without = Analysis::from_source(src, opts).unwrap();
    let with = analyze(src);
    assert!(with.partition.choices.len() <= without.partition.choices.len());
}

/// The §5.2 degeneracy reduction runs inside the solve's counted work:
/// every LP the solve issues on its thread is in its own record.
#[test]
fn solve_counters_include_the_degeneracy_reduction() {
    for bench in [
        offload_benchmarks::rawcaudio(),
        offload_benchmarks::rawdaudio(),
    ] {
        let a = bench.analyze().expect("analysis succeeds");
        let opts = SolveOptions {
            region_strategy: bench.region_strategy(),
            ..SolveOptions::default()
        };
        let (p, outer) = offload_obs::tallied(|| {
            offload_core::solve(&a.network, &a.tcfg, a.items.items.len(), &opts)
                .expect("solve succeeds")
        });
        assert!(outer.lp_solves > 0, "{}: no LP issued", bench.name);
        assert_eq!(
            outer.lp_solves, p.stats.pipeline.lp_solves,
            "{}: LPs the solve's record missed",
            bench.name
        );
    }
}

#[test]
fn simplification_does_not_change_decisions() {
    let src = "int work(int k) {
                   int j; int acc;
                   acc = 0;
                   for (j = 0; j < k; j++) { acc = acc + j * j; }
                   return acc;
               }
               void main(int n) { output(work(n)); }";
    let opts = AnalysisOptions {
        solve: SolveOptions {
            simplify: false,
            ..Default::default()
        },
        ..Default::default()
    };
    let plain = Analysis::from_source(src, opts).unwrap();
    let simplified = analyze(src);
    for n in [1i64, 100, 10_000, 1_000_000] {
        let a = plain.partition.choices[plain.select(&[n]).unwrap()].is_all_local();
        let b = simplified.partition.choices[simplified.select(&[n]).unwrap()].is_all_local();
        assert_eq!(a, b, "n={n}");
    }
}

#[test]
fn param_bounds_respected() {
    // With an upper bound keeping n tiny, the all-local choice covers the
    // whole space.
    let src = "int work(int k) {
                   int j; int acc;
                   acc = 0;
                   for (j = 0; j < k; j++) { acc = acc + j * j; }
                   return acc;
               }
               void main(int n) { output(work(n)); }";
    let opts = AnalysisOptions {
        bounds: ParamBounds::uniform(1, 0, Some(4)),
        ..Default::default()
    };
    let a = Analysis::from_source(src, opts).unwrap();
    assert_eq!(a.partition.choices.len(), 1, "{}", a.describe_choices());
    assert!(a.partition.choices[0].is_all_local());
}

#[test]
fn zero_communication_model_offloads_everything_possible() {
    // With free communication and a fast server, every non-I/O task
    // should land on the server for large inputs.
    let mut cost = CostModel::ipaq_testbed();
    cost.send_startup_c2s = Rational::zero();
    cost.send_unit_c2s = Rational::zero();
    cost.send_startup_s2c = Rational::zero();
    cost.send_unit_s2c = Rational::zero();
    cost.sched_c2s = Rational::zero();
    cost.sched_s2c = Rational::zero();
    let opts = AnalysisOptions {
        cost,
        ..Default::default()
    };
    let a = Analysis::from_source(
        "int work(int k) {
             int j; int acc;
             acc = 0;
             for (j = 0; j < k; j++) { acc = acc + j * j; }
             return acc;
         }
         void main(int n) { output(work(n)); }",
        opts,
    )
    .unwrap();
    let idx = a.select(&[1000]).unwrap();
    let choice = &a.partition.choices[idx];
    let work = a.module.func_by_name("work").unwrap();
    let worker_tasks: Vec<usize> = a
        .tcfg
        .tasks()
        .iter()
        .enumerate()
        .filter(|(_, t)| t.func == work && !t.is_io)
        .map(|(i, _)| i)
        .collect();
    assert!(
        worker_tasks.iter().all(|&i| choice.server_tasks[i]),
        "free communication: compute tasks go to the faster server\n{}",
        a.describe_choices()
    );
}

#[test]
fn guards_render_readably() {
    let a = analyze(
        "int work(int k) {
             int j; int acc;
             acc = 0;
             for (j = 0; j < k; j++) { acc = acc + j * j; }
             return acc;
         }
         void main(int n) { output(work(n)); }",
    );
    let guards = a.guards();
    assert_eq!(guards.len(), a.partition.choices.len());
    assert!(
        guards.iter().any(|g| g.contains('n')),
        "guards mention the parameter: {guards:?}"
    );
}

#[test]
fn analysis_time_recorded() {
    let a = analyze("void main() { output(1); }");
    assert!(a.analysis_time.as_nanos() > 0);
}
