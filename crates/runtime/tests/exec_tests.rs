//! Tests of the distributed executor: interpreter correctness on the
//! client-only plan, and the central invariant that any partitioning plan
//! preserves observable behaviour.

use offload_core::{Analysis, AnalysisOptions};
use offload_ir::{FuncId, LocalId};
use offload_pta::AbsLocId;
use offload_runtime::{
    ControlMsg, DeviceModel, ExecHost, Host, HostError, ItemPayload, Machine, Plan, Runner,
    RuntimeError, Simulator, Value, MAX_DYN_SLOTS,
};

fn analysis(src: &str) -> Analysis {
    Analysis::from_source(src, AnalysisOptions::default()).expect("analysis")
}

fn run_local(src: &str, params: &[i64], input: &[i64]) -> Vec<i64> {
    let a = analysis(src);
    let sim = Simulator::new(&a, DeviceModel::ipaq_testbed());
    sim.run_local(params, input).expect("run").outputs
}

#[test]
fn arithmetic_and_control_flow() {
    let out = run_local(
        "void main(int n) {
             int i; int acc;
             acc = 0;
             for (i = 1; i <= n; i++) {
                 if (i % 2 == 0) { acc = acc + i; } else { acc = acc - i; }
             }
             output(acc);
         }",
        &[10],
        &[],
    );
    // -1+2-3+4-5+6-7+8-9+10 = 5
    assert_eq!(out, vec![5]);
}

#[test]
fn arrays_and_pointers() {
    let out = run_local(
        "int buf[8];
         void main() {
             int i;
             int *p;
             for (i = 0; i < 8; i++) { buf[i] = i * i; }
             p = &buf[3];
             output(*p);
             *p = 100;
             output(buf[3]);
         }",
        &[],
        &[],
    );
    assert_eq!(out, vec![9, 100]);
}

#[test]
fn structs_and_dynamic_lists() {
    let out = run_local(offload_lang::examples_src::FIGURE4, &[6], &[]);
    // Sum of indices 0..5 = 15.
    assert_eq!(out, vec![15]);
}

#[test]
fn input_stream_consumed_in_order() {
    let out = run_local(
        "void main(int n) {
             int i; int v; int acc;
             acc = 0;
             for (i = 0; i < n; i++) { v = input(); acc = acc + v; }
             output(acc);
         }",
        &[3],
        &[10, 20, 30],
    );
    assert_eq!(out, vec![60]);
}

#[test]
fn input_exhaustion_is_an_error() {
    let a = analysis("void main() { output(input()); }");
    let sim = Simulator::new(&a, DeviceModel::ipaq_testbed());
    let err = sim.run_local(&[], &[]).unwrap_err();
    assert!(err.to_string().contains("input stream exhausted"));
}

#[test]
fn division_by_zero_detected() {
    let a = analysis("void main(int n) { output(10 / n); }");
    let sim = Simulator::new(&a, DeviceModel::ipaq_testbed());
    let err = sim.run_local(&[0], &[]).unwrap_err();
    assert!(err.to_string().contains("division by zero"));
    assert_eq!(sim.run_local(&[2], &[]).unwrap().outputs, vec![5]);
}

#[test]
fn function_pointers_dispatch() {
    let out = run_local(
        "int twice(int x) { return 2 * x; }
         int thrice(int x) { return 3 * x; }
         void main(int mode, int v) {
             fn g;
             if (mode == 1) { g = &twice; } else { g = &thrice; }
             output(g(v));
         }",
        &[1, 7],
        &[],
    );
    assert_eq!(out, vec![14]);
}

#[test]
fn recursion_rejected() {
    let a = analysis(
        "int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
         void main(int n) { output(fact(n)); }",
    );
    let sim = Simulator::new(&a, DeviceModel::ipaq_testbed());
    let err = sim.run_local(&[5], &[]).unwrap_err();
    assert!(err.to_string().contains("recursion"), "{err}");
}

#[test]
fn figure1_local_encodes() {
    let a = analysis(offload_lang::examples_src::FIGURE1);
    let sim = Simulator::new(&a, DeviceModel::ipaq_testbed());
    // x=2 frames of y=3 samples, z=4 increments per unit.
    let input = vec![5, 6, 7, 8, 9, 10];
    let r = sim.run_local(&[2, 3, 4], &input).unwrap();
    assert_eq!(r.outputs, vec![9, 10, 11, 12, 13, 14]);
    assert_eq!(r.stats.messages, 0, "local run exchanges no messages");
}

#[test]
fn every_choice_preserves_outputs() {
    let a = analysis(offload_lang::examples_src::FIGURE1);
    let sim = Simulator::new(&a, DeviceModel::ipaq_testbed());
    let params = [2i64, 3, 4];
    let input = vec![5, 6, 7, 8, 9, 10];
    let local = sim.run_local(&params, &input).unwrap();
    for (i, _) in a.partition.choices.iter().enumerate() {
        let r = sim.run_choice(i, &params, &input).unwrap();
        assert_eq!(
            r.outputs, local.outputs,
            "choice {i} must behave identically"
        );
    }
}

#[test]
fn offloaded_run_exchanges_messages() {
    let a = analysis(offload_lang::examples_src::FIGURE1);
    let sim = Simulator::new(&a, DeviceModel::ipaq_testbed());
    // Force a non-local choice if one exists.
    if let Some((i, _)) = a
        .partition
        .choices
        .iter()
        .enumerate()
        .find(|(_, c)| !c.is_all_local())
    {
        let r = sim
            .run_choice(i, &[2, 3, 50], &(5..=10).collect::<Vec<_>>())
            .unwrap();
        assert!(r.stats.messages > 0);
        assert!(r.stats.server_compute > offload_poly::Rational::zero());
    }
}

#[test]
fn dispatched_run_matches_local_output() {
    let a = analysis(offload_lang::examples_src::FIGURE1);
    let sim = Simulator::new(&a, DeviceModel::ipaq_testbed());
    for z in [1i64, 10, 1000] {
        let params = [2i64, 3, z];
        let input = vec![1, 2, 3, 4, 5, 6];
        let local = sim.run_local(&params, &input).unwrap();
        let (_, dispatched) = sim.run_dispatched(&params, &input).unwrap();
        assert_eq!(dispatched.outputs, local.outputs, "z={z}");
    }
}

#[test]
fn heavy_work_runs_faster_offloaded() {
    let src = "int work(int k) {
                   int j; int acc;
                   acc = 0;
                   for (j = 0; j < k; j++) { acc = acc + j * j; }
                   return acc;
               }
               void main(int n) { output(work(n)); }";
    let a = analysis(src);
    let sim = Simulator::new(&a, DeviceModel::ipaq_testbed());
    let n = 100_000i64;
    let local = sim.run_local(&[n], &[]).unwrap();
    let (idx, dispatched) = sim.run_dispatched(&[n], &[]).unwrap();
    assert!(!a.partition.choices[idx].is_all_local());
    assert!(
        dispatched.stats.total_time < local.stats.total_time,
        "offloading must pay off for n={n}: {} vs {}",
        dispatched.stats.total_time.to_f64(),
        local.stats.total_time.to_f64()
    );
    assert_eq!(dispatched.outputs, local.outputs);
}

#[test]
fn light_work_runs_faster_locally() {
    let src = "int work(int k) {
                   int j; int acc;
                   acc = 0;
                   for (j = 0; j < k; j++) { acc = acc + j * j; }
                   return acc;
               }
               void main(int n) { output(work(n)); }";
    let a = analysis(src);
    let sim = Simulator::new(&a, DeviceModel::ipaq_testbed());
    let (idx, _) = sim.run_dispatched(&[3], &[]).unwrap();
    assert!(
        a.partition.choices[idx].is_all_local(),
        "tiny input stays local"
    );
}

#[test]
fn energy_accounting_consistent() {
    let a = analysis("void main(int n) { int i; int s; s = 0; for (i = 0; i < n; i++) { s = s + i; } output(s); }");
    let sim = Simulator::new(&a, DeviceModel::ipaq_testbed());
    let r = sim.run_local(&[100], &[]).unwrap();
    // All-local: client busy the whole time, energy = time * active power.
    let expected = &r.stats.total_time * &sim.device().client_active_power;
    assert_eq!(r.stats.energy, expected);
}

#[test]
fn step_limit_guards_infinite_loops() {
    let a = analysis("void main() { while (1) { } output(1); }");
    let mut tracked: Vec<offload_pta::AbsLocId> = Vec::new();
    tracked.extend(a.items.items.iter().map(|i| i.loc));
    let device = DeviceModel::ipaq_testbed();
    let runner = offload_runtime::Runner {
        module: &a.module,
        tcfg: &a.tcfg,
        pta: &a.pta,
        tracked_order: &tracked,
        device: &device,
        plan: offload_runtime::Plan::AllLocal,
        max_steps: 10_000,
    };
    let err = runner.run(&[], &[]).unwrap_err();
    assert!(matches!(err, RuntimeError::StepLimit(_)));
}

#[test]
fn out_of_bounds_param_dispatches_via_fallback_and_runs_correctly() {
    // A parameter outside the declared bounds (n >= 0) lies outside every
    // recorded optimality region: the dispatcher's cheapest-cut fallback
    // must still pick a runnable plan, and the run must match all-local
    // output exactly.
    let src = "int work(int k) {
                   int j; int acc;
                   acc = 0;
                   for (j = 0; j < k; j++) { acc = acc + j * j; }
                   return acc;
               }
               void main(int n) { output(work(n)); }";
    let a = analysis(src);
    let params = [-7i64];
    for c in &a.partition.choices {
        assert!(
            !a.dispatcher
                .region_contains(&a.network, c, &params)
                .unwrap(),
            "the point must be outside every region for this test"
        );
    }
    let sim = Simulator::new(&a, DeviceModel::ipaq_testbed());
    let (idx, dispatched) = sim.run_dispatched(&params, &[]).unwrap();
    assert_eq!(idx, a.select(&params).unwrap(), "same fallback choice");
    let local = sim.run_local(&params, &[]).unwrap();
    assert_eq!(dispatched.outputs, local.outputs, "fallback run is correct");
}

/// A peer that answers every fetch with a register of a function that
/// does not exist, and accepts every push.
struct ForeignPeer;

impl ExecHost for ForeignPeer {
    fn fetch_item(&mut self, _item: AbsLocId) -> Result<ItemPayload, HostError> {
        Ok(ItemPayload::Reg {
            func: FuncId(9999),
            local: LocalId(0),
            value: Value::Int(1),
        })
    }

    fn push_item(&mut self, _item: AbsLocId, _payload: ItemPayload) -> Result<(), HostError> {
        Ok(())
    }
}

#[test]
fn a_fetched_payload_foreign_to_its_item_is_a_link_error() {
    // A peer's reply is outside input like any frame: the pulled payload
    // must be storage of the item it was fetched for before it is
    // installed, or the run fails as a link failure instead of writing
    // (or indexing) storage the item does not own.
    let a = analysis(
        "int work(int k) { int j; int acc; acc = 0;
             for (j = 0; j < k; j++) { acc = acc + j * j % 1000; }
             return acc; }
         void main(int n) { int r; r = work(n); output(r + work(n)); }",
    );
    let tracked: Vec<AbsLocId> = a.items.items.iter().map(|i| i.loc).collect();
    assert!(!tracked.is_empty(), "the program must track items");
    let device = DeviceModel::ipaq_testbed();
    let runner = Runner {
        module: &a.module,
        tcfg: &a.tcfg,
        pta: &a.pta,
        tracked_order: &tracked,
        device: &device,
        plan: Plan::AllLocal,
        max_steps: 0,
    };
    let mut client = Machine::new(&runner, Host::Client, &[5], &[]);
    // Every tracked item starts out valid only on the peer, so the first
    // read of one pulls it.
    let mut start = ControlMsg::start();
    start.valid = tracked.iter().map(|&item| (item, [false, true])).collect();
    match client.run_turn(start, &mut ForeignPeer) {
        Err(RuntimeError::HostLink(msg)) => assert!(msg.contains("does not match"), "{msg}"),
        Err(e) => panic!("expected a link failure, got {e}"),
        Ok(_) => panic!("a foreign payload was installed"),
    }
}

#[test]
fn address_offsets_past_u32_are_refused() {
    // Slot offsets are `u32`, and neither address instruction may wrap
    // one around to another element: at `n = u32::MAX / 3`, `a[n]` lands
    // exactly on slot `u32::MAX` and the field offset of `z` goes past
    // it; at the larger `n`, `n × 3` itself wraps `i64` round to slot 2.
    let a = analysis(
        "struct T { int x; int y; int z; };
         struct T a[2];
         void main(int n) {
             int i;
             for (i = 0; i < 2; i++) { a[i].x = i + 10; a[i].y = i + 11; a[i].z = i + 12; }
             output(a[n].z);
         }",
    );
    let sim = Simulator::new(&a, DeviceModel::ipaq_testbed());
    assert_eq!(sim.run_local(&[1], &[]).expect("in bounds").outputs, [13]);
    for n in [i64::from(u32::MAX / 3), (i64::MAX / 3) * 2 + 2] {
        match sim.run_local(&[n], &[]) {
            Err(offload_runtime::SimError::Runtime(RuntimeError::BadAccess(_))) => {}
            other => panic!("n = {n}: expected BadAccess, got {other:?}"),
        }
    }
}

#[test]
fn own_allocations_count_against_the_slot_cap() {
    // A program's own `alloc`s draw on the same budget of dynamic slots
    // as the objects a peer's `dyn_table` materializes, and a total past
    // it is refused before anything is allocated.
    let a = analysis(
        "void main(int n, int m) {
             int *p; int *q;
             p = alloc(int, n);
             q = alloc(int, m);
             p[0] = 4; q[0] = 5;
             output(p[0] + q[0]);
         }",
    );
    let sim = Simulator::new(&a, DeviceModel::ipaq_testbed());
    assert_eq!(sim.run_local(&[3, 2], &[]).expect("small").outputs, [9]);
    let cap = MAX_DYN_SLOTS as i64;
    for params in [[cap + 1, 1], [cap / 2 + 1, cap / 2 + 1]] {
        match sim.run_local(&params, &[]) {
            Err(offload_runtime::SimError::Runtime(RuntimeError::BadAccess(msg))) => {
                assert!(msg.contains("cap"), "{msg}");
            }
            other => panic!("{params:?}: expected BadAccess, got {other:?}"),
        }
    }
}
