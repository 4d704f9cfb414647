//! Golden values for the runtime's exact cost ledger.
//!
//! The interpreter charges every instruction, cache penalty, registration
//! and message into one exact rational account (`offload_runtime::Ledger`)
//! that rides each control transfer. How the charges are grouped on the
//! way in is an implementation detail; the account is not. These goldens
//! pin it bit for bit, each `Rational` as its exact string:
//!
//! * the six Table 3 programs at small points: the all-local run and every
//!   partitioning choice, with their outputs and every `RunStats` field;
//! * an inline program whose client touches an array larger than
//!   `DeviceModel::cache_slots` under a partitioned plan, so the
//!   simulator's cache penalty is charged there, and checked to be;
//! * Figure 4's linked list, whose dynamic allocations pay the
//!   registration fee and are pulled lazily;
//! * one partitioned run driven by hand through two `Machine`s, pinning
//!   the ledger every `ControlMsg` carries, so a charge that reaches the
//!   account late (after a control transfer) fails even when the final
//!   totals agree;
//! * every field of every `ControlMsg` (action and payload, stack frames,
//!   validity, registration table, step count, ledger) in that run and in
//!   each Table 3 program's partitioned choices, so a frame written back
//!   stale fails even when the outputs agree;
//! * the step budget at its boundary, all-local and partitioned.
//!
//! The ledger values were recorded from an interpreter that added each
//! instruction's cost to the ledger as its own rational; the control
//! messages and step counts from an interpreter that ran one step per
//! call.

use offload_core::{Analysis, AnalysisOptions, Partition};
use offload_poly::{Polyhedron, Rational, Region};
use offload_runtime::{
    ControlMsg, DeviceModel, Frame, Host, Ledger, Machine, Outcome, PendingAction, Plan, RunResult,
    RunStats, Runner, RuntimeError, Simulator,
};

/// A 64-bit FNV-1a digest.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The digest of an output stream.
fn digest(outputs: &[i64]) -> u64 {
    fnv(outputs.iter().flat_map(|v| v.to_le_bytes()))
}

/// Every `RunStats` field, rationals as exact strings. Destructured so a
/// new field cannot go unpinned.
fn stats_line(stats: &RunStats) -> String {
    let RunStats {
        total_time,
        client_compute,
        server_compute,
        comm_time,
        messages,
        slots_transferred,
        eager_transfers,
        lazy_pulls,
        instructions,
        registrations,
        energy,
    } = stats;
    format!(
        "total={total_time} client={client_compute} server={server_compute} comm={comm_time} \
         energy={energy} msgs={messages} slots={slots_transferred} eager={eager_transfers} \
         lazy={lazy_pulls} insts={instructions} regs={registrations}"
    )
}

fn run_line(tag: &str, r: &RunResult) -> String {
    format!(
        "{tag} out={}:{:016x} {}",
        r.outputs.len(),
        digest(&r.outputs),
        stats_line(&r.stats)
    )
}

/// Every field of a mid-run ledger.
fn ledger_line(l: &Ledger) -> String {
    let Ledger {
        clock,
        client_busy,
        server_busy,
        comm,
        stats,
    } = l;
    format!(
        "clock={clock} client={client_busy} server={server_busy} comm={comm} | {}",
        stats_line(stats)
    )
}

/// Compares computed lines with the goldens, printing every computed
/// line on a mismatch so the whole table can be inspected.
fn check(what: &str, got: &[String], want: &[&str]) {
    if got.iter().map(String::as_str).ne(want.iter().copied()) {
        let mut report = String::new();
        for (i, line) in got.iter().enumerate() {
            let mark = if want.get(i) == Some(&line.as_str()) {
                " "
            } else {
                "!"
            };
            report.push_str(&format!("{mark} {line:?},\n"));
        }
        panic!(
            "{what}: {} lines computed, {} pinned; computed lines (`!` = differs):\n{report}",
            got.len(),
            want.len()
        );
    }
}

/// The all-local run and every choice of `a` at one point.
fn every_plan(
    name: &str,
    a: &Analysis,
    device: DeviceModel,
    params: &[i64],
    input: &[i64],
) -> Vec<String> {
    let sim = Simulator::new(a, device);
    let local = sim.run_local(params, input).expect("local run");
    let mut lines = vec![run_line(&format!("{name} local"), &local)];
    for c in 0..a.partition.choices.len() {
        let r = sim.run_choice(c, params, input).expect("choice run");
        assert_eq!(r.outputs, local.outputs, "{name} choice {c}");
        lines.push(run_line(&format!("{name} choice {c}"), &r));
    }
    lines
}

const TABLE3_POINTS: &[(&str, &[i64])] = &[
    ("rawcaudio", &[16]),
    ("rawdaudio", &[16]),
    ("encode", &[4, 0, 8, 2]),
    ("decode", &[4, 0, 8, 2]),
    ("fft", &[2, 16, 0]),
    ("susan", &[0, 1, 0, 6, 6, 20, 2, 1, 1, 1200, 2, 10]),
];

const TABLE3_GOLDEN: &[&str] = &[
    "rawcaudio local out=16:2c47131400914e6e total=18905 client=18905 server=0 comm=0 energy=94525 msgs=0 slots=0 eager=0 lazy=0 insts=2282 regs=0",
    "rawcaudio choice 0 out=16:2c47131400914e6e total=24829 client=810 server=3619 comm=20400 energy=113288 msgs=34 slots=0 eager=0 lazy=0 insts=2282 regs=0",
    "rawcaudio choice 1 out=16:2c47131400914e6e total=15817 client=10840 server=1613 comm=3364 energy=74246 msgs=5 slots=91 eager=3 lazy=0 insts=2282 regs=0",
    "rawdaudio local out=16:0da43545d407b1a1 total=19930 client=19930 server=0 comm=0 energy=99650 msgs=0 slots=0 eager=0 lazy=0 insts=2123 regs=0",
    "rawdaudio choice 0 out=16:0da43545d407b1a1 total=25034 client=810 server=3824 comm=20400 energy=113698 msgs=34 slots=0 eager=0 lazy=0 insts=2123 regs=0",
    "rawdaudio choice 1 out=16:0da43545d407b1a1 total=16842 client=11865 server=1613 comm=3364 energy=79371 msgs=5 slots=91 eager=3 lazy=0 insts=2123 regs=0",
    "encode local out=16:0087cd4350469523 total=25655 client=25655 server=0 comm=0 energy=128275 msgs=0 slots=0 eager=0 lazy=0 insts=3099 regs=0",
    "encode choice 0 out=16:0087cd4350469523 total=39063 client=4080 server=4315 comm=30668 energy=182370 msgs=51 slots=17 eager=17 lazy=0 insts=3099 regs=0",
    "encode choice 1 out=16:0087cd4350469523 total=22567 client=17590 server=1613 comm=3364 energy=107996 msgs=5 slots=91 eager=3 lazy=0 insts=3099 regs=0",
    "encode choice 2 out=16:0087cd4350469523 total=80907 client=1525 server=4826 comm=74556 energy=390057 msgs=15 slots=16389 eager=9 lazy=0 insts=3099 regs=0",
    "decode local out=16:2a881bab29a730aa total=27620 client=27620 server=0 comm=0 energy=138100 msgs=0 slots=0 eager=0 lazy=0 insts=3122 regs=0",
    "decode choice 0 out=16:2a881bab29a730aa total=28932 client=3760 server=4772 comm=20400 energy=130344 msgs=34 slots=0 eager=0 lazy=0 insts=3122 regs=0",
    "decode choice 1 out=16:2a881bab29a730aa total=24532 client=19555 server=1613 comm=3364 energy=117821 msgs=5 slots=91 eager=3 lazy=0 insts=3122 regs=0",
    "decode choice 2 out=16:2a881bab29a730aa total=81300 client=1525 server=5219 comm=74556 energy=390843 msgs=15 slots=16389 eager=9 lazy=0 insts=3122 regs=0",
    "fft local out=32:eb9681d9d3ce0001 total=282808 client=282808 server=0 comm=0 energy=1414040 msgs=0 slots=0 eager=0 lazy=0 insts=24787 regs=0",
    "fft choice 0 out=32:eb9681d9d3ce0001 total=4402568 client=26821 server=51183 comm=4324564 energy=21859291 msgs=217 slots=1048591 eager=79 lazy=0 insts=24787 regs=0",
    "fft choice 1 out=32:eb9681d9d3ce0001 total=202352 client=36738 server=49214 comm=116400 energy=864118 msgs=194 slots=0 eager=0 lazy=0 insts=24787 regs=0",
    "fft choice 2 out=32:eb9681d9d3ce0001 total=108284 client=57278 server=45106 comm=5900 energy=406102 msgs=3 slots=1025 eager=1 lazy=0 insts=24787 regs=0",
    "fft choice 3 out=32:eb9681d9d3ce0001 total=191012 client=1281 server=56259 comm=133472 energy=786283 msgs=4 slots=32768 eager=2 lazy=0 insts=24787 regs=0",
    "fft choice 4 out=32:eb9681d9d3ce0001 total=200944 client=34978 server=49566 comm=116400 energy=856022 msgs=194 slots=0 eager=0 lazy=0 insts=24787 regs=0",
    "susan local out=18:79c66bd2b246b1df total=206410 client=206410 server=0 comm=0 energy=1032050 msgs=0 slots=0 eager=0 lazy=0 insts=28016 regs=0",
    "susan choice 0 out=18:79c66bd2b246b1df total=250662 client=4528 server=40334 comm=205800 energy=1132308 msgs=5 slots=50700 eager=3 lazy=0 insts=28016 regs=0",
    "susan choice 1 out=18:79c66bd2b246b1df total=206410 client=206410 server=0 comm=0 energy=1032050 msgs=0 slots=0 eager=0 lazy=0 insts=28016 regs=0",
    "susan choice 2 out=18:79c66bd2b246b1df total=206410 client=206410 server=0 comm=0 energy=1032050 msgs=0 slots=0 eager=0 lazy=0 insts=28016 regs=0",
];

#[test]
fn table3_programs_pin_every_plan() {
    let mut lines = Vec::new();
    for b in offload_benchmarks::all() {
        let params = TABLE3_POINTS
            .iter()
            .find(|(n, _)| *n == b.name)
            .expect("a point per program")
            .1;
        let a = b.analyze().expect("analysis");
        let input = (b.make_input)(params);
        lines.extend(every_plan(
            b.name,
            &a,
            DeviceModel::ipaq_testbed(),
            params,
            &input,
        ));
    }
    check("Table 3 programs", &lines, TABLE3_GOLDEN);
}

/// `big` is larger than the client cache (8192 slots), so every client
/// access to it pays the miss penalty. The input loop is pinned to the
/// client; `work` is the offloadable kernel and never touches `big`.
const OVER_CACHE: &str = "
    int big[9000];
    int work(int k) {
        int j; int acc;
        acc = 0;
        for (j = 0; j < k; j++) { acc = acc + j * j % 1000; }
        return acc;
    }
    void main(int n) {
        int i;
        for (i = 0; i < n; i++) { big[i] = input(); }
        output(work(n) + big[n - 1]);
    }";

const OVER_CACHE_GOLDEN: &[&str] = &[
    "over-cache local out=1:8fd8cfbac2f7b237 total=10191/2 client=10191/2 server=0 comm=0 energy=50955/2 msgs=0 slots=0 eager=0 lazy=0 insts=572 regs=0",
    "over-cache choice 0 out=1:8fd8cfbac2f7b237 total=10191/2 client=10191/2 server=0 comm=0 energy=50955/2 msgs=0 slots=0 eager=0 lazy=0 insts=572 regs=0",
    "over-cache choice 1 out=1:8fd8cfbac2f7b237 total=7447/2 client=3761/2 server=643 comm=1200 energy=33377/2 msgs=2 slots=0 eager=0 lazy=0 insts=572 regs=0",
];

#[test]
fn over_cache_client_accesses_pay_the_miss_penalty() {
    let a = Analysis::from_source(OVER_CACHE, AnalysisOptions::default()).expect("analysis");
    let device = DeviceModel::ipaq_testbed();
    assert!(
        device.cache_slots < 9000,
        "the array must not fit the cache"
    );
    let params = [40i64];
    let input: Vec<i64> = (0..params[0]).map(|i| i * 7 - 100).collect();
    let lines = every_plan("over-cache", &a, device.clone(), &params, &input);
    check("over-cache program", &lines, OVER_CACHE_GOLDEN);

    // The penalty is really charged, and under a partitioned plan too:
    // without it the client computes for less time.
    let roomy = DeviceModel {
        cache_slots: u32::MAX,
        ..device.clone()
    };
    let (with, without) = (Simulator::new(&a, device), Simulator::new(&a, roomy));
    let client_time = |sim: &Simulator<'_>, plan: Plan<'_>| {
        sim.run(plan, &params, &input)
            .expect("run")
            .stats
            .client_compute
    };
    assert!(client_time(&with, Plan::AllLocal) > client_time(&without, Plan::AllLocal));
    let penalized_split = (0..a.partition.choices.len())
        .filter(|&c| !a.partition.choices[c].is_all_local())
        .any(|c| client_time(&with, Plan::Remote(c)) > client_time(&without, Plan::Remote(c)));
    assert!(
        penalized_split,
        "no partitioned plan touches `big` on the client"
    );
}

/// The testbed with fractional per-unit compute times, so that the
/// ledger's sums carry denominators.
fn fractional_device() -> DeviceModel {
    let mut device = DeviceModel::ipaq_testbed();
    device.cost.client_unit = Rational::new(5, 3);
    device.cost.server_unit = Rational::new(2, 7);
    device.cost.registration = Rational::new(17, 4);
    device
}

const FIGURE4_GOLDEN: &[&str] = &[
    "figure4 local out=1:a56f4886f9cb5647 total=2188/3 client=2188/3 server=0 comm=0 energy=10940/3 msgs=0 slots=0 eager=0 lazy=0 insts=225 regs=12",
    "figure4 choice 0 out=1:a56f4886f9cb5647 total=2188/3 client=2188/3 server=0 comm=0 energy=10940/3 msgs=0 slots=0 eager=0 lazy=0 insts=225 regs=12",
    "figure4 choice 1 out=1:a56f4886f9cb5647 total=15661/7 client=210 server=919/7 comm=1896 energy=75548/7 msgs=3 slots=24 eager=1 lazy=0 insts=225 regs=12",
    "figure4 remote-build out=1:a56f4886f9cb5647 total=59641/21 client=640/3 server=915/7 comm=2496 energy=289970/21 msgs=4 slots=24 eager=0 lazy=1 insts=225 regs=12",
];

/// Figure 4's linked list: every node is a dynamic allocation, so runs
/// pay the registration fee and move whole allocation sites. Besides the
/// analysis' own choices, `build` runs on the server with no planned
/// transfers, so the client pulls the list lazily.
#[test]
fn dynamic_allocations_pin_registrations_and_lazy_pulls() {
    let a = Analysis::from_source(
        offload_lang::examples_src::FIGURE4,
        AnalysisOptions::default(),
    )
    .expect("analysis");
    let params = [12i64];
    let mut lines = every_plan("figure4", &a, fractional_device(), &params, &[]);

    let build = a.module.func_by_name("build").expect("build");
    let remote_build = Partition {
        server_tasks: a
            .tcfg
            .tasks()
            .iter()
            .map(|t| t.func == build && !t.is_io)
            .collect(),
        transfers: vec![Vec::new(); a.tcfg.edges().len()],
        region: Region::empty(a.network.dims.len()),
        full_region: Polyhedron::universe(a.network.dims.len()),
        cut: vec![false; a.network.net.node_count()],
    };
    let sim = Simulator::new(&a, fractional_device());
    let r = sim
        .run(Plan::Partitioned(&remote_build), &params, &[])
        .expect("remote build");
    assert!(r.stats.lazy_pulls > 0 && r.stats.registrations > 0);
    lines.push(run_line("figure4 remote-build", &r));
    check("Figure 4", &lines, FIGURE4_GOLDEN);
}

/// `work` is the offloadable kernel; `main` calls it three times, so a
/// partitioned run crosses hosts six times.
const HAND_DRIVEN: &str = "
    int work(int k) {
        int j; int acc;
        acc = 0;
        for (j = 0; j < k; j++) { acc = acc + j * j % 1000; }
        return acc;
    }
    void main(int n) {
        int i;
        for (i = 0; i < 3; i++) { output(work(n + i)); }
    }";

const HAND_DRIVEN_GOLDEN: &[&str] = &[
    "to Server push-frame: clock=1825/3 client=25/3 server=0 comm=600 | total=0 client=0 server=0 comm=0 energy=0 msgs=1 slots=0 eager=0 lazy=0 insts=4 regs=0",
    "to Client write-ret: clock=27793/21 client=25/3 server=806/7 comm=1200 | total=0 client=0 server=0 comm=0 energy=0 msgs=2 slots=0 eager=0 lazy=0 insts=182 regs=0",
    "to Server push-frame: clock=40673/21 client=65/3 server=806/7 comm=1800 | total=0 client=0 server=0 comm=0 energy=0 msgs=3 slots=0 eager=0 lazy=0 insts=188 regs=0",
    "to Client write-ret: clock=55787/21 client=65/3 server=1644/7 comm=2400 | total=0 client=0 server=0 comm=0 energy=0 msgs=4 slots=0 eager=0 lazy=0 insts=373 regs=0",
    "to Server push-frame: clock=22889/7 client=35 server=1644/7 comm=3000 | total=0 client=0 server=0 comm=0 energy=0 msgs=5 slots=0 eager=0 lazy=0 insts=379 regs=0",
    "to Client write-ret: clock=27959/7 client=35 server=2514/7 comm=3600 | total=0 client=0 server=0 comm=0 energy=0 msgs=6 slots=0 eager=0 lazy=0 insts=571 regs=0",
    "result out=3:5f6ad7793c02e9af total=84052/21 client=130/3 server=2514/7 comm=3600 energy=397634/21 msgs=6 slots=0 eager=0 lazy=0 insts=575 regs=0",
];

/// The hand-driven run: the ledger each `ControlMsg` carries, and every
/// field of each message.
#[test]
fn every_control_message_carries_the_exact_ledger() {
    let a = Analysis::from_source(HAND_DRIVEN, AnalysisOptions::default()).expect("analysis");
    let device = fractional_device();
    let tracked: Vec<_> = a.items.items.iter().map(|i| i.loc).collect();
    let choice = a
        .partition
        .choices
        .iter()
        .position(|c| !c.is_all_local())
        .expect("a partitioned choice");
    let runner = Runner {
        module: &a.module,
        tcfg: &a.tcfg,
        pta: &a.pta,
        tracked_order: &tracked,
        device: &device,
        plan: Plan::Partitioned(&a.partition.choices[choice]),
        max_steps: 0,
    };
    let (msgs, result) = drive_by_hand(&runner, &[25], &[]);
    let mut lines: Vec<String> = msgs
        .iter()
        .map(|m| {
            let action = match &m.action {
                PendingAction::Start => "start",
                PendingAction::Resume => "resume",
                PendingAction::PushFrame { .. } => "push-frame",
                PendingAction::WriteRet { .. } => "write-ret",
                PendingAction::Finish => "finish",
            };
            format!("to {:?} {action}: {}", m.to, ledger_line(&m.ledger))
        })
        .collect();
    lines.push(run_line("result", &result));
    assert!(lines.len() >= 7, "six control transfers and the result");
    check("hand-driven run", &lines, HAND_DRIVEN_GOLDEN);
    let states: Vec<String> = msgs.iter().map(msg_line).collect();
    check("hand-driven state", &states, HAND_DRIVEN_STATE_GOLDEN);
}

/// Every field of a control message, the ledger included. Destructured,
/// like [`stats_line`], so a new field cannot go unpinned.
fn msg_line(msg: &ControlMsg) -> String {
    let ControlMsg {
        to,
        action,
        stack,
        valid,
        dyn_table,
        dyn_count,
        steps,
        ledger,
    } = msg;
    let action = match action {
        PendingAction::Start => "start".to_string(),
        PendingAction::Resume => "resume".to_string(),
        PendingAction::PushFrame {
            func,
            block,
            segment,
            writes,
        } => {
            let writes: Vec<String> = writes.iter().map(|(l, v)| format!("{l}={v}")).collect();
            format!("push-frame {func}:{block}:{segment} [{}]", writes.join(" "))
        }
        PendingAction::WriteRet { dst, value } => {
            let dst = dst.map_or("-".to_string(), |d| d.to_string());
            let value = value.map_or("-".to_string(), |v| v.to_string());
            format!("write-ret {dst}={value}")
        }
        PendingAction::Finish => "finish".to_string(),
    };
    let stack: Vec<String> = stack
        .iter()
        .map(|f| {
            let Frame {
                func,
                block,
                inst,
                segment,
                ret_dst,
            } = f;
            let ret = ret_dst.map_or("-".to_string(), |d| d.to_string());
            format!("{func}:{block}:{inst}:{segment}>{ret}")
        })
        .collect();
    let valid: Vec<String> = valid
        .iter()
        .map(|(item, [c, s])| format!("{}:{}{}", item.index(), u8::from(*c), u8::from(*s)))
        .collect();
    let dyn_table: Vec<String> = dyn_table
        .iter()
        .map(|(key, site, slots)| format!("{key}@{}x{slots}", site.index()))
        .collect();
    format!(
        "to {to:?} {action} stack=[{}] valid=[{}] dyns=[{}] dyn_count={dyn_count} steps={steps} | {}",
        stack.join(" "),
        valid.join(" "),
        dyn_table.join(" "),
        ledger_line(ledger)
    )
}

/// Drives the two machines of `runner` by hand, collecting every control
/// message that crosses between them, and checks the result against the
/// in-process run.
fn drive_by_hand(
    runner: &Runner<'_>,
    params: &[i64],
    input: &[i64],
) -> (Vec<ControlMsg>, RunResult) {
    let mut client = Machine::new(runner, Host::Client, params, input);
    let mut server = Machine::new(runner, Host::Server, params, &[]);
    let mut msg = ControlMsg::start();
    let mut msgs = Vec::new();
    loop {
        let outcome = match msg.to {
            Host::Client => client.run_turn(msg, &mut server),
            Host::Server => server.run_turn(msg, &mut client),
        }
        .expect("turn");
        match outcome {
            Outcome::Yield(next) => {
                msgs.push(next.clone());
                msg = next;
            }
            Outcome::Done => break,
        }
    }
    let result = client.into_result();
    let reference = runner.run(params, input).expect("runner");
    assert_eq!(result.outputs, reference.outputs);
    assert_eq!(result.stats, reference.stats);
    (msgs, result)
}

const HAND_DRIVEN_STATE_GOLDEN: &[&str] = &[
    "to Server push-frame fn0:bb0:seg0 [%0=25] stack=[fn1:bb2:2:seg8>%4] valid=[9:10] dyns=[] dyn_count=0 steps=6 | clock=1825/3 client=25/3 server=0 comm=600 | total=0 client=0 server=0 comm=0 energy=0 msgs=1 slots=0 eager=0 lazy=0 insts=4 regs=0",
    "to Client write-ret %4=4900 stack=[fn1:bb2:2:seg8>%4] valid=[9:10] dyns=[] dyn_count=0 steps=262 | clock=27793/21 client=25/3 server=806/7 comm=1200 | total=0 client=0 server=0 comm=0 energy=0 msgs=2 slots=0 eager=0 lazy=0 insts=182 regs=0",
    "to Server push-frame fn0:bb0:seg0 [%0=26] stack=[fn1:bb2:2:seg8>%4] valid=[9:10] dyns=[] dyn_count=0 steps=271 | clock=40673/21 client=65/3 server=806/7 comm=1800 | total=0 client=0 server=0 comm=0 energy=0 msgs=3 slots=0 eager=0 lazy=0 insts=188 regs=0",
    "to Client write-ret %4=5525 stack=[fn1:bb2:2:seg8>%4] valid=[9:10] dyns=[] dyn_count=0 steps=537 | clock=55787/21 client=65/3 server=1644/7 comm=2400 | total=0 client=0 server=0 comm=0 energy=0 msgs=4 slots=0 eager=0 lazy=0 insts=373 regs=0",
    "to Server push-frame fn0:bb0:seg0 [%0=27] stack=[fn1:bb2:2:seg8>%4] valid=[9:10] dyns=[] dyn_count=0 steps=546 | clock=22889/7 client=35 server=1644/7 comm=3000 | total=0 client=0 server=0 comm=0 energy=0 msgs=5 slots=0 eager=0 lazy=0 insts=379 regs=0",
    "to Client write-ret %4=6201 stack=[fn1:bb2:2:seg8>%4] valid=[9:10] dyns=[] dyn_count=0 steps=822 | clock=27959/7 client=35 server=2514/7 comm=3600 | total=0 client=0 server=0 comm=0 energy=0 msgs=6 slots=0 eager=0 lazy=0 insts=571 regs=0",
];

const TABLE3_STATE_GOLDEN: &[&str] = &[
    "rawcaudio choice 0: 34 messages a8decf8bc9779031",
    "rawcaudio choice 1: 2 messages ddc505c0533bd439",
    "rawdaudio choice 0: 34 messages 99a9b15ec3ed36b2",
    "rawdaudio choice 1: 2 messages c249dc3cdeb9a766",
    "encode choice 0: 34 messages 0b464f584e1b0e73",
    "encode choice 1: 2 messages aec5af699caa308b",
    "encode choice 2: 6 messages eb7f22e233f0aaf7",
    "decode choice 0: 34 messages 892d6002e322167f",
    "decode choice 1: 2 messages aec5af699caa308b",
    "decode choice 2: 6 messages f954651862ab2163",
    "fft choice 0: 138 messages 616296caeec190dd",
    "fft choice 1: 194 messages 11e0b3f358f26265",
    "fft choice 2: 2 messages 69ab2026d495124f",
    "fft choice 3: 2 messages 06eea0ba4d402d13",
    "fft choice 4: 194 messages 624703ef87a996cc",
    "susan choice 0: 2 messages 34850428f1505032",
    "susan choice 2: 0 messages cbf29ce484222325",
];

/// The interpreter state every control message carries, in each Table 3
/// program's partitioned choices: a peer resumes from the stack frames
/// (block, instruction and segment) and the shared bookkeeping, so a
/// stale frame would send it to the wrong instruction even where the
/// outputs still agree. Each run is pinned by its message count and a
/// digest of every rendered message; the hand-driven run above pins its
/// messages line by line.
#[test]
fn table3_control_messages_pin_the_interpreter_state() {
    let device = DeviceModel::ipaq_testbed();
    let mut lines = Vec::new();
    for b in offload_benchmarks::all() {
        let params = TABLE3_POINTS
            .iter()
            .find(|(n, _)| *n == b.name)
            .expect("a point per program")
            .1;
        let a = b.analyze().expect("analysis");
        let input = (b.make_input)(params);
        let tracked: Vec<_> = a.items.items.iter().map(|i| i.loc).collect();
        for (c, partition) in a.partition.choices.iter().enumerate() {
            if partition.is_all_local() {
                continue;
            }
            let runner = Runner {
                module: &a.module,
                tcfg: &a.tcfg,
                pta: &a.pta,
                tracked_order: &tracked,
                device: &device,
                plan: Plan::Partitioned(partition),
                max_steps: 0,
            };
            let (msgs, _) = drive_by_hand(&runner, params, &input);
            let rendered: Vec<String> = msgs.iter().map(msg_line).collect();
            lines.push(format!(
                "{} choice {c}: {} messages {:016x}",
                b.name,
                msgs.len(),
                fnv(rendered.iter().flat_map(|l| l.bytes().chain([b'\n'])))
            ));
        }
    }
    check("Table 3 state", &lines, TABLE3_STATE_GOLDEN);
}

/// The fewest steps rawcaudio needs at its Table 3 point, all-local and
/// under choice 0 (34 messages, so the count spans many turns).
const RAWCAUDIO_STEPS: &[(&str, u64)] = &[("local", 2985), ("choice 0", 2985)];

/// The step budget is checked before every instruction and terminator,
/// on both hosts: the smallest budget that completes still completes,
/// and one less fails with `StepLimit`.
#[test]
fn the_step_budget_holds_at_its_boundary() {
    let b = offload_benchmarks::all()
        .into_iter()
        .find(|b| b.name == "rawcaudio")
        .expect("rawcaudio");
    let params = [16i64];
    let a = b.analyze().expect("analysis");
    let input = (b.make_input)(&params);
    let tracked: Vec<_> = a.items.items.iter().map(|i| i.loc).collect();
    let device = DeviceModel::ipaq_testbed();
    let local = Simulator::new(&a, device.clone())
        .run_local(&params, &input)
        .expect("local run");
    for &(tag, steps) in RAWCAUDIO_STEPS {
        let plan = match tag {
            "local" => Plan::AllLocal,
            _ => Plan::Partitioned(&a.partition.choices[0]),
        };
        let run = |max_steps: u64| {
            Runner {
                module: &a.module,
                tcfg: &a.tcfg,
                pta: &a.pta,
                tracked_order: &tracked,
                device: &device,
                plan,
                max_steps,
            }
            .run(&params, &input)
        };
        let done = run(steps).unwrap_or_else(|e| panic!("{tag}: {steps} steps: {e}"));
        assert_eq!(done.outputs, local.outputs, "{tag}");
        match run(steps - 1) {
            Err(RuntimeError::StepLimit(n)) => assert_eq!(n, steps - 1, "{tag}"),
            other => panic!(
                "{tag}: {} steps: expected StepLimit, got {other:?}",
                steps - 1
            ),
        }
    }
}
