//! The host-agnostic execution core.
//!
//! One [`Machine`] interprets the program on behalf of **one** host,
//! holding only that host's authoritative memory image. The paper's
//! turn-taking runtime (§2.1) maps onto two machines exchanging
//! [`ControlMsg`]s: the active machine computes; at a host-crossing task
//! boundary it packages its interpreter state into a message, charges the
//! scheduling cost, and yields. Data items move separately through the
//! [`ExecHost`] peer link — `fetch_item` for lazy pulls and plan-directed
//! transfers toward the active host, `push_item` for transfers away from
//! it.
//!
//! The same `Machine` runs unchanged under two peer links:
//!
//! * the in-process simulator ([`crate::Runner`]), where the peer is the
//!   other `Machine` directly (every `Machine` implements [`ExecHost`]);
//! * the TCP engine (`offload-net`), where the peer serializes payloads
//!   over a socket to a remote daemon.
//!
//! Shared bookkeeping — validity states, the dynamic-allocation
//! registration table, the global step counter and the cost ledger — rides
//! the control message, so exactly one host owns it at any time. The
//! simulator's observable behaviour (outputs *and* virtual-time stats) is
//! bit-identical to the pre-split single-struct interpreter.

use crate::device::DeviceModel;
use crate::exec::{Host, Plan, RunResult, RunStats, Runner, RuntimeError};
use crate::value::{ObjKey, Value};
use offload_core::Direction;
use offload_ir::{
    AllocSiteId, BlockId, Callee, FuncId, GlobalId, Inst, IrBinOp, LocalId, LocalKind, Module,
    Operand, Terminator,
};
use offload_poly::{BigInt, Rational};
use offload_pta::{AbsLoc, AbsLocId};
use offload_tcfg::{EdgeKind, SegmentId, TaskId};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A transport failure on the peer link.
///
/// The in-process simulator never produces one; the TCP link maps socket
/// errors and deadline expiries here, and the client engine treats the
/// resulting [`RuntimeError::HostLink`] as the trigger for all-local
/// fallback.
#[derive(Debug, Clone)]
pub struct HostError(pub String);

impl fmt::Display for HostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "peer link failure: {}", self.0)
    }
}
impl std::error::Error for HostError {}

/// The peer link: how the active machine reaches the passive host's data.
///
/// Implementors serve the *other* host's memory image. [`Machine`] itself
/// implements the trait (the simulator wires two machines directly); the
/// TCP engine implements it with request/response frames.
pub trait ExecHost {
    /// Collects the peer's copy of a tracked item.
    ///
    /// # Errors
    ///
    /// Transport failures only; the in-process link is infallible.
    fn fetch_item(&mut self, item: AbsLocId) -> Result<ItemPayload, HostError>;

    /// Installs a payload into the peer's copy of a tracked item.
    ///
    /// # Errors
    ///
    /// Transport failures only; the in-process link is infallible.
    fn push_item(&mut self, item: AbsLocId, payload: ItemPayload) -> Result<(), HostError>;
}

/// The wire form of one tracked item's backing storage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItemPayload {
    /// A register item: a single value.
    Reg {
        /// Owning function.
        func: FuncId,
        /// The register.
        local: LocalId,
        /// Its value.
        value: Value,
    },
    /// A memory item: one or more whole objects.
    Objects(Vec<ObjEntry>),
}

/// One object inside an [`ItemPayload::Objects`] payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjEntry {
    /// The object's identity.
    pub key: ObjKey,
    /// For dynamic objects: the allocation site, so the receiver can
    /// extend its registration table ahead of the next control sync.
    pub site: Option<AllocSiteId>,
    /// The slot contents.
    pub data: Vec<Value>,
}

impl ItemPayload {
    /// Total slots carried (the unit the cost model charges per).
    pub fn slots(&self) -> u64 {
        match self {
            ItemPayload::Reg { .. } => 1,
            ItemPayload::Objects(objs) => objs.iter().map(|o| o.data.len() as u64).sum(),
        }
    }
}

/// The single global cost account, owned by whichever host is active.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    /// Elapsed virtual time.
    pub clock: Rational,
    /// Client compute time.
    pub client_busy: Rational,
    /// Server compute time.
    pub server_busy: Rational,
    /// Message time.
    pub comm: Rational,
    /// Event counters (time/energy fields are filled by [`Ledger::finish`]).
    pub stats: RunStats,
}

impl Ledger {
    fn busy(&mut self, host: Host, t: Rational) {
        self.clock += &t;
        match host {
            Host::Client => self.client_busy += &t,
            Host::Server => self.server_busy += &t,
        }
    }

    fn message(&mut self, t: Rational) {
        self.clock += &t;
        self.comm += &t;
        self.stats.messages += 1;
    }

    /// Closes the account: totals, and client energy from the device's
    /// power draw (active while computing or communicating, idle while
    /// the server computes).
    pub fn finish(mut self, device: &DeviceModel) -> RunStats {
        let mut stats = std::mem::take(&mut self.stats);
        stats.total_time = self.clock.clone();
        stats.client_compute = self.client_busy.clone();
        stats.server_compute = self.server_busy.clone();
        stats.comm_time = self.comm.clone();
        let active = &self.client_busy + &self.comm;
        let idle = &self.clock - &active;
        stats.energy =
            &(&active * &device.client_active_power) + &(&idle * &device.client_idle_power);
        stats
    }
}

/// One call-stack frame, in control-message form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// Executing function.
    pub func: FuncId,
    /// Current block.
    pub block: BlockId,
    /// Next instruction index within the block.
    pub inst: usize,
    /// Segment containing the current position.
    pub segment: SegmentId,
    /// Register receiving the callee's return value.
    pub ret_dst: Option<LocalId>,
}

/// What the receiving host must do on arrival, before resuming the
/// interpreter loop. Calls and returns transfer control *mid-operation*:
/// the argument/return values are carried by the scheduling message and
/// written on the receiving host (§2.1), so the receiver finishes the
/// operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PendingAction {
    /// Begin the run: push `main`'s entry frame (client only).
    Start,
    /// Plain resume (jumps, and the post-`Start` handoff).
    Resume,
    /// Finish a call: push the callee frame, then write its parameters.
    PushFrame {
        /// The callee.
        func: FuncId,
        /// Its entry block.
        block: BlockId,
        /// Entry segment.
        segment: SegmentId,
        /// Parameter registers and the argument values to write.
        writes: Vec<(LocalId, Value)>,
    },
    /// Finish a return: write the value into the caller's destination.
    WriteRet {
        /// Destination register in the caller (already on top of stack).
        dst: Option<LocalId>,
        /// The returned value.
        value: Option<Value>,
    },
    /// The run is over; the final ledger rides this message home.
    Finish,
}

/// The turn-taking control transfer: full interpreter state minus the
/// per-host memory images.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlMsg {
    /// Host receiving control.
    pub to: Host,
    /// What to do on arrival.
    pub action: PendingAction,
    /// The call stack (active function last).
    pub stack: Vec<Frame>,
    /// Validity states `[client, server]` per tracked item.
    pub valid: Vec<(AbsLocId, [bool; 2])>,
    /// Registration table: every live dynamic object, its site and size.
    /// The receiver materializes zeroed storage for objects it has not
    /// seen yet — the deferred half of the paper's broadcast-on-allocate
    /// registration.
    pub dyn_table: Vec<(ObjKey, AllocSiteId, u32)>,
    /// Next dynamic object id.
    pub dyn_count: u64,
    /// Global step counter (the budget spans both hosts).
    pub steps: u64,
    /// The cost account.
    pub ledger: Ledger,
}

impl ControlMsg {
    /// The message that boots a run on the client.
    pub fn start() -> ControlMsg {
        ControlMsg {
            to: Host::Client,
            action: PendingAction::Start,
            stack: Vec::new(),
            valid: Vec::new(),
            dyn_table: Vec::new(),
            dyn_count: 0,
            steps: 0,
            ledger: Ledger::default(),
        }
    }
}

/// What a turn produced.
///
/// `Yield` carries the full `ControlMsg` by value (not boxed): outcomes
/// are produced once per control transfer and consumed immediately, so
/// the size imbalance against `Done` never sits in a collection.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum Outcome {
    /// Control moves to the other host.
    Yield(ControlMsg),
    /// The run is complete (terminal only on the client).
    Done,
}

/// A dynamic object in one host's image.
struct DynObj {
    /// Its registration (allocation site and size), once this host knows
    /// it.
    reg: Option<(AllocSiteId, u32)>,
    /// The slot contents.
    data: Vec<Value>,
}

/// One host's memory image.
struct HostState {
    /// Every function's registers in one file: local `l` of function `f`
    /// is slot `reg_base[f] + l` (see [`Machine::reg_base`]).
    regs: Vec<Value>,
    /// Globals (by global id), then memory locals (see
    /// [`Machine::static_index`]).
    statics: Vec<Vec<Value>>,
    /// Dynamic objects by registration id. Peers name these ids, so they
    /// key a map and never size a vector.
    dyns: BTreeMap<u64, DynObj>,
}

/// Compute charges not yet in the ledger, as integer counts.
///
/// Each instruction adds its weight here instead of adding a rational to
/// the ledger; [`Machine::flush`] folds the counts in, in one exact step,
/// before the ledger leaves the machine. Rational addition is exact and
/// associative, so the ledger is the same as if every charge had been
/// added on its own.
#[derive(Default)]
struct Tally {
    /// Weighted instruction units ([`offload_core::CostModel::inst_weight`]).
    units: u64,
    /// Client accesses to over-cache objects.
    cache_misses: u64,
    /// Dynamic allocations, each paying the registration fee.
    registrations: u64,
}

/// Most dynamic slots one machine holds over its whole run: the
/// program's own `alloc`s, and the objects a `Control` frame's
/// `dyn_table` or an item payload materializes for the peer's. Both
/// `alloc` counts and `dyn_table` sizes can come from outside (a
/// parameter, a hostile peer), so each is refused before it allocates
/// past the cap. `1 << 24` slots are 384 MiB of [`Value`]s; none of the
/// Table 3 programs allocates dynamically, and the generated test
/// programs allocate `a + 1` ints at a time.
pub const MAX_DYN_SLOTS: u64 = 1 << 24;

/// The interpreter for one host.
///
/// Created by [`Machine::new`] from the same [`Runner`] configuration on
/// both sides; driven by [`Machine::run_turn`].
pub struct Machine<'a> {
    r: &'a Runner<'a>,
    host: Host,
    state: HostState,
    tally: Tally,
    // Shared bookkeeping, authoritative only while this host is active.
    /// Validity per points-to location; `None` until the run touches it.
    valid: Vec<Option<[bool; 2]>>,
    dyn_count: u64,
    /// Slots of every dynamic object this host holds (at most
    /// [`MAX_DYN_SLOTS`]).
    dyn_slots: u64,
    steps: u64,
    ledger: Ledger,
    stack: Vec<Frame>,
    /// Whether each function has a frame on the stack.
    active: Vec<bool>,
    // Client-only I/O state (the server refuses I/O instructions).
    input: &'a [i64],
    input_pos: usize,
    outputs: Vec<i64>,
    // Derived indexes.
    /// Whether each points-to location is a tracked item.
    tracked: Vec<bool>,
    /// First slot of each function's registers in the register file.
    reg_base: Vec<usize>,
    /// Tracked item of each register, by register-file slot.
    reg_items: Vec<Option<AbsLocId>>,
    /// Static object of each memory local, by function and local.
    local_objs: Vec<Vec<Option<usize>>>,
    /// Tracked item of each static object.
    static_items: Vec<Option<AbsLocId>>,
    /// Tracked item of each allocation site.
    site_items: Vec<Option<AbsLocId>>,
    /// Segment at the start of each block, by function and block.
    entry_seg: Vec<Vec<SegmentId>>,
    edge_index: HashMap<(TaskId, TaskId, EdgeKind), usize>,
    max_steps: u64,
}

impl<'a> ExecHost for Machine<'a> {
    /// Rejects an id that is not a tracked item of this run.
    fn fetch_item(&mut self, item: AbsLocId) -> Result<ItemPayload, HostError> {
        self.check_tracked(item)?;
        Ok(self.collect_item(item))
    }

    /// Rejects an id that is not a tracked item of this run, and a
    /// payload that is not storage of the item's location.
    fn push_item(&mut self, item: AbsLocId, payload: ItemPayload) -> Result<(), HostError> {
        self.check_tracked(item)?;
        self.check_payload(item, &payload)?;
        self.install_item(payload);
        Ok(())
    }
}

impl<'a> Machine<'a> {
    /// Builds the machine for one host: zero-initialized memory image,
    /// with `main`'s parameters broadcast into the register file (both
    /// hosts initialize identically at startup, §2.1).
    pub fn new(r: &'a Runner<'a>, host: Host, params: &[i64], input: &'a [i64]) -> Machine<'a> {
        let entry_seg = (r.module.functions.iter().enumerate())
            .map(|(fi, f)| {
                (0..f.blocks.len())
                    .map(|bi| {
                        r.tcfg
                            .block_entry_segment(FuncId(fi as u32), BlockId(bi as u32))
                            .expect("every block starts a segment")
                    })
                    .collect()
            })
            .collect();
        let mut edge_index = HashMap::new();
        for (ei, e) in r.tcfg.edges().iter().enumerate() {
            edge_index.insert((e.from, e.to, e.kind), ei);
        }

        let module = r.module;
        let mut tracked = vec![false; r.pta.locs().len()];
        for &item in r.tracked_order {
            tracked[item.index()] = true;
        }
        let item_of = |loc: AbsLoc| r.pta.id_of(loc).filter(|id| tracked[id.index()]);
        let mut statics: Vec<Vec<Value>> = Vec::new();
        let mut static_items = Vec::new();
        for (gi, g) in module.globals.iter().enumerate() {
            statics.push(vec![Value::Int(0); g.slots as usize]);
            static_items.push(item_of(AbsLoc::Global(GlobalId(gi as u32))));
        }
        let mut reg_base = Vec::with_capacity(module.functions.len());
        let mut reg_items = Vec::new();
        let mut local_objs = Vec::with_capacity(module.functions.len());
        for (fi, f) in module.functions.iter().enumerate() {
            let func = FuncId(fi as u32);
            reg_base.push(reg_items.len());
            let mut objs = Vec::with_capacity(f.locals.len());
            for (li, l) in f.locals.iter().enumerate() {
                let local = LocalId(li as u32);
                reg_items.push(item_of(AbsLoc::Reg { func, local }));
                objs.push(match l.kind {
                    LocalKind::Memory { slots } => {
                        statics.push(vec![Value::Int(0); slots as usize]);
                        static_items.push(item_of(AbsLoc::Local { func, local }));
                        Some(statics.len() - 1)
                    }
                    LocalKind::Register => None,
                });
            }
            local_objs.push(objs);
        }
        let site_items = (0..module.alloc_sites)
            .map(|s| item_of(AbsLoc::Site(AllocSiteId(s))))
            .collect();
        let mut regs = vec![Value::Uninit; reg_items.len()];
        let main_base = reg_base[module.main.index()];
        for (pi, &p) in module.function(module.main).params.iter().enumerate() {
            regs[main_base + p.index()] = Value::Int(params.get(pi).copied().unwrap_or(0));
        }
        Machine {
            r,
            host,
            state: HostState {
                regs,
                statics,
                dyns: BTreeMap::new(),
            },
            tally: Tally::default(),
            valid: vec![None; tracked.len()],
            dyn_count: 0,
            dyn_slots: 0,
            steps: 0,
            ledger: Ledger::default(),
            stack: Vec::new(),
            active: vec![false; module.functions.len()],
            input,
            input_pos: 0,
            outputs: Vec::new(),
            tracked,
            reg_base,
            reg_items,
            local_objs,
            static_items,
            site_items,
            entry_seg,
            edge_index,
            max_steps: if r.max_steps == 0 {
                500_000_000
            } else {
                r.max_steps
            },
        }
    }

    /// Which host this machine embodies.
    pub fn host(&self) -> Host {
        self.host
    }

    /// Consumes the client machine into a finished [`RunResult`].
    pub fn into_result(mut self) -> RunResult {
        self.flush();
        let stats = self.ledger.finish(self.r.device);
        RunResult {
            outputs: self.outputs,
            stats,
        }
    }

    /// Accepts a control transfer and runs until control leaves this host
    /// again or the program finishes.
    ///
    /// # Errors
    ///
    /// Program faults ([`RuntimeError`]) and peer-link failures
    /// ([`RuntimeError::HostLink`]).
    pub fn run_turn(
        &mut self,
        msg: ControlMsg,
        peer: &mut dyn ExecHost,
    ) -> Result<Outcome, RuntimeError> {
        debug_assert_eq!(msg.to, self.host, "control delivered to the wrong host");
        self.install(&msg)?;
        match msg.action {
            PendingAction::Finish => return Ok(Outcome::Done),
            PendingAction::Start => {
                let main = self.r.module.main;
                let entry = self.r.module.function(main).entry;
                let entry_seg = self.entry_seg[main.index()][entry.index()];
                self.stack.push(Frame {
                    func: main,
                    block: entry,
                    inst: 0,
                    segment: entry_seg,
                    ret_dst: None,
                });
                self.active[main.index()] = true;
                let entry_task = self.r.tcfg.task_of(entry_seg);
                if self.host_of(entry_task) != self.host {
                    let sched = self.r.device.cost.sched_c2s.clone();
                    self.ledger.message(sched);
                    return Ok(Outcome::Yield(
                        self.package(self.host.other(), PendingAction::Resume),
                    ));
                }
            }
            PendingAction::Resume => {}
            PendingAction::PushFrame {
                func,
                block,
                segment,
                writes,
            } => {
                self.stack.push(Frame {
                    func,
                    block,
                    inst: 0,
                    segment,
                    ret_dst: None,
                });
                self.active[func.index()] = true;
                let base = self.reg_base[func.index()];
                for (p, v) in writes {
                    self.write_reg(base, p, v);
                }
            }
            PendingAction::WriteRet { dst, value } => {
                if let (Some(d), Some(v)) = (dst, value) {
                    let caller = self.stack.last().expect("caller frame").func;
                    self.write_reg(self.reg_base[caller.index()], d, v);
                }
            }
        }

        loop {
            if self.stack.is_empty() {
                if self.host == Host::Server {
                    // Control returns home to the client.
                    let sched = self.r.device.cost.sched_s2c.clone();
                    self.ledger.message(sched);
                    return Ok(Outcome::Yield(
                        self.package(Host::Client, PendingAction::Finish),
                    ));
                }
                return Ok(Outcome::Done);
            }
            self.tick()?;
            if let Some(msg) = self.step(peer)? {
                return Ok(Outcome::Yield(msg));
            }
        }
    }

    // ---- control-transfer plumbing ----

    /// Installs a control transfer, after checking that its `dyn_table`
    /// keeps this machine within [`MAX_DYN_SLOTS`].
    fn install(&mut self, msg: &ControlMsg) -> Result<(), RuntimeError> {
        let unseen = msg
            .dyn_table
            .iter()
            .filter_map(|&(key, _, slots)| match key {
                ObjKey::Dyn(id) if !self.state.dyns.contains_key(&id) => Some(u64::from(slots)),
                _ => None,
            });
        self.check_slots("peer", unseen.fold(0, u64::saturating_add))?;
        self.stack = msg.stack.clone();
        self.active.fill(false);
        for f in &self.stack {
            self.active[f.func.index()] = true;
        }
        self.valid.fill(None);
        for &(item, v) in &msg.valid {
            // A peer's entry indexes nothing unless it names a tracked item.
            if self.is_tracked(item) {
                self.valid[item.index()] = Some(v);
            }
        }
        for &(key, site, slots) in &msg.dyn_table {
            // Deferred registration: materialize zeroed storage for
            // objects allocated on the other host.
            if let ObjKey::Dyn(id) = key {
                let dyn_slots = &mut self.dyn_slots;
                self.state
                    .dyns
                    .entry(id)
                    .or_insert_with(|| {
                        *dyn_slots += u64::from(slots);
                        DynObj {
                            reg: None,
                            data: vec![Value::Int(0); slots as usize],
                        }
                    })
                    .reg = Some((site, slots));
            }
        }
        self.dyn_count = msg.dyn_count;
        self.steps = msg.steps;
        self.ledger = msg.ledger.clone();
        self.tally = Tally::default();
        Ok(())
    }

    /// Refuses `more` dynamic slots (`what`: "peer" or "allocated") if
    /// they would take this host past [`MAX_DYN_SLOTS`]; checked before
    /// anything is allocated.
    fn check_slots(&self, what: &str, more: u64) -> Result<(), RuntimeError> {
        let wanted = self.dyn_slots.saturating_add(more);
        if wanted > MAX_DYN_SLOTS {
            return Err(RuntimeError::BadAccess(format!(
                "{more} {what} slots would take this host to {wanted} dynamic slots, past the \
                 cap of {MAX_DYN_SLOTS}"
            )));
        }
        Ok(())
    }

    fn package(&mut self, to: Host, action: PendingAction) -> ControlMsg {
        self.flush();
        let valid = self
            .valid
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|v| (AbsLocId(i as u32), v)))
            .collect();
        let dyn_table = self
            .state
            .dyns
            .iter()
            .filter_map(|(&id, o)| o.reg.map(|(site, slots)| (ObjKey::Dyn(id), site, slots)))
            .collect();
        ControlMsg {
            to,
            action,
            stack: self.stack.clone(),
            valid,
            dyn_table,
            dyn_count: self.dyn_count,
            steps: self.steps,
            ledger: self.ledger.clone(),
        }
    }

    // ---- cost accounting ----

    /// Folds the pending [`Tally`] into the ledger as this host's compute
    /// time. Runs before every control message and at the end of the run.
    fn flush(&mut self) {
        let Tally {
            units,
            cache_misses,
            registrations,
        } = std::mem::take(&mut self.tally);
        let cost = &self.r.device.cost;
        let unit = match self.host {
            Host::Client => &cost.client_unit,
            Host::Server => &cost.server_unit,
        };
        let mut t = times(units, unit);
        t += &times(cache_misses, &self.r.device.cache_miss_penalty);
        t += &times(registrations, &cost.registration);
        self.ledger.busy(self.host, t);
    }

    // ---- item identity and validity ----

    /// The static object (global or memory local) `key` names, if any.
    fn static_index(&self, key: ObjKey) -> Option<usize> {
        match key {
            ObjKey::Global(g) => ((g as usize) < self.r.module.globals.len()).then_some(g as usize),
            ObjKey::Local(f, l) => *self.local_objs.get(f.index())?.get(l.index())?,
            ObjKey::Dyn(_) => None,
        }
    }

    fn item_of_obj(&self, key: ObjKey) -> Option<AbsLocId> {
        match key {
            ObjKey::Dyn(id) => {
                let (site, _) = self.state.dyns.get(&id)?.reg?;
                *self.site_items.get(site.index())?
            }
            _ => self.static_items[self.static_index(key)?],
        }
    }

    /// This host's storage of `key`, if it has any.
    fn object(&self, key: ObjKey) -> Option<&[Value]> {
        match key {
            ObjKey::Dyn(id) => self.state.dyns.get(&id).map(|o| o.data.as_slice()),
            _ => Some(&self.state.statics[self.static_index(key)?]),
        }
    }

    fn is_tracked(&self, item: AbsLocId) -> bool {
        self.tracked.get(item.index()).copied().unwrap_or(false)
    }

    /// An item id from the peer must name a tracked item before it
    /// indexes anything.
    fn check_tracked(&self, item: AbsLocId) -> Result<(), HostError> {
        if self.is_tracked(item) {
            Ok(())
        } else {
            Err(HostError(format!("item {} is not tracked", item.index())))
        }
    }

    /// A payload from the peer must be storage of `item`'s location (the
    /// same function and local for a register, the location's own object
    /// keys for memory) before it is installed.
    fn check_payload(&self, item: AbsLocId, payload: &ItemPayload) -> Result<(), HostError> {
        let matches = match (self.r.pta.loc(item), payload) {
            (
                AbsLoc::Reg { func, local },
                ItemPayload::Reg {
                    func: f, local: l, ..
                },
            ) => func == *f && local == *l,
            (AbsLoc::Global(g), ItemPayload::Objects(objs)) => {
                objs.iter().all(|o| o.key == ObjKey::Global(g.0))
            }
            (AbsLoc::Local { func, local }, ItemPayload::Objects(objs)) => {
                objs.iter().all(|o| o.key == ObjKey::Local(func, local))
            }
            (AbsLoc::Site(site), ItemPayload::Objects(objs)) => objs
                .iter()
                .all(|o| matches!(o.key, ObjKey::Dyn(_)) && o.site == Some(site)),
            _ => false,
        };
        if matches {
            Ok(())
        } else {
            Err(HostError(format!(
                "payload does not match item {}",
                item.index()
            )))
        }
    }

    fn validity(&mut self, item: AbsLocId) -> &mut [bool; 2] {
        self.valid[item.index()].get_or_insert([true, true])
    }

    /// Ensures the tracked `item` is valid on this host, pulling it lazily
    /// from the peer if necessary.
    fn ensure_valid(
        &mut self,
        item: AbsLocId,
        peer: &mut dyn ExecHost,
    ) -> Result<(), RuntimeError> {
        let here = self.host.index();
        if self.validity(item)[here] {
            return Ok(());
        }
        // Lazy pull: request + response messages.
        self.ledger.stats.lazy_pulls += 1;
        let req = match self.host {
            Host::Client => self.r.device.cost.send_startup_c2s.clone(),
            Host::Server => self.r.device.cost.send_startup_s2c.clone(),
        };
        self.ledger.message(req);
        self.transfer_item(item, self.host.other(), self.host, peer)
    }

    /// Marks the tracked `item` written here: valid on this host only.
    fn note_write(&mut self, item: AbsLocId) {
        let host = self.host;
        let v = self.validity(item);
        v[host.index()] = true;
        v[host.other().index()] = false;
    }

    /// Reads out one tracked item's backing storage on this host.
    fn collect_item(&self, item: AbsLocId) -> ItemPayload {
        let whole = |key: ObjKey| {
            ItemPayload::Objects(vec![ObjEntry {
                key,
                site: None,
                data: self.object(key).map(<[Value]>::to_vec).unwrap_or_default(),
            }])
        };
        match self.r.pta.loc(item) {
            AbsLoc::Reg { func, local } => ItemPayload::Reg {
                func,
                local,
                value: self.state.regs[self.reg_base[func.index()] + local.index()],
            },
            AbsLoc::Global(g) => whole(ObjKey::Global(g.0)),
            AbsLoc::Local { func, local } => whole(ObjKey::Local(func, local)),
            AbsLoc::Site(site) => ItemPayload::Objects(
                self.state
                    .dyns
                    .iter()
                    .filter(|(_, o)| matches!(o.reg, Some((s, _)) if s == site))
                    .map(|(&id, o)| ObjEntry {
                        key: ObjKey::Dyn(id),
                        site: Some(site),
                        data: o.data.clone(),
                    })
                    .collect(),
            ),
        }
    }

    /// Overwrites this host's copy with a payload that
    /// [`Machine::check_payload`] accepted.
    fn install_item(&mut self, payload: ItemPayload) {
        match payload {
            ItemPayload::Reg { func, local, value } => {
                self.state.regs[self.reg_base[func.index()] + local.index()] = value;
            }
            ItemPayload::Objects(objs) => {
                for obj in objs {
                    if let ObjKey::Dyn(id) = obj.key {
                        let o = self.state.dyns.entry(id).or_insert_with(|| DynObj {
                            reg: None,
                            data: Vec::new(),
                        });
                        if let Some(site) = obj.site {
                            o.reg = Some((site, obj.data.len() as u32));
                        }
                        // The payload replaces the object, at its own size.
                        self.dyn_slots = (self.dyn_slots + obj.data.len() as u64)
                            .saturating_sub(o.data.len() as u64);
                        o.data = obj.data;
                    } else if let Some(i) = self.static_index(obj.key) {
                        self.state.statics[i] = obj.data;
                    }
                }
            }
        }
    }

    /// Moves an item's backing storage between the hosts through the peer
    /// link, with message cost, and marks both copies valid.
    fn transfer_item(
        &mut self,
        item: AbsLocId,
        from: Host,
        to: Host,
        peer: &mut dyn ExecHost,
    ) -> Result<(), RuntimeError> {
        let slots = if from == self.host {
            let payload = self.collect_item(item);
            let slots = payload.slots();
            peer.push_item(item, payload).map_err(RuntimeError::from)?;
            slots
        } else {
            let payload = peer.fetch_item(item).map_err(RuntimeError::from)?;
            self.check_payload(item, &payload)
                .map_err(RuntimeError::from)?;
            let slots = payload.slots();
            self.install_item(payload);
            slots
        };
        let (startup, unit) = match to {
            Host::Server => (
                self.r.device.cost.send_startup_c2s.clone(),
                self.r.device.cost.send_unit_c2s.clone(),
            ),
            Host::Client => (
                self.r.device.cost.send_startup_s2c.clone(),
                self.r.device.cost.send_unit_s2c.clone(),
            ),
        };
        self.ledger
            .message(&startup + &(&Rational::from(slots as i64) * &unit));
        self.ledger.stats.slots_transferred += slots;
        let v = self.validity(item);
        v[0] = true;
        v[1] = true;
        Ok(())
    }

    // ---- register and memory access ----

    fn write_reg(&mut self, base: usize, reg: LocalId, v: Value) {
        let slot = base + reg.index();
        self.state.regs[slot] = v;
        if let Some(item) = self.reg_items[slot] {
            self.note_write(item);
        }
    }

    fn operand(
        &mut self,
        base: usize,
        op: Operand,
        peer: &mut dyn ExecHost,
    ) -> Result<Value, RuntimeError> {
        match op {
            Operand::Const(c) => Ok(Value::Int(c)),
            Operand::Local(l) => {
                let slot = base + l.index();
                if let Some(item) = self.reg_items[slot] {
                    self.ensure_valid(item, peer)?;
                }
                Ok(self.state.regs[slot])
            }
        }
    }

    /// Makes `key`'s object valid on this host and charges one access to
    /// it: the client pays the cache penalty (modeled only in the
    /// simulator, not in the analysis — a realistic source of prediction
    /// error) on over-cache objects. Returns the storage and its item.
    fn access(
        &mut self,
        key: ObjKey,
        peer: &mut dyn ExecHost,
    ) -> Result<(&mut Vec<Value>, Option<AbsLocId>), RuntimeError> {
        let item = self.item_of_obj(key);
        if let Some(item) = item {
            self.ensure_valid(item, peer)?;
        }
        let obj = match key {
            ObjKey::Dyn(id) => self.state.dyns.get_mut(&id).map(|o| &mut o.data),
            _ => self.static_index(key).map(|i| &mut self.state.statics[i]),
        }
        .ok_or_else(|| RuntimeError::BadAccess(format!("no object {key}")))?;
        if self.host == Host::Client && obj.len() > self.r.device.cache_slots as usize {
            self.tally.cache_misses += 1;
        }
        Ok((obj, item))
    }

    fn load(&mut self, addr: Value, peer: &mut dyn ExecHost) -> Result<Value, RuntimeError> {
        let Value::Addr(key, off) = addr else {
            return Err(RuntimeError::BadAccess(format!("load through {addr}")));
        };
        let (obj, _) = self.access(key, peer)?;
        obj.get(off as usize)
            .copied()
            .ok_or_else(|| RuntimeError::BadAccess(format!("{key}+{off} out of bounds")))
    }

    fn store(
        &mut self,
        addr: Value,
        v: Value,
        peer: &mut dyn ExecHost,
    ) -> Result<(), RuntimeError> {
        let Value::Addr(key, off) = addr else {
            return Err(RuntimeError::BadAccess(format!("store through {addr}")));
        };
        // Partial writes require the destination copy to be valid first
        // (the paper's conservative constraint, dynamically).
        let (obj, item) = self.access(key, peer)?;
        let slot = obj
            .get_mut(off as usize)
            .ok_or_else(|| RuntimeError::BadAccess(format!("{key}+{off} out of bounds")))?;
        *slot = v;
        if let Some(item) = item {
            self.note_write(item);
        }
        Ok(())
    }

    // ---- plan queries ----

    fn host_of(&self, task: TaskId) -> Host {
        match self.r.plan {
            Plan::AllLocal => Host::Client,
            Plan::Partitioned(p) => {
                if p.server_tasks[task.index()] {
                    Host::Server
                } else {
                    Host::Client
                }
            }
            // `Runner::run` rejects unresolved plans before machines exist.
            Plan::Remote(_) => unreachable!("unresolved Plan::Remote in executor"),
        }
    }

    /// Handles a control transfer from one task into another (every
    /// call and return, and the jumps that leave a chain): planned eager
    /// transfers, and the host-switch scheduling message. Returns the
    /// destination host when control must leave this machine.
    fn cross(
        &mut self,
        from_seg: SegmentId,
        to_seg: SegmentId,
        kind: EdgeKind,
        peer: &mut dyn ExecHost,
    ) -> Result<Option<Host>, RuntimeError> {
        let from_task = self.r.tcfg.task_of(from_seg);
        let to_task = self.r.tcfg.task_of(to_seg);
        let from_host = self.host_of(from_task);
        let to_host = self.host_of(to_task);
        // Planned eager transfers ride along regardless of host switch
        // (they can also prepay for later tasks).
        if let Plan::Partitioned(p) = self.r.plan {
            if let Some(&ei) = self.edge_index.get(&(from_task, to_task, kind)) {
                for &(item_idx, dir) in &p.transfers[ei] {
                    let item = self.tracked_item_by_index(item_idx);
                    let (src, dst) = match dir {
                        Direction::ClientToServer => (Host::Client, Host::Server),
                        Direction::ServerToClient => (Host::Server, Host::Client),
                    };
                    if let Some(item) = item {
                        // Only move if the source copy is actually valid
                        // (dynamic state may differ from the static plan).
                        if self.validity(item)[src.index()] && !self.validity(item)[dst.index()] {
                            self.ledger.stats.eager_transfers += 1;
                            self.transfer_item(item, src, dst, peer)?;
                        }
                    }
                }
            }
        }
        if from_host != to_host {
            let sched = match to_host {
                Host::Server => self.r.device.cost.sched_c2s.clone(),
                Host::Client => self.r.device.cost.sched_s2c.clone(),
            };
            self.ledger.message(sched);
            return Ok(Some(to_host));
        }
        Ok(None)
    }

    fn tracked_item_by_index(&self, idx: u32) -> Option<AbsLocId> {
        // The plan's transfer lists index the analysis' item table, whose
        // order is passed in via `tracked_order`.
        self.r.tracked_order.get(idx as usize).copied()
    }

    // ---- the interpreter loop ----

    /// Counts one step against the budget, before the step runs.
    fn tick(&mut self) -> Result<(), RuntimeError> {
        self.steps += 1;
        if self.steps > self.max_steps {
            return Err(RuntimeError::StepLimit(self.max_steps));
        }
        Ok(())
    }

    /// Interprets one *chain*: from the top frame's position through
    /// every instruction, and through every jump whose target block
    /// starts in the same task, until control leaves the chain at a call,
    /// a return or a jump into another task. Every instruction and every
    /// terminator is one step: [`Machine::run_turn`] counts the chain's
    /// first, and each later one is counted here before it runs.
    ///
    /// The position lives in locals and reaches the frame only where the
    /// chain ends: `exec_call` and `jump` write it, and a return pops the
    /// frame. An error leaves the frame stale, which is harmless: every
    /// error ends the run, and the TCP client falls back to a fresh
    /// all-local run.
    fn step(&mut self, peer: &mut dyn ExecHost) -> Result<Option<ControlMsg>, RuntimeError> {
        let Frame {
            func,
            mut block,
            inst: mut pos,
            mut segment,
            ..
        } = *self.stack.last().expect("active frame");
        // Instructions are borrowed from the module, which outlives `self`.
        let module: &'a Module = self.r.module;
        let blocks = &module.function(func).blocks;
        let base = self.reg_base[func.index()];
        loop {
            let b = &blocks[block.index()];
            while let Some(inst) = b.insts.get(pos) {
                self.ledger.stats.instructions += 1;
                self.tally.units += u64::from(self.r.device.cost.inst_weight(inst));
                if let Inst::Call { .. } = inst {
                    return self.exec_call(inst, func, block, pos, segment, peer);
                }
                self.exec_inst(inst, func, base, peer)?;
                pos += 1;
                self.tick()?;
            }

            // The terminator.
            let target = match b.term {
                Terminator::Goto(t) => t,
                Terminator::Branch {
                    cond,
                    then,
                    otherwise,
                } => {
                    if self.operand(base, cond, peer)?.truthy() {
                        then
                    } else {
                        otherwise
                    }
                }
                Terminator::Return(v) => {
                    let value = match v {
                        Some(op) => Some(self.operand(base, op, peer)?),
                        None => None,
                    };
                    return self.exec_return(segment, value, peer);
                }
            };
            let to_seg = self.entry_seg[func.index()][target.index()];
            let tcfg = self.r.tcfg;
            if tcfg.task_of(to_seg) != tcfg.task_of(segment) {
                return self.jump(block, segment, target, to_seg, peer);
            }
            block = target;
            pos = 0;
            segment = to_seg;
            self.tick()?;
        }
    }

    /// A jump into another task: planned transfers, then the host switch
    /// if that task runs on the other host.
    fn jump(
        &mut self,
        from_block: BlockId,
        from_seg: SegmentId,
        to: BlockId,
        to_seg: SegmentId,
        peer: &mut dyn ExecHost,
    ) -> Result<Option<ControlMsg>, RuntimeError> {
        let kind = EdgeKind::Jump {
            from: from_block,
            to,
        };
        let switch = self.cross(from_seg, to_seg, kind, peer)?;
        let frame = self.stack.last_mut().expect("active frame");
        frame.block = to;
        frame.inst = 0;
        frame.segment = to_seg;
        Ok(switch.map(|h| self.package(h, PendingAction::Resume)))
    }

    fn exec_call(
        &mut self,
        inst: &'a Inst,
        func: FuncId,
        block: BlockId,
        pos: usize,
        seg: SegmentId,
        peer: &mut dyn ExecHost,
    ) -> Result<Option<ControlMsg>, RuntimeError> {
        let Inst::Call { dst, callee, args } = inst else {
            unreachable!()
        };
        let base = self.reg_base[func.index()];
        let target = match *callee {
            Callee::Direct(t) => t,
            Callee::Indirect(op) => match self.operand(base, op, peer)? {
                Value::Func(t) => t,
                other => {
                    return Err(RuntimeError::BadIndirectCall(format!(
                        "callee evaluated to {other}"
                    )))
                }
            },
        };
        let module: &'a Module = self.r.module;
        let callee_def = module.function(target);
        if callee_def.params.len() != args.len() {
            return Err(RuntimeError::BadIndirectCall(format!(
                "`{}` expects {} args, got {}",
                callee_def.name,
                callee_def.params.len(),
                args.len()
            )));
        }
        if self.active[target.index()] {
            return Err(RuntimeError::Recursion(callee_def.name.clone()));
        }
        // Evaluate arguments on the caller's host.
        let mut arg_vals = Vec::with_capacity(args.len());
        for &a in args {
            arg_vals.push(self.operand(base, a, peer)?);
        }

        // Advance the caller past the call before switching. A call ends
        // its segment, so the continuation is the block's next segment.
        *self.stack.last_mut().expect("caller frame") = Frame {
            func,
            block,
            inst: pos + 1,
            segment: SegmentId(seg.0 + 1),
            ret_dst: *dst,
        };

        // Control moves to the callee's entry segment.
        let callee_entry = callee_def.entry;
        let entry_seg = self.entry_seg[target.index()][callee_entry.index()];
        let writes: Vec<(LocalId, Value)> =
            callee_def.params.iter().copied().zip(arg_vals).collect();
        let switch = self.cross(seg, entry_seg, EdgeKind::Call { site: seg }, peer)?;
        if let Some(h) = switch {
            // Parameters are carried by the scheduling message and written
            // on the callee's host.
            return Ok(Some(self.package(
                h,
                PendingAction::PushFrame {
                    func: target,
                    block: callee_entry,
                    segment: entry_seg,
                    writes,
                },
            )));
        }
        self.stack.push(Frame {
            func: target,
            block: callee_entry,
            inst: 0,
            segment: entry_seg,
            ret_dst: None,
        });
        self.active[target.index()] = true;
        let callee_base = self.reg_base[target.index()];
        for (p, v) in writes {
            self.write_reg(callee_base, p, v);
        }
        Ok(None)
    }

    fn exec_return(
        &mut self,
        seg: SegmentId,
        value: Option<Value>,
        peer: &mut dyn ExecHost,
    ) -> Result<Option<ControlMsg>, RuntimeError> {
        let done = self.stack.pop().expect("returning frame");
        self.active[done.func.index()] = false;
        let Some(&caller) = self.stack.last() else {
            return Ok(None); // main returned
        };
        // The call segment is the one preceding the continuation.
        let call_seg = SegmentId(caller.segment.0 - 1);
        let kind = EdgeKind::Return { site: call_seg };
        let switch = self.cross(seg, caller.segment, kind, peer)?;
        if let Some(h) = switch {
            // The return value is carried by the message and written on
            // the continuation's host.
            return Ok(Some(self.package(
                h,
                PendingAction::WriteRet {
                    dst: caller.ret_dst,
                    value,
                },
            )));
        }
        if let (Some(d), Some(v)) = (caller.ret_dst, value) {
            self.write_reg(self.reg_base[caller.func.index()], d, v);
        }
        Ok(None)
    }

    /// Runs one non-call instruction of `func`, whose registers start at
    /// `base`.
    fn exec_inst(
        &mut self,
        inst: &Inst,
        func: FuncId,
        base: usize,
        peer: &mut dyn ExecHost,
    ) -> Result<(), RuntimeError> {
        match *inst {
            Inst::Copy { dst, src } => {
                let v = self.operand(base, src, peer)?;
                self.write_reg(base, dst, v);
            }
            Inst::Un { dst, op, src } => {
                let v = self.operand(base, src, peer)?;
                let out = match op {
                    offload_lang::UnOp::Neg => Value::Int(
                        v.as_int()
                            .ok_or_else(|| RuntimeError::BadAccess("negating pointer".into()))?
                            .wrapping_neg(),
                    ),
                    offload_lang::UnOp::Not => Value::Int(!v.truthy() as i64),
                };
                self.write_reg(base, dst, out);
            }
            Inst::Bin { dst, op, lhs, rhs } => {
                let a = self.operand(base, lhs, peer)?;
                let b = self.operand(base, rhs, peer)?;
                let out = eval_bin(op, a, b)?;
                self.write_reg(base, dst, out);
            }
            Inst::AddrGlobal { dst, global } => {
                self.write_reg(base, dst, Value::Addr(ObjKey::Global(global.0), 0));
            }
            Inst::AddrLocal { dst, local } => {
                self.write_reg(base, dst, Value::Addr(ObjKey::Local(func, local), 0));
            }
            Inst::AddrIndex {
                dst,
                base: addr,
                index,
                stride,
            } => {
                let b = self.operand(base, addr, peer)?;
                let i = self.operand(base, index, peer)?;
                let Value::Addr(key, off) = b else {
                    return Err(RuntimeError::BadAccess(format!("indexing {b}")));
                };
                let i = i
                    .as_int()
                    .ok_or_else(|| RuntimeError::BadAccess("pointer used as index".into()))?;
                let new_off = (i.checked_mul(i64::from(stride)))
                    .and_then(|d| d.checked_add(i64::from(off)))
                    .and_then(|o| u32::try_from(o).ok())
                    .ok_or_else(|| {
                        RuntimeError::BadAccess(format!("offset {off} + {i} × {stride}"))
                    })?;
                self.write_reg(base, dst, Value::Addr(key, new_off));
            }
            Inst::AddrField {
                dst,
                base: addr,
                offset,
            } => {
                let b = self.operand(base, addr, peer)?;
                let Value::Addr(key, off) = b else {
                    return Err(RuntimeError::BadAccess(format!("field of {b}")));
                };
                let off = off.checked_add(offset).ok_or_else(|| {
                    RuntimeError::BadAccess(format!("offset {off} + {offset} past u32"))
                })?;
                self.write_reg(base, dst, Value::Addr(key, off));
            }
            Inst::Load { dst, addr } => {
                let a = self.operand(base, addr, peer)?;
                let v = self.load(a, peer)?;
                self.write_reg(base, dst, v);
            }
            Inst::Store { addr, src } => {
                let a = self.operand(base, addr, peer)?;
                let v = self.operand(base, src, peer)?;
                self.store(a, v, peer)?;
            }
            Inst::Alloc {
                dst,
                elem_slots,
                count,
                site,
            } => {
                let c = self
                    .operand(base, count, peer)?
                    .as_int()
                    .ok_or_else(|| RuntimeError::BadAccess("pointer alloc count".into()))?;
                let slots = u64::from(elem_slots).saturating_mul(c.max(0) as u64);
                self.check_slots("allocated", slots)?;
                self.dyn_slots += slots;
                let id = self.dyn_count;
                self.dyn_count += 1;
                self.ledger.stats.registrations += 1;
                // Registration: the id ↔ site binding becomes shared
                // knowledge (it rides the next control transfer); this
                // host materializes zeroed storage now, the other host on
                // receipt. The registration fee is charged once.
                self.state.dyns.insert(
                    id,
                    DynObj {
                        reg: Some((site, slots as u32)),
                        data: vec![Value::Int(0); slots as usize],
                    },
                );
                self.tally.registrations += 1;
                self.write_reg(base, dst, Value::Addr(ObjKey::Dyn(id), 0));
                // The fresh object is valid where it was allocated.
                if let Some(item) = self.site_items[site.index()] {
                    self.note_write(item);
                }
            }
            Inst::LoadFunc { dst, func } => {
                self.write_reg(base, dst, Value::Func(func));
            }
            Inst::Input { dst } => {
                if self.host != Host::Client {
                    return Err(RuntimeError::ServerIo);
                }
                let v = *self
                    .input
                    .get(self.input_pos)
                    .ok_or(RuntimeError::InputExhausted)?;
                self.input_pos += 1;
                self.write_reg(base, dst, Value::Int(v));
            }
            Inst::Output { src } => {
                if self.host != Host::Client {
                    return Err(RuntimeError::ServerIo);
                }
                let v = self
                    .operand(base, src, peer)?
                    .as_int()
                    .ok_or_else(|| RuntimeError::BadAccess("output of pointer".into()))?;
                self.outputs.push(v);
            }
            Inst::Call { .. } => unreachable!("calls end the chain in `step`"),
        }
        Ok(())
    }
}

/// `n × r`, exactly: `n` converts without wrapping.
fn times(n: u64, r: &Rational) -> Rational {
    &Rational::from(BigInt::from(n)) * r
}

fn eval_bin(op: IrBinOp, a: Value, b: Value) -> Result<Value, RuntimeError> {
    // Pointer equality.
    match (op, &a, &b) {
        (IrBinOp::Eq, Value::Addr(..), _)
        | (IrBinOp::Eq, _, Value::Addr(..))
        | (IrBinOp::Eq, Value::Func(_), _)
        | (IrBinOp::Eq, _, Value::Func(_)) => {
            let eq = ptr_eq(&a, &b);
            return Ok(Value::Int(eq as i64));
        }
        (IrBinOp::Ne, Value::Addr(..), _)
        | (IrBinOp::Ne, _, Value::Addr(..))
        | (IrBinOp::Ne, Value::Func(_), _)
        | (IrBinOp::Ne, _, Value::Func(_)) => {
            let eq = ptr_eq(&a, &b);
            return Ok(Value::Int(!eq as i64));
        }
        _ => {}
    }
    let x = a
        .as_int()
        .ok_or_else(|| RuntimeError::BadAccess("arith on pointer".into()))?;
    let y = b
        .as_int()
        .ok_or_else(|| RuntimeError::BadAccess("arith on pointer".into()))?;
    Ok(Value::Int(match op {
        IrBinOp::Add => x.wrapping_add(y),
        IrBinOp::Sub => x.wrapping_sub(y),
        IrBinOp::Mul => x.wrapping_mul(y),
        IrBinOp::Div => {
            if y == 0 {
                return Err(RuntimeError::DivisionByZero);
            }
            x.wrapping_div(y)
        }
        IrBinOp::Rem => {
            if y == 0 {
                return Err(RuntimeError::DivisionByZero);
            }
            x.wrapping_rem(y)
        }
        IrBinOp::Eq => (x == y) as i64,
        IrBinOp::Ne => (x != y) as i64,
        IrBinOp::Lt => (x < y) as i64,
        IrBinOp::Le => (x <= y) as i64,
        IrBinOp::Gt => (x > y) as i64,
        IrBinOp::Ge => (x >= y) as i64,
    }))
}

fn ptr_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Addr(k1, o1), Value::Addr(k2, o2)) => k1 == k2 && o1 == o2,
        (Value::Func(f1), Value::Func(f2)) => f1 == f2,
        (Value::Addr(..), Value::Int(0)) | (Value::Int(0), Value::Addr(..)) => false,
        (Value::Func(_), Value::Int(0)) | (Value::Int(0), Value::Func(_)) => false,
        (Value::Uninit, Value::Int(0)) | (Value::Int(0), Value::Uninit) => true,
        _ => false,
    }
}
