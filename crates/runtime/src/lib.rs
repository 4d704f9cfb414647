//! # offload-runtime
//!
//! The distributed execution substrate of the reproduction: a
//! deterministic two-host simulator standing in for the paper's iPAQ
//! client + desktop server + WaveLAN testbed.
//!
//! * [`DeviceModel`] — simulated client/server speeds, link costs, cache
//!   behaviour and client power draw, with §3.2-style calibration;
//! * [`Runner`] — executes a lowered program under a partitioning plan
//!   ([`Plan::AllLocal`] or a [`offload_core::Partition`]), simulating
//!   message passing, the registration mechanism for dynamic data, and
//!   per-item validity states;
//! * [`Simulator`] — convenience facade tying a finished
//!   [`offload_core::Analysis`] to a device model.
//!
//! ```
//! use offload_core::{Analysis, AnalysisOptions};
//! use offload_runtime::{DeviceModel, Simulator};
//!
//! let src = "
//!     int work(int k) {
//!         int j; int acc;
//!         acc = 0;
//!         for (j = 0; j < k; j++) { acc = acc + j * j; }
//!         return acc;
//!     }
//!     void main(int n) { output(work(n)); }";
//! let analysis = Analysis::from_source(src, AnalysisOptions::default())?;
//! let sim = Simulator::new(&analysis, DeviceModel::ipaq_testbed());
//! let local = sim.run_local(&[50], &[])?;
//! let (choice, dispatched) = sim.run_dispatched(&[50], &[])?;
//! // Same observable behaviour under any plan:
//! assert_eq!(local.outputs, dispatched.outputs);
//! # let _ = choice;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod device;
mod exec;
pub mod host;
mod value;

pub use device::DeviceModel;
pub use exec::{Host, Plan, RunResult, RunStats, Runner, RuntimeError};
pub use host::{
    ControlMsg, ExecHost, Frame, HostError, ItemPayload, Ledger, Machine, ObjEntry, Outcome,
    PendingAction, MAX_DYN_SLOTS,
};
pub use value::{ObjKey, Value};

use offload_core::Analysis;
use offload_pta::AbsLocId;

/// Errors from the [`Simulator`] facade.
#[derive(Debug)]
pub enum SimError {
    /// The run itself failed.
    Runtime(RuntimeError),
    /// Choosing a partition failed (missing annotation, arity).
    Dispatch(offload_core::DispatchError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Runtime(e) => write!(f, "{e}"),
            SimError::Dispatch(e) => write!(f, "{e}"),
        }
    }
}
impl std::error::Error for SimError {}

impl From<RuntimeError> for SimError {
    fn from(e: RuntimeError) -> Self {
        SimError::Runtime(e)
    }
}
impl From<offload_core::DispatchError> for SimError {
    fn from(e: offload_core::DispatchError) -> Self {
        SimError::Dispatch(e)
    }
}

/// Ties an [`Analysis`] to a [`DeviceModel`] for convenient experiments.
pub struct Simulator<'a> {
    analysis: &'a Analysis,
    device: DeviceModel,
    tracked: Vec<AbsLocId>,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator for the analyzed program.
    pub fn new(analysis: &'a Analysis, device: DeviceModel) -> Self {
        let tracked = analysis.items.items.iter().map(|i| i.loc).collect();
        Simulator {
            analysis,
            device,
            tracked,
        }
    }

    /// The device model in use.
    pub fn device(&self) -> &DeviceModel {
        &self.device
    }

    fn runner<'b>(&'b self, plan: Plan<'b>) -> Runner<'b> {
        Runner {
            module: &self.analysis.module,
            tcfg: &self.analysis.tcfg,
            pta: &self.analysis.pta,
            tracked_order: &self.tracked,
            device: &self.device,
            plan,
            max_steps: 0,
        }
    }

    /// Runs under any [`Plan`] — the single execution entry point shared
    /// with the TCP engine and the experiment harness. [`Plan::Remote`]
    /// indices are resolved against this simulator's analysis.
    ///
    /// # Errors
    ///
    /// Propagates [`RuntimeError`].
    ///
    /// # Panics
    ///
    /// Panics if a [`Plan::Remote`] index is out of range.
    pub fn run(
        &self,
        plan: Plan<'_>,
        params: &[i64],
        input: &[i64],
    ) -> Result<RunResult, SimError> {
        let plan = plan.resolve(&self.analysis.partition);
        Ok(self.runner(plan).run(params, input)?)
    }

    /// Runs everything on the client (the paper's normalization baseline).
    ///
    /// # Errors
    ///
    /// Propagates [`RuntimeError`].
    pub fn run_local(&self, params: &[i64], input: &[i64]) -> Result<RunResult, SimError> {
        self.run(Plan::AllLocal, params, input)
    }

    /// Runs under a specific partitioning choice.
    ///
    /// # Errors
    ///
    /// Propagates [`RuntimeError`].
    ///
    /// # Panics
    ///
    /// Panics if `choice` is out of range.
    pub fn run_choice(
        &self,
        choice: usize,
        params: &[i64],
        input: &[i64],
    ) -> Result<RunResult, SimError> {
        self.run(Plan::Remote(choice), params, input)
    }

    /// Full adaptive execution: dispatch on the parameter values (the
    /// Figure 2 transformation), then run the selected partitioning.
    ///
    /// # Errors
    ///
    /// Propagates dispatch and runtime errors.
    pub fn run_dispatched(
        &self,
        params: &[i64],
        input: &[i64],
    ) -> Result<(usize, RunResult), SimError> {
        let idx = self.analysis.select(params)?;
        let result = self.run_choice(idx, params, input)?;
        Ok((idx, result))
    }
}
