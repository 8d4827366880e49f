#![warn(missing_docs)]

//! # qes-cluster — the simulated "real system" of the paper's §V-G
//!
//! The paper validates its simulator by replaying a DES discrete-speed
//! scheduling trace on an 8-node cluster of dual quad-core AMD Opteron
//! 2380 machines instrumented with PowerPack, and comparing measured
//! against simulated energy. We do not have that hardware, so this crate
//! builds the closest synthetic equivalent that exercises the same code
//! path (see DESIGN.md, *Substitutions*):
//!
//! * [`spec::ClusterSpec`] — the cluster topology and the Opteron's
//!   discrete speed/power table ({0.8, 1.3, 1.8, 2.5} GHz drawing
//!   {11.06, 13.275, 16.85, 22.69} W);
//! * [`regression`] — the paper's regression methodology: fitting
//!   `P = a·s^β + b` to measured ⟨speed, power⟩ pairs (the paper obtains
//!   `a = 2.6075`, `β = 1.791`, `b = 9.2562`; our fitter reproduces it
//!   from the same four points);
//! * [`meter::PowerMeter`] — a PowerPack-like wall-power meter: samples
//!   total cluster power at a fixed period with Gaussian measurement
//!   noise, plus a configurable multiplicative overhead representing the
//!   scheduling/OS activity a real system adds on top of the planned
//!   schedule;
//! * [`replay`] — executes a recorded [`qes_sim::SimTrace`] on the
//!   cluster: *exact* energy (what the simulator predicts) and *measured*
//!   energy (what the meter reports) for Fig. 11;
//! * [`dispatch`] — the sharded cluster *front end*: a deterministic
//!   dispatcher ([`dispatch_protected`], one scan of one event heap)
//!   splitting one arrival stream over N independent simulated machines,
//!   and [`ClusterEngine`] running the per-shard simulations in parallel
//!   and merging their reports (determinism contract in DESIGN.md §9);
//! * [`fault`] — deterministic fault injection: seeded per-shard
//!   crash/brownout windows ([`fault::FaultPlan`]) that the dispatcher
//!   routes around and the engine simulates as capacity epochs, with
//!   stranded-job failover (DESIGN.md §10);
//! * [`admission`] — overload protection for the front end:
//!   deadline-aware admission control, retry budgets with exponential
//!   backoff and seeded jitter, and deterministic request hedging with
//!   first-wins accounting (DESIGN.md §11). The default
//!   [`admission::OverloadPolicy`] is bitwise-identical to running
//!   without one.

pub mod admission;
pub mod dispatch;
pub mod fault;
pub mod meter;
pub mod nodes;
pub mod regression;
pub mod replay;
pub mod spec;

pub use admission::{AdmissionPolicy, HedgePolicy, OverloadPolicy, RetryPolicy};
pub use dispatch::{
    dispatch_protected, split_seed, ClusterEngine, ClusterReport, DispatchPlan, HedgeRecord,
    RoutingPolicy, ShardRun,
};
pub use fault::{effective_cores, Epoch, FaultKind, FaultPlan, FaultWindow};
pub use meter::PowerMeter;
pub use nodes::{
    node_breakdown, node_breakdown_with_outages, node_of_core, NodeEnergy, NodeMeterArray,
};
pub use regression::{fit_power_model, FitReport};
pub use replay::{exact_energy, measured_energy};
pub use spec::ClusterSpec;
