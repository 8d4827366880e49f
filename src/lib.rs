#![warn(missing_docs)]

//! # qes — Quality-Energy Scheduling for Best-Effort Interactive Services
//!
//! A from-scratch Rust reproduction of *"Energy-Efficient Scheduling for
//! Best-Effort Interactive Services to Achieve High Response Quality"*
//! (Du, Sun, He, He, Bader, Zhang — IEEE IPDPS 2013).
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! * [`core`] — jobs, quality functions, power models, schedules, and the
//!   composite ⟨quality, energy⟩ metric.
//! * [`singlecore`] — the single-core algorithms: Energy-OPT (YDS),
//!   Quality-OPT (Tians), the offline-optimal QE-OPT, and the myopic
//!   online algorithm Online-QE.
//! * [`multicore`] — the paper's contribution: DES = C-RR + WF + Online-QE,
//!   plus the FCFS/LJF/SJF baselines, the No-/S-/C-DVFS architecture
//!   models, and discrete speed scaling.
//! * [`sim`] — a discrete-event multicore simulator with the paper's
//!   grouped-scheduling triggers.
//! * [`workload`] — the web-search workload generator (Poisson arrivals,
//!   bounded-Pareto demands).
//! * [`cluster`] — the simulated "real system" substrate for the paper's
//!   §V-G validation (Opteron cluster, power meter, regression fitting).
//! * [`experiments`] — drivers that regenerate every figure in the paper.
//!
//! ## Quickstart
//!
//! ```
//! use qes::prelude::*;
//!
//! // The paper's default setup: 16 cores, 320 W, P = 5·s², web search.
//! let cfg = ExperimentConfig::paper_default()
//!     .with_sim_seconds(5.0)
//!     .with_arrival_rate(120.0);
//! let report = run_policy(&cfg, PolicyKind::Des, 42);
//! assert!(report.normalized_quality() > 0.9);
//! ```

pub use qes_cluster as cluster;
pub use qes_core as core;
pub use qes_experiments as experiments;
pub use qes_multicore as multicore;
pub use qes_sim as sim;
pub use qes_singlecore as singlecore;
pub use qes_workload as workload;

/// The most common imports in one place.
pub mod prelude {
    pub use qes_core::{
        render_gantt, DiscreteSpeedSet, ExpQuality, GanttOptions, Job, JobId, JobSet,
        PolynomialPower, PowerModel, QualityEnergy, QualityFunction, Schedule, SimDuration,
        SimTime,
    };
    pub use qes_experiments::{run_jobset, run_policy, ExperimentConfig, PolicyKind};
    pub use qes_multicore::{
        water_filling, ArchKind, BaselineOrder, CrrDistributor, DesPolicy, JobSharing, PowerSharing,
    };
    pub use qes_sim::{SimReport, Simulator, TriggerConfig};
    pub use qes_singlecore::{energy_opt, qe_opt, quality_opt, OnlineMode, QeSolver};
    pub use qes_workload::{BoundedPareto, DiurnalRate, WebSearchWorkload};
}
