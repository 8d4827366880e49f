#![warn(missing_docs)]

//! # qes-sim — discrete-event multicore simulator
//!
//! Drives a [`qes_multicore::SchedulingPolicy`] over a stream of
//! best-effort interactive jobs, reproducing the paper's evaluation
//! methodology (§V):
//!
//! * job arrivals enter a waiting queue;
//! * the policy is invoked on its requested **triggering events** (§IV-E):
//!   quantum ticks, queue-counter thresholds, idle cores, and (for the
//!   baselines) arrivals;
//! * each invocation may move queued jobs onto cores (non-migratory),
//!   replace per-core speed plans, and abandon jobs;
//! * the engine integrates progress and **dynamic energy** exactly
//!   (piecewise-constant speeds), including the *ambient* draw of
//!   architectures that cannot gate idle cores (No-DVFS, S-DVFS);
//! * each job's quality is settled at completion or deadline through the
//!   configured quality function, honouring the partial-evaluation flag.
//!
//! The result is a [`SimReport`] with the paper's two headline metrics —
//! normalized total quality and total dynamic energy — plus per-job
//! counters, and optionally a full execution [`trace`] for the §V-G
//! real-system replay.
//!
//! [`Simulator`] has two entry points: [`Simulator::run`] and
//! [`Simulator::run_observed`], which streams `qes_core::obs` events
//! into an observer. Per-job outcomes (settle class, processed volume,
//! quality) leave the engine only through the observer's `JobSettle`
//! events; the engine keeps no per-job accumulator.

pub mod engine;
pub mod report;
pub mod trace;
pub mod validate;

pub use engine::{SimConfig, Simulator};
pub use qes_multicore::TriggerRequest as TriggerConfig;
pub use report::{SimCounters, SimReport};
pub use trace::{SimTrace, TraceSlice};
pub use validate::{validate_trace, TraceSummary};
