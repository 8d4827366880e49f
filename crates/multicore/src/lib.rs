#![warn(missing_docs)]

//! # qes-multicore — the paper's multicore scheduling algorithms (§IV–§V)
//!
//! The centrepiece is [`DesPolicy`] — **DES (Dynamic Equal Sharing)** —
//! which decomposes the (NP-hard offline) multicore ⟨quality, energy⟩
//! problem into per-core single-core problems via two equal-sharing
//! policies, then solves each core with Online-QE:
//!
//! ```text
//! DES = C-RR + WF + Online-QE
//! ```
//!
//! * [`CrrDistributor`] — **C-RR** (Cumulative Round-Robin) job
//!   distribution (§IV-B): ready jobs are dealt to cores round-robin, and
//!   the dealing position *persists across invocations* so distribution
//!   stays balanced in the long run.
//! * [`water_filling`](mod@water_filling) — **WF** (Water-Filling) power distribution
//!   (§IV-C): cores requesting less than the equal share get exactly what
//!   they ask; the surplus is equally shared among the rest.
//! * [`DesPolicy`] — the four-step invocation of §IV-D, parameterized by
//!   [`ArchKind`] to model the paper's three architectures (§V-A):
//!   No-DVFS, S-DVFS (system-level), C-DVFS (core-level).
//! * [`BaselinePolicy`] — the comparison schedulers FCFS (≡ EDF for
//!   agreeable deadlines), LJF, SJF, each with static equal power sharing
//!   or WF enhancement (§V-E).
//! * [`discrete`] — discrete speed scaling support: WF output rectified to
//!   a [`qes_core::DiscreteSpeedSet`] (§V-F).
//!
//! Policies implement [`SchedulingPolicy`], the contract the `qes-sim`
//! engine drives.

pub mod arch;
pub mod baselines;
pub mod crr;
pub mod des;
pub mod discrete;
pub mod offline;
pub mod policy;
pub mod water_filling;

pub use arch::ArchKind;
pub use baselines::{BaselineOrder, BaselinePolicy};
pub use crr::CrrDistributor;
pub use des::{DesPolicy, JobSharing, PowerSharing};
pub use offline::{offline_best_assignment, offline_crr_qe_opt, OfflineResult};
pub use policy::{CoreView, PolicyDecision, SchedulingPolicy, SystemView, TriggerRequest};
pub use water_filling::water_filling;
