#![warn(missing_docs)]

//! # qes-singlecore — single-core scheduling algorithms (paper §III)
//!
//! Implements the four single-core algorithms of the paper:
//!
//! * [`energy_opt`](mod@energy_opt) — **Energy-OPT**, the YDS algorithm (Yao, Demers,
//!   Shenker '95): minimum-energy DVFS schedule that satisfies every job,
//!   assuming no power budget. Works by repeatedly extracting the
//!   *critical interval* (the interval of maximum intensity) and running
//!   its jobs EDF at the interval's average speed.
//! * [`quality_opt`](mod@quality_opt) — **Quality-OPT**, the Tians algorithm (He, Elnikety,
//!   Sun, ICDCS '11): maximum-quality schedule on a *fixed-speed* core
//!   where jobs may be partially evaluated. Works by repeatedly extracting
//!   the *busiest deprived interval* (minimum d-mean) and giving every
//!   deprived job in it the same processed volume (the d-mean), exploiting
//!   the concavity of the quality function.
//! * [`qe_opt`](mod@qe_opt) — **QE-OPT**, the paper's offline optimal for the
//!   lexicographic ⟨quality, energy⟩ metric under a power budget:
//!   Quality-OPT at the maximum budget speed decides volumes, then
//!   Energy-OPT on the trimmed demands decides speeds.
//! * [`online_qe`](mod@online_qe) — **Online-QE**, the myopic-optimal online algorithm:
//!   QE-OPT over the currently ready jobs, with release times rewound to
//!   account for work already performed.
//!
//! All algorithms require *agreeable deadlines* (later release ⇒ no earlier
//! deadline, §II-A), which [`qes_core::JobSet`] guarantees.
//!
//! Internally, interval extraction uses a virtual/real coordinate map
//! (the private `timeline` module) instead of mutating job windows
//! destructively: extracted
//! intervals are cut out of the virtual axis, remaining windows compress
//! automatically, and finished slices map back to real free slots.

pub mod energy_opt;
pub mod online_qe;
pub mod qe_opt;
pub mod quality_opt;
pub(crate) mod timeline;

pub use energy_opt::{energy_opt, EnergyOptResult};
pub use online_qe::{myopic_volumes, online_qe, OnlineMode, OnlineQeOutcome, QeSolver, ReadyJob};
pub use qe_opt::{qe_opt, QeOptResult};
pub use quality_opt::{quality_opt, QualityOptResult};
