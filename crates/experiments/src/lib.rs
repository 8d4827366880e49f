#![warn(missing_docs)]

//! # qes-experiments — drivers that regenerate every figure of the paper
//!
//! One module per figure of the evaluation section (§V), each producing a
//! structured [`FigureReport`] (printable as an ASCII table, writable as
//! CSV) from the same building blocks:
//!
//! * [`ExperimentConfig`] — the §V-B defaults (16 cores, `H = 320` W,
//!   `P = 5·s²`, quality `c = 0.003`, 150 ms deadlines, bounded-Pareto
//!   demands, 1800 s horizon) with builder-style overrides;
//! * [`PolicyKind`] — every scheduler variant evaluated in the paper;
//! * [`run_policy`] — one simulation run, seeded and deterministic;
//! * [`figures::common::measure`] — the rayon-parallel
//!   ⟨series, arrival-rate⟩ sweep every rate-sweep figure runs.
//!
//! | Module | Reproduces |
//! |--------|------------|
//! | [`figures::fig01`] | Fig. 1 — example quality function |
//! | [`figures::fig02`] | Fig. 2 — WF worked example |
//! | [`figures::fig03`] | Fig. 3 — DES on No-/S-/C-DVFS |
//! | [`figures::fig04`] | Fig. 4 — partial-evaluation proportions |
//! | [`figures::fig05`] | Fig. 5 — DES vs FCFS/LJF/SJF |
//! | [`figures::fig06`] | Fig. 6 — DES vs WF-enhanced baselines |
//! | [`figures::fig07`] | Fig. 7 — quality-function sensitivity |
//! | [`figures::fig08`] | Fig. 8 — power-budget sensitivity |
//! | [`figures::fig09`] | Fig. 9 — core-count sensitivity |
//! | [`figures::fig10`] | Fig. 10 — continuous vs discrete speed |
//! | [`figures::fig11`] | Fig. 11 — simulation vs real-system energy |
//!
//! Run them all from the CLI:
//!
//! ```text
//! cargo run --release -p qes-experiments --bin figures -- all
//! cargo run --release -p qes-experiments --bin figures -- fig05 --full
//! ```

pub mod config;
pub mod figures;
pub mod report;

pub use config::{run_jobset, run_policy, run_policy_traced, ExperimentConfig, PolicyKind};
pub use report::{FigureReport, Row};
