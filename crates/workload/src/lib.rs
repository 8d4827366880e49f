#![warn(missing_docs)]

//! # qes-workload — the web-search workload generator (paper §V-B)
//!
//! The paper drives its evaluation with a synthetic web-search request
//! stream:
//!
//! * **arrivals** follow a Poisson process at a configurable rate
//!   (requests/second) — [`PoissonArrivals`];
//! * **service demands** follow a bounded Pareto distribution with index
//!   `α = 3`, lower bound `x_min = 130` and upper bound `x_max = 1000`
//!   processing units (mean 192) — [`BoundedPareto`];
//! * every request's **deadline** is [`DEADLINE`] (150 ms) after its
//!   arrival, so deadlines are agreeable by construction;
//! * a configurable fraction of requests supports **partial evaluation**
//!   (§V-D varies it over {0 %, 50 %, 100 %}).
//!
//! [`Workload`] is the one seeded, fully deterministic generator: its
//! two type parameters are the [`ArrivalProcess`] and the
//! [`DemandDistribution`]. [`WebSearchWorkload`] is the paper's stream;
//! [`DiurnalWorkload`] swings the rate sinusoidally ([`DiurnalRate`]).

pub mod arrivals;
pub mod distributions;
pub mod generator;
pub mod pareto;
pub mod trace_io;

pub use arrivals::{ArrivalProcess, ConstantRate, DiurnalRate, PoissonArrivals};
pub use distributions::{DemandDistribution, Deterministic, LognormalDemand, UniformDemand};
pub use generator::{DiurnalWorkload, WebSearchWorkload, Workload, DEADLINE};
pub use pareto::BoundedPareto;
pub use trace_io::{from_csv, to_csv, TraceParseError};
