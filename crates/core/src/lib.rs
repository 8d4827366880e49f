#![warn(missing_docs)]

//! # qes-core — domain model for quality-energy scheduling
//!
//! Foundation crate for the reproduction of *"Energy-Efficient Scheduling
//! for Best-Effort Interactive Services to Achieve High Response Quality"*
//! (Du, Sun, He, He, Bader, Zhang — IPDPS 2013).
//!
//! This crate defines the vocabulary every other crate builds on:
//!
//! * [`time`] — simulated time as integer microseconds ([`SimTime`],
//!   [`SimDuration`]), immune to floating-point event-ordering hazards.
//! * [`job`] — best-effort interactive requests ([`Job`], [`JobSet`]) with
//!   release times, deadlines, service demands in *processing units*
//!   (1 GHz · 1 ms = 1 unit, per the paper's §V-B convention), and the
//!   partial-evaluation flag.
//! * [`quality`] — monotonically increasing, strictly concave quality
//!   functions mapping processed volume to response quality (paper Eq. 1).
//! * [`power`] — the dynamic power model `P = a·s^β` (+ optional static
//!   power `b`), its inverse, and discrete speed sets.
//! * [`speed`] — piecewise-constant speed plans and volume/energy integrals.
//! * [`schedule`] — multicore schedules (non-migratory slices) plus
//!   feasibility validation against a power budget.
//! * [`metric`] — the composite lexicographic ⟨quality, energy⟩ metric.

pub mod error;
pub mod gantt;
pub mod job;
pub mod metric;
pub mod obs;
pub mod power;
pub mod quality;
pub mod schedule;
pub mod speed;
pub mod time;

pub use error::QesError;
pub use gantt::{render_gantt, GanttOptions};
pub use job::{Job, JobId, JobSet};
pub use metric::QualityEnergy;
pub use obs::{
    DequeueKind, Event, MetricsRegistry, NoopObserver, Observer, OutageKind, SettleOutcome,
    TraceObserver, TriggerCause,
};
pub use power::{DiscreteSpeedSet, PolynomialPower, PowerModel};
pub use quality::{ExpQuality, QualityFunction};
pub use schedule::{CoreSchedule, Schedule, Slice};
pub use speed::{SpeedPlan, SpeedSegment};
pub use time::{SimDuration, SimTime};

/// Processing units produced by a 1 GHz core in one second (paper §V-B:
/// "the processing capability of a core executing at 1 GHz in one second
/// \[is\] 1000 processing units").
pub const UNITS_PER_GHZ_SECOND: f64 = 1000.0;

/// Work rate (processing units per microsecond) of a core at `speed_ghz`.
///
/// A 2 GHz core produces 2000 units/s = 0.002 units/µs.
#[inline]
pub fn rate_units_per_us(speed_ghz: f64) -> f64 {
    speed_ghz * UNITS_PER_GHZ_SECOND / 1e6
}

/// Volume (processing units) produced at `speed_ghz` over `dur`.
#[inline]
pub fn volume(speed_ghz: f64, dur: SimDuration) -> f64 {
    rate_units_per_us(speed_ghz) * dur.as_micros() as f64
}

/// Speed (GHz) required to produce `units` of work within `dur`.
///
/// Returns `f64::INFINITY` for a zero-length window with positive work.
#[inline]
pub fn speed_for_volume(units: f64, dur: SimDuration) -> f64 {
    if units <= 0.0 {
        return 0.0;
    }
    let us = dur.as_micros() as f64;
    if us <= 0.0 {
        return f64::INFINITY;
    }
    units * 1e6 / (UNITS_PER_GHZ_SECOND * us)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_matches_paper_convention() {
        // 1 GHz for one second => 1000 units.
        let one_sec = SimDuration::from_secs_f64(1.0);
        assert!((volume(1.0, one_sec) - 1000.0).abs() < 1e-9);
        // 2 GHz for one second => 2000 units (paper §V-B).
        assert!((volume(2.0, one_sec) - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn mean_job_at_default_speed_fits_deadline() {
        // Mean demand 192 units at 2 GHz takes 96 ms < 150 ms deadline.
        let s = speed_for_volume(192.0, SimDuration::from_millis(150));
        assert!(s < 2.0);
        let t_us = 192.0 / rate_units_per_us(2.0);
        assert!((t_us - 96_000.0).abs() < 1e-6);
    }

    #[test]
    fn speed_for_volume_edge_cases() {
        assert_eq!(speed_for_volume(0.0, SimDuration::from_millis(1)), 0.0);
        assert_eq!(speed_for_volume(-5.0, SimDuration::from_millis(1)), 0.0);
        assert!(speed_for_volume(1.0, SimDuration::ZERO).is_infinite());
    }

    #[test]
    fn volume_and_speed_roundtrip() {
        let dur = SimDuration::from_millis(137);
        for &s in &[0.1, 0.8, 1.3, 2.0, 2.5, 4.0] {
            let v = volume(s, dur);
            let back = speed_for_volume(v, dur);
            assert!((back - s).abs() < 1e-9, "{s} vs {back}");
        }
    }
}
