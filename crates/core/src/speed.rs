//! Piecewise-constant speed plans.
//!
//! DVFS schedulers emit, per core, a sequence of `(start, end, speed)`
//! segments. [`SpeedPlan`] stores them sorted and non-overlapping and
//! provides the integrals the rest of the system needs: processed volume,
//! instantaneous power, and energy.

use crate::power::PowerModel;
use crate::time::{SimDuration, SimTime};
use crate::volume;

/// One maximal run at a constant speed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpeedSegment {
    /// Segment start (inclusive).
    pub start: SimTime,
    /// Segment end (exclusive).
    pub end: SimTime,
    /// Core speed in GHz over `[start, end)`.
    pub speed: f64,
}

impl SpeedSegment {
    /// Segment length.
    #[inline]
    pub fn len(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }

    /// True if the segment covers no time.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// Volume of work done in this segment.
    #[inline]
    pub fn volume(&self) -> f64 {
        volume(self.speed, self.len())
    }
}

/// An ordered, non-overlapping sequence of speed segments; gaps mean the
/// core is idle (speed 0).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpeedPlan {
    segments: Vec<SpeedSegment>,
}

impl SpeedPlan {
    /// The empty (always idle) plan.
    pub fn empty() -> Self {
        SpeedPlan::default()
    }

    /// Build from segments: drops empty ones, sorts by start, and panics in
    /// debug builds if any two overlap (schedulers must never emit overlap).
    pub fn new(mut segments: Vec<SpeedSegment>) -> Self {
        segments.retain(|s| !s.is_empty() && s.speed > 0.0);
        segments.sort_by_key(|s| s.start);
        debug_assert!(
            segments.windows(2).all(|w| w[0].end <= w[1].start),
            "overlapping speed segments"
        );
        SpeedPlan { segments }
    }

    /// The segments in time order.
    #[inline]
    pub fn segments(&self) -> &[SpeedSegment] {
        &self.segments
    }

    /// True if the plan has no work.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Speed at instant `t` (0 when idle).
    pub fn speed_at(&self, t: SimTime) -> f64 {
        // Binary search for the segment containing t.
        let idx = self.segments.partition_point(|s| s.end <= t);
        match self.segments.get(idx) {
            Some(s) if s.start <= t => s.speed,
            _ => 0.0,
        }
    }

    /// Instantaneous dynamic power at `t` under `model`.
    pub fn power_at(&self, t: SimTime, model: &dyn PowerModel) -> f64 {
        model.dynamic_power(self.speed_at(t))
    }

    /// Peak dynamic power over the whole plan.
    pub fn peak_power(&self, model: &dyn PowerModel) -> f64 {
        self.segments
            .iter()
            .map(|s| model.dynamic_power(s.speed))
            .fold(0.0, f64::max)
    }

    /// Total work volume of the plan.
    pub fn total_volume(&self) -> f64 {
        self.segments.iter().map(|s| s.volume()).sum()
    }

    /// Total dynamic energy (J) of the plan.
    pub fn total_energy(&self, model: &dyn PowerModel) -> f64 {
        self.segments
            .iter()
            .map(|s| model.dynamic_energy(s.speed, s.len().as_secs_f64()))
            .sum()
    }

    /// End of the last segment (or `None` for an empty plan).
    pub fn end(&self) -> Option<SimTime> {
        self.segments.last().map(|s| s.end)
    }

    /// Start of the first segment (or `None` for an empty plan).
    pub fn start(&self) -> Option<SimTime> {
        self.segments.first().map(|s| s.start)
    }

    /// The maximum speed used anywhere in the plan.
    pub fn max_speed(&self) -> f64 {
        self.segments.iter().map(|s| s.speed).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::PolynomialPower;

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    fn seg(a: u64, b: u64, s: f64) -> SpeedSegment {
        SpeedSegment {
            start: ms(a),
            end: ms(b),
            speed: s,
        }
    }

    #[test]
    fn construction_drops_empty_and_sorts() {
        let p = SpeedPlan::new(vec![seg(10, 20, 2.0), seg(0, 5, 1.0), seg(5, 5, 3.0)]);
        assert_eq!(p.segments().len(), 2);
        assert_eq!(p.segments()[0].start, ms(0));
        assert_eq!(p.segments()[1].start, ms(10));
    }

    #[test]
    fn speed_lookup() {
        let p = SpeedPlan::new(vec![seg(0, 10, 1.0), seg(20, 30, 2.0)]);
        assert_eq!(p.speed_at(ms(0)), 1.0);
        assert_eq!(p.speed_at(ms(9)), 1.0);
        assert_eq!(p.speed_at(ms(10)), 0.0); // end-exclusive
        assert_eq!(p.speed_at(ms(15)), 0.0); // gap
        assert_eq!(p.speed_at(ms(25)), 2.0);
        assert_eq!(p.speed_at(ms(30)), 0.0);
    }

    #[test]
    fn total_volume_sums_segments() {
        // 1 GHz for 10 ms = 10 units; 2 GHz for 10 ms = 20 units.
        let p = SpeedPlan::new(vec![seg(0, 10, 1.0), seg(20, 30, 2.0)]);
        assert!((p.total_volume() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn total_energy_and_peak_power() {
        let m = PolynomialPower::PAPER_SIM; // 5 s^2
        let p = SpeedPlan::new(vec![seg(0, 1000, 2.0)]); // 20 W for 1 s
        assert!((p.total_energy(&m) - 20.0).abs() < 1e-9);
        assert!((p.peak_power(&m) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn empty_plan_is_inert() {
        let p = SpeedPlan::empty();
        let m = PolynomialPower::PAPER_SIM;
        assert_eq!(p.total_volume(), 0.0);
        assert_eq!(p.total_energy(&m), 0.0);
        assert_eq!(p.speed_at(ms(0)), 0.0);
        assert_eq!(p.end(), None);
        assert_eq!(p.max_speed(), 0.0);
    }
}
