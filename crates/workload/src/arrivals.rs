//! Arrival processes.
//!
//! The paper's stream (§V-B) is a homogeneous Poisson process,
//! [`PoissonArrivals`]. Real interactive services also see *rate*
//! variation, so [`DiurnalRate`] modulates the rate sinusoidally, and
//! [`ConstantRate`] is the same thinning sampler at a flat rate.
//!
//! The modulated processes sample by thinning (Lewis–Shedler): draw
//! candidate arrivals from a homogeneous process at the peak rate and
//! keep each with probability `rate(t) / peak`.

use qes_core::error::QesError;
use qes_core::time::SimTime;
use rand::rngs::StdRng;
use rand::Rng;

/// A seeded arrival process on a clock `t` kept in seconds.
pub trait ArrivalProcess {
    /// `BadParameter` unless every rate, peak and period is finite and
    /// positive; a process that fails this may never emit an arrival.
    fn validate(&self) -> Result<(), QesError>;

    /// Advance `t` to the next arrival and return its instant, or `None`
    /// once a candidate instant reaches `horizon`.
    ///
    /// Implementations are `#[inline]`: [`crate::Workload`] is generic, so
    /// its loops compile in the caller's crate, and an out-of-line call
    /// per draw doubles the time to generate the paper's stream.
    fn next(&self, rng: &mut StdRng, t: &mut f64, horizon: SimTime) -> Option<SimTime>;
}

/// `BadParameter` unless `value` is finite and positive.
fn positive(what: &'static str, value: f64) -> Result<(), QesError> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        Err(QesError::BadParameter { what, value })
    }
}

/// One exponential gap at `rate` (one uniform draw), or `None` when the
/// new instant reaches `horizon`.
#[inline]
fn step(rng: &mut StdRng, t: &mut f64, rate: f64, horizon: SimTime) -> Option<SimTime> {
    // Inverse CDF; 1−u ∈ (0, 1] avoids ln(0).
    let u: f64 = rng.gen();
    *t += -(1.0 - u).ln() / rate;
    let at = SimTime::from_secs_f64(*t);
    (at < horizon).then_some(at)
}

/// Candidates at `peak`, each kept with probability `rate_at(t) / peak`.
/// The horizon is tested before the keep draw, so the last candidate
/// consumes one uniform, not two.
#[inline]
fn thin(
    rng: &mut StdRng,
    t: &mut f64,
    horizon: SimTime,
    peak: f64,
    rate_at: impl Fn(SimTime) -> f64,
) -> Option<SimTime> {
    loop {
        let at = step(rng, t, peak, horizon)?;
        let keep: f64 = rng.gen();
        if keep * peak < rate_at(at) {
            return Some(at);
        }
    }
}

/// The paper's Poisson process: inter-arrival times are i.i.d.
/// exponential with mean `1/rate` (requests/second).
#[derive(Clone, Copy, Debug)]
pub struct PoissonArrivals(pub f64);

impl ArrivalProcess for PoissonArrivals {
    fn validate(&self) -> Result<(), QesError> {
        positive("arrival rate", self.0)
    }

    #[inline]
    fn next(&self, rng: &mut StdRng, t: &mut f64, horizon: SimTime) -> Option<SimTime> {
        step(rng, t, self.0, horizon)
    }
}

/// A constant rate sampled by thinning: the arrivals of
/// [`PoissonArrivals`] at the same rate, but every candidate also
/// consumes a keep draw.
#[derive(Clone, Copy, Debug)]
pub struct ConstantRate(pub f64);

impl ArrivalProcess for ConstantRate {
    fn validate(&self) -> Result<(), QesError> {
        positive("arrival rate", self.0)
    }

    #[inline]
    fn next(&self, rng: &mut StdRng, t: &mut f64, horizon: SimTime) -> Option<SimTime> {
        thin(rng, t, horizon, self.0, |_| self.0)
    }
}

/// Sinusoidal "diurnal" profile: `base + amp·sin(2π t / period)`,
/// clamped at zero.
#[derive(Clone, Copy, Debug)]
pub struct DiurnalRate {
    /// Mean rate (req/s).
    pub base: f64,
    /// Swing amplitude (req/s); may exceed `base` (the floor is 0).
    pub amp: f64,
    /// Cycle length in seconds.
    pub period_secs: f64,
}

impl DiurnalRate {
    #[inline]
    fn rate_at(&self, t: SimTime) -> f64 {
        let phase = 2.0 * std::f64::consts::PI * t.as_secs_f64() / self.period_secs;
        (self.base + self.amp * phase.sin()).max(0.0)
    }

    fn peak(&self) -> f64 {
        self.base + self.amp.abs()
    }
}

impl ArrivalProcess for DiurnalRate {
    fn validate(&self) -> Result<(), QesError> {
        positive("diurnal peak rate", self.peak())?;
        positive("diurnal period", self.period_secs)
    }

    #[inline]
    fn next(&self, rng: &mut StdRng, t: &mut f64, horizon: SimTime) -> Option<SimTime> {
        thin(rng, t, horizon, self.peak(), |at| self.rate_at(at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Every arrival of `p` in `[0, horizon)` from `seed`.
    fn arrivals(p: &impl ArrivalProcess, seed: u64, horizon: SimTime) -> Vec<SimTime> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = 0.0;
        std::iter::from_fn(|| p.next(&mut rng, &mut t, horizon)).collect()
    }

    #[test]
    fn mean_rate_matches_over_long_horizon() {
        let arr = arrivals(&PoissonArrivals(120.0), 7, SimTime::from_secs(100));
        let observed = arr.len() as f64 / 100.0;
        assert!(
            (observed - 120.0).abs() < 6.0,
            "observed rate {observed} too far from 120"
        );
    }

    #[test]
    fn arrivals_are_sorted_and_in_range() {
        let horizon = SimTime::from_secs(10);
        let arr = arrivals(&PoissonArrivals(50.0), 1, horizon);
        assert!(arr.windows(2).all(|w| w[0] <= w[1]));
        assert!(arr.iter().all(|&t| t < horizon));
    }

    #[test]
    fn deterministic_under_same_seed() {
        let p = PoissonArrivals(80.0);
        let horizon = SimTime::from_secs(5);
        let a = arrivals(&p, 42, horizon);
        assert_eq!(a, arrivals(&p, 42, horizon));
        assert_ne!(a, arrivals(&p, 43, horizon));
    }

    #[test]
    fn gap_distribution_mean_and_positivity() {
        let p = PoissonArrivals(10.0);
        let mut rng = StdRng::seed_from_u64(3);
        let (n, mut t, mut prev) = (20_000, 0.0, 0.0);
        let mut sum = 0.0;
        for _ in 0..n {
            p.next(&mut rng, &mut t, SimTime::MAX).unwrap();
            assert!(t >= prev);
            sum += t - prev;
            prev = t;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.1).abs() < 0.005, "mean gap {mean}");
    }

    #[test]
    fn constant_profile_matches_homogeneous_rate() {
        let arr = arrivals(&ConstantRate(100.0), 1, SimTime::from_secs(100));
        let rate = arr.len() as f64 / 100.0;
        assert!((rate - 100.0).abs() < 5.0, "{rate}");
    }

    #[test]
    fn diurnal_rate_shape() {
        let p = DiurnalRate {
            base: 100.0,
            amp: 80.0,
            period_secs: 120.0,
        };
        // Peak of the sine at t = period/4.
        assert!((p.rate_at(SimTime::from_secs(30)) - 180.0).abs() < 1e-6);
        // Trough at 3/4 period.
        assert!((p.rate_at(SimTime::from_secs(90)) - 20.0).abs() < 1e-6);
        assert_eq!(p.peak(), 180.0);
    }

    #[test]
    fn diurnal_floor_at_zero() {
        let p = DiurnalRate {
            base: 10.0,
            amp: 50.0,
            period_secs: 60.0,
        };
        assert_eq!(p.rate_at(SimTime::from_secs(45)), 0.0);
    }

    #[test]
    fn thinning_tracks_the_profile() {
        // Count arrivals in the high and low half-cycles.
        let p = DiurnalRate {
            base: 100.0,
            amp: 60.0,
            period_secs: 100.0,
        };
        let arr = arrivals(&p, 7, SimTime::from_secs(100));
        let first_half = arr.iter().filter(|&&t| t < SimTime::from_secs(50)).count();
        let second_half = arr.len() - first_half;
        // Expected ≈ (100 + 2·60/π)·50 vs (100 − 2·60/π)·50 ≈ 6909 vs 3090.
        assert!(
            first_half as f64 > 1.5 * second_half as f64,
            "{first_half} vs {second_half}"
        );
    }

    #[test]
    fn thinned_arrivals_are_sorted_and_deterministic() {
        let p = DiurnalRate {
            base: 80.0,
            amp: 40.0,
            period_secs: 30.0,
        };
        let a = arrivals(&p, 9, SimTime::from_secs(20));
        assert_eq!(a, arrivals(&p, 9, SimTime::from_secs(20)));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn a_negative_base_is_valid_while_the_swing_lifts_the_peak() {
        let dipping = |base| DiurnalRate {
            base,
            amp: 50.0,
            period_secs: 60.0,
        };
        assert!(dipping(-10.0).validate().is_ok());
        assert!(dipping(-50.0).validate().is_err());
    }
}
