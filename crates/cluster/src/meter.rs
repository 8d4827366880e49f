//! A PowerPack-like sampled power meter.
//!
//! PowerPack instruments a cluster with per-component power sensors read
//! at a fixed sampling rate; energy is the numerical integral of those
//! samples. Two effects separate its reading from the simulator's exact
//! integral: sampling quantization plus sensor noise, and the extra power
//! a real machine spends on scheduling/OS work that the planned schedule
//! does not show. [`PowerMeter`] models all three.

use qes_core::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the simulated wall-power meter.
#[derive(Clone, Debug)]
pub struct PowerMeter {
    /// Sampling period (PowerPack-class meters sample at ~10–1000 Hz).
    pub sample_period: SimDuration,
    /// Standard deviation of zero-mean Gaussian sensor noise per sample
    /// (W).
    pub noise_std: f64,
    /// Multiplicative overhead representing real-system scheduling/OS
    /// activity (e.g. `0.02` = +2 %).
    pub overhead: f64,
    /// RNG seed for the noise stream.
    pub seed: u64,
}

impl Default for PowerMeter {
    fn default() -> Self {
        PowerMeter {
            sample_period: SimDuration::from_millis(100),
            noise_std: 1.0,
            overhead: 0.02,
            seed: 0,
        }
    }
}

impl PowerMeter {
    /// Integrate `power_at` (instantaneous total W) over `[0, end)` the
    /// way the meter would: sample at every grid instant `k ·
    /// sample_period`, perturb, and weight each sample by its interval
    /// (the last one clipped at `end`).
    pub fn measure(&self, end: SimTime, mut power_at: impl FnMut(SimTime) -> f64) -> f64 {
        let mut rng = StdRng::seed_from_u64(self.seed);
        assert!(
            self.sample_period.as_secs_f64() > 0.0,
            "sample period must be positive"
        );
        let mut t = SimTime::ZERO;
        let mut energy = 0.0;
        while t < end {
            let sample_end = (t + self.sample_period).min(end);
            let p = power_at(t) * (1.0 + self.overhead) + self.gaussian(&mut rng);
            let span = sample_end.saturating_since(t);
            energy += p.max(0.0) * span.as_secs_f64();
            t += self.sample_period;
        }
        energy
    }

    /// One zero-mean Gaussian sample via Box–Muller.
    fn gaussian(&self, rng: &mut StdRng) -> f64 {
        if self.noise_std <= 0.0 {
            return 0.0;
        }
        let u1: f64 = rng.gen::<f64>().max(1e-12);
        let u2: f64 = rng.gen::<f64>();
        self.noise_std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noiseless_meter_integrates_constant_power() {
        let m = PowerMeter {
            noise_std: 0.0,
            overhead: 0.0,
            ..PowerMeter::default()
        };
        let e = m.measure(SimTime::from_secs(10), |_| 50.0);
        assert!((e - 500.0).abs() < 1e-9);
    }

    #[test]
    fn overhead_inflates_reading() {
        let m = PowerMeter {
            noise_std: 0.0,
            overhead: 0.05,
            ..PowerMeter::default()
        };
        let e = m.measure(SimTime::from_secs(10), |_| 100.0);
        assert!((e - 1050.0).abs() < 1e-9);
    }

    #[test]
    fn noise_averages_out_over_long_runs() {
        let m = PowerMeter {
            noise_std: 5.0,
            overhead: 0.0,
            ..PowerMeter::default()
        };
        let e = m.measure(SimTime::from_secs(100), |_| 100.0);
        // 1000 samples of σ=5 noise: standard error ≈ 5/√1000 ≈ 0.16 W.
        assert!((e - 10_000.0).abs() < 100.0, "energy {e}");
    }

    #[test]
    fn deterministic_per_seed() {
        let mk = |seed| PowerMeter {
            seed,
            ..PowerMeter::default()
        };
        let f = |_| 75.0;
        let a = mk(1).measure(SimTime::from_secs(5), f);
        let b = mk(1).measure(SimTime::from_secs(5), f);
        let c = mk(2).measure(SimTime::from_secs(5), f);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn samples_track_time_varying_power() {
        let m = PowerMeter {
            noise_std: 0.0,
            overhead: 0.0,
            ..PowerMeter::default()
        };
        // 100 W for the first 5 s, 0 after.
        let e = m.measure(SimTime::from_secs(10), |t| {
            if t < SimTime::from_secs(5) {
                100.0
            } else {
                0.0
            }
        });
        assert!((e - 500.0).abs() < 1e-9);
    }

    #[test]
    fn partial_last_sample_weighted_correctly() {
        let m = PowerMeter {
            sample_period: SimDuration::from_millis(300),
            noise_std: 0.0,
            overhead: 0.0,
            seed: 0,
        };
        // 1 s horizon = 3 full samples + one 100 ms remainder.
        let e = m.measure(SimTime::from_secs(1), |_| 10.0);
        assert!((e - 10.0).abs() < 1e-9, "energy {e}");
    }
}
