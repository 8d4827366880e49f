//! Service-demand distributions.
//!
//! The paper notes its "simulation results show consistency with different
//! parameter values" (§V-B); beside its bounded Pareto
//! ([`crate::pareto`]), these distributions let a user check that claim
//! for other shapes: lognormal (heavy-ish tail, common for service
//! times), uniform and deterministic.

use rand::rngs::StdRng;
use rand::Rng;

/// A sampleable service-demand distribution.
pub trait DemandDistribution {
    /// Draw one demand (processing units).
    fn sample(&self, rng: &mut StdRng) -> f64;
}

impl DemandDistribution for Box<dyn DemandDistribution> {
    fn sample(&self, rng: &mut StdRng) -> f64 {
        (**self).sample(rng)
    }
}

/// Every request demands exactly the same volume.
#[derive(Clone, Copy, Debug)]
pub struct Deterministic {
    /// The constant demand.
    pub units: f64,
}

impl DemandDistribution for Deterministic {
    fn sample(&self, _rng: &mut StdRng) -> f64 {
        self.units
    }
}

/// Uniform demands on `[lo, hi]`.
#[derive(Clone, Copy, Debug)]
pub struct UniformDemand {
    /// Lower bound (inclusive).
    pub lo: f64,
    /// Upper bound (inclusive).
    pub hi: f64,
}

impl UniformDemand {
    /// Construct with validation.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(0.0 < lo && lo <= hi, "need 0 < lo ≤ hi");
        UniformDemand { lo, hi }
    }
}

impl DemandDistribution for UniformDemand {
    fn sample(&self, rng: &mut StdRng) -> f64 {
        let u: f64 = rng.gen();
        self.lo + u * (self.hi - self.lo)
    }
}

/// Lognormal demands, clamped to `[lo, hi]`; parameterized by the
/// *clamped-free* median `exp(μ)` and shape `σ`.
#[derive(Clone, Copy, Debug)]
pub struct LognormalDemand {
    /// Location parameter μ (of the underlying normal).
    pub mu: f64,
    /// Shape parameter σ > 0.
    pub sigma: f64,
    /// Clamp bounds keeping demands physical.
    pub lo: f64,
    /// Upper clamp.
    pub hi: f64,
}

impl LognormalDemand {
    /// A lognormal roughly matching the paper's workload: median ≈ 165
    /// units, σ = 0.5, clamped to the Pareto bounds.
    pub fn paper_like() -> Self {
        LognormalDemand {
            mu: 165.0f64.ln(),
            sigma: 0.5,
            lo: 130.0,
            hi: 1000.0,
        }
    }
}

impl DemandDistribution for LognormalDemand {
    fn sample(&self, rng: &mut StdRng) -> f64 {
        // Box–Muller.
        let u1: f64 = rng.gen::<f64>().max(1e-12);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (self.mu + self.sigma * z).exp().clamp(self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::BoundedPareto;
    use rand::SeedableRng;

    fn mean_of(d: &dyn DemandDistribution, n: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn deterministic_is_constant() {
        let d = Deterministic { units: 192.0 };
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 192.0);
        }
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let d = UniformDemand::new(100.0, 300.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..5000 {
            let x = d.sample(&mut rng);
            assert!((100.0..=300.0).contains(&x));
        }
        assert!((mean_of(&d, 50_000, 2) - 200.0).abs() < 2.0);
    }

    #[test]
    #[should_panic(expected = "lo")]
    fn uniform_rejects_inverted() {
        UniformDemand::new(5.0, 1.0);
    }

    #[test]
    fn lognormal_clamps_and_is_skewed() {
        let d = LognormalDemand::paper_like();
        let mut rng = StdRng::seed_from_u64(3);
        let mut above_median = 0;
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((130.0..=1000.0).contains(&x), "{x}");
            if x > 165.0 {
                above_median += 1;
            }
        }
        // Median of the unclamped variable is 165; with the lower clamp at
        // 130 the sample median shifts slightly but stays in a sane band.
        let frac = above_median as f64 / 10_000.0;
        assert!((0.35..0.65).contains(&frac), "{frac}");
    }

    #[test]
    fn boxed_distribution_draws_like_its_shape() {
        let pareto = BoundedPareto::paper_default();
        let boxed: Box<dyn DemandDistribution> = Box::new(pareto);
        let (mut a, mut b) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
        for _ in 0..100 {
            assert_eq!(
                boxed.sample(&mut a).to_bits(),
                pareto.sample(&mut b).to_bits()
            );
        }
        assert!((mean_of(&boxed, 100_000, 5) - 192.0).abs() < 3.0);
    }
}
