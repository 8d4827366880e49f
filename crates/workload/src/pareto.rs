//! Bounded Pareto service-demand distribution (paper §V-B).

use rand::rngs::StdRng;
use rand::Rng;

use crate::distributions::DemandDistribution;

/// A bounded Pareto distribution with index `α`, lower bound `x_min` and
/// upper bound `x_max`.
///
/// Density ∝ `x^{−α−1}` on `[x_min, x_max]`. The paper's workload uses
/// `α = 3`, `x_min = 130`, `x_max = 1000` processing units, whose mean the
/// paper reports as 192 units.
#[derive(Clone, Copy, Debug)]
pub struct BoundedPareto {
    alpha: f64,
    x_min: f64,
    x_max: f64,
}

impl BoundedPareto {
    /// The paper's parameters: `α = 3`, bounds `[130, 1000]` units.
    pub fn paper_default() -> Self {
        BoundedPareto::new(3.0, 130.0, 1000.0)
    }

    /// Construct with validation.
    pub fn new(alpha: f64, x_min: f64, x_max: f64) -> Self {
        assert!(alpha > 0.0 && alpha.is_finite(), "alpha must be positive");
        assert!(
            0.0 < x_min && x_min < x_max && x_max.is_finite(),
            "bounds must satisfy 0 < x_min < x_max < ∞"
        );
        BoundedPareto {
            alpha,
            x_min,
            x_max,
        }
    }

    /// Analytic mean of the distribution.
    pub fn mean(&self) -> f64 {
        let (a, l, h) = (self.alpha, self.x_min, self.x_max);
        if (a - 1.0).abs() < 1e-12 {
            // α = 1 special case.
            let c = 1.0 / (1.0 / l - 1.0 / h);
            return c * (h / l).ln();
        }
        // E[X] = l^α / (1 − (l/h)^α) · α/(α−1) · (l^{1−α}… ) — standard form:
        let num = l.powf(a) * a / (a - 1.0) * (l.powf(1.0 - a) - h.powf(1.0 - a));
        let den = 1.0 - (l / h).powf(a);
        num / den
    }
}

impl DemandDistribution for BoundedPareto {
    /// One draw via the inverse CDF.
    #[inline]
    fn sample(&self, rng: &mut StdRng) -> f64 {
        let u: f64 = rng.gen::<f64>();
        let (a, l, h) = (self.alpha, self.x_min, self.x_max);
        // F(x) = (1 − (l/x)^α) / (1 − (l/h)^α); invert for x.
        let tail = 1.0 - (l / h).powf(a);
        let x = l / (1.0 - u * tail).powf(1.0 / a);
        x.clamp(l, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn paper_mean_is_192_units() {
        // §V-B: "the mean service demand of a request can then be
        // calculated to be 192 processing units".
        let d = BoundedPareto::paper_default();
        assert!((d.mean() - 192.0).abs() < 1.0, "mean {}", d.mean());
    }

    #[test]
    fn samples_respect_bounds() {
        let d = BoundedPareto::paper_default();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((130.0..=1000.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn empirical_mean_matches_analytic() {
        let d = BoundedPareto::paper_default();
        let mut rng = StdRng::seed_from_u64(11);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| d.sample(&mut rng)).sum();
        let emp = sum / n as f64;
        assert!(
            (emp - d.mean()).abs() < 2.0,
            "empirical {emp} vs {}",
            d.mean()
        );
    }

    #[test]
    fn heavier_tail_with_smaller_alpha() {
        let light = BoundedPareto::new(5.0, 130.0, 1000.0);
        let heavy = BoundedPareto::new(1.5, 130.0, 1000.0);
        assert!(heavy.mean() > light.mean());
    }

    #[test]
    fn most_mass_near_lower_bound() {
        // α = 3 decays fast: most samples should sit below 2·x_min.
        let d = BoundedPareto::paper_default();
        let mut rng = StdRng::seed_from_u64(2);
        let n = 50_000;
        let below = (0..n).filter(|_| d.sample(&mut rng) < 260.0).count();
        let frac = below as f64 / n as f64;
        assert!(frac > 0.80, "fraction below 2·x_min = {frac}");
    }

    #[test]
    fn alpha_one_mean_special_case() {
        let d = BoundedPareto::new(1.0, 100.0, 1000.0);
        let mut rng = StdRng::seed_from_u64(9);
        let n = 200_000;
        let emp: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!(
            (emp - d.mean()).abs() < 5.0,
            "empirical {emp} vs {}",
            d.mean()
        );
    }

    #[test]
    #[should_panic(expected = "bounds")]
    fn inverted_bounds_rejected() {
        BoundedPareto::new(2.0, 10.0, 5.0);
    }
}
