//! Piecewise-linear concave quality functions.
//!
//! Real services measure their quality curve empirically (e.g. fraction
//! of index servers answered vs processing time, as in the paper's web
//! search motivation) and get a table of points rather than a formula.
//! [`PiecewiseLinearQuality`] interpolates such a table and *validates
//! concavity and monotonicity at construction*, so every scheduler
//! optimality argument that relies on those properties stays sound.

use crate::error::QesError;
use crate::quality::QualityFunction;

/// A validated piecewise-linear, non-decreasing, concave quality curve.
#[derive(Clone, Debug)]
pub struct PiecewiseLinearQuality {
    /// `(volume, quality)` knots, strictly increasing in volume, starting
    /// at `(0, 0)`.
    knots: Vec<(f64, f64)>,
}

impl PiecewiseLinearQuality {
    /// Build from `(volume, quality)` knots.
    ///
    /// Requirements, checked here:
    /// * at least two knots, the first at `(0, 0)`;
    /// * volumes strictly increasing, qualities non-decreasing;
    /// * segment slopes non-increasing (concavity).
    ///
    /// Beyond the last knot the curve is flat (no extra quality).
    pub fn new(knots: Vec<(f64, f64)>) -> Result<Self, QesError> {
        if knots.len() < 2 {
            return Err(QesError::BadParameter {
                what: "piecewise quality knot count",
                value: knots.len() as f64,
            });
        }
        if knots[0] != (0.0, 0.0) {
            return Err(QesError::BadParameter {
                what: "piecewise quality first knot (must be (0,0))",
                value: knots[0].0,
            });
        }
        let mut prev_slope = f64::INFINITY;
        for w in knots.windows(2) {
            let (x0, q0) = w[0];
            let (x1, q1) = w[1];
            if !x1.is_finite() || x1 <= x0 {
                return Err(QesError::BadParameter {
                    what: "piecewise quality volumes (must strictly increase)",
                    value: x1,
                });
            }
            if q1 < q0 || !q1.is_finite() {
                return Err(QesError::BadParameter {
                    what: "piecewise quality values (must not decrease)",
                    value: q1,
                });
            }
            let slope = (q1 - q0) / (x1 - x0);
            if slope > prev_slope + 1e-12 {
                return Err(QesError::BadParameter {
                    what: "piecewise quality slope (must not increase: concavity)",
                    value: slope,
                });
            }
            prev_slope = slope;
        }
        Ok(PiecewiseLinearQuality { knots })
    }

    /// The validated knots.
    pub fn knots(&self) -> &[(f64, f64)] {
        &self.knots
    }

    /// Approximate the exponential family (Eq. 1) with `n` equally spaced
    /// knots up to `x_max` — handy for comparing tabular against analytic
    /// behaviour.
    pub fn approximating_exp(c: f64, x_max: f64, n: usize) -> Self {
        let q = crate::quality::ExpQuality::normalized_at(c, x_max);
        let knots = (0..=n)
            .map(|i| {
                let x = x_max * i as f64 / n as f64;
                (x, q.value(x))
            })
            .collect();
        Self::new(knots).expect("exp family is concave and monotone")
    }
}

impl QualityFunction for PiecewiseLinearQuality {
    fn value(&self, x: f64) -> f64 {
        let x = x.max(0.0);
        let last = *self.knots.last().unwrap();
        if x >= last.0 {
            return last.1;
        }
        let idx = self.knots.partition_point(|&(kx, _)| kx <= x);
        let (x0, q0) = self.knots[idx - 1];
        let (x1, q1) = self.knots[idx];
        q0 + (q1 - q0) * (x - x0) / (x1 - x0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::{is_concave_on, is_non_decreasing_on, ExpQuality};

    fn simple() -> PiecewiseLinearQuality {
        PiecewiseLinearQuality::new(vec![(0.0, 0.0), (100.0, 0.6), (300.0, 0.9), (1000.0, 1.0)])
            .unwrap()
    }

    #[test]
    fn interpolates_between_knots() {
        let q = simple();
        assert_eq!(q.value(0.0), 0.0);
        assert!((q.value(50.0) - 0.3).abs() < 1e-12);
        assert!((q.value(100.0) - 0.6).abs() < 1e-12);
        assert!((q.value(200.0) - 0.75).abs() < 1e-12);
        assert!((q.value(1000.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn flat_beyond_last_knot_and_clamped_below_zero() {
        let q = simple();
        assert_eq!(q.value(5000.0), 1.0);
        assert_eq!(q.value(-10.0), 0.0);
    }

    #[test]
    fn validation_rejects_bad_tables() {
        // Too few knots.
        assert!(PiecewiseLinearQuality::new(vec![(0.0, 0.0)]).is_err());
        // Must start at the origin.
        assert!(PiecewiseLinearQuality::new(vec![(10.0, 0.0), (20.0, 1.0)]).is_err());
        assert!(PiecewiseLinearQuality::new(vec![(0.0, 0.1), (20.0, 1.0)]).is_err());
        // Decreasing volume.
        assert!(PiecewiseLinearQuality::new(vec![(0.0, 0.0), (30.0, 0.5), (20.0, 0.9)]).is_err());
        // Decreasing quality.
        assert!(PiecewiseLinearQuality::new(vec![(0.0, 0.0), (30.0, 0.5), (60.0, 0.4)]).is_err());
        // Convex kink (slope increases).
        assert!(PiecewiseLinearQuality::new(vec![(0.0, 0.0), (50.0, 0.1), (100.0, 0.9)]).is_err());
    }

    #[test]
    fn validated_tables_satisfy_the_trait_contract() {
        let q = simple();
        assert!(is_non_decreasing_on(&q, 1200.0, 200));
        assert!(is_concave_on(&q, 1200.0, 48, 1e-9));
    }

    #[test]
    fn exp_approximation_tracks_the_analytic_curve() {
        let tab = PiecewiseLinearQuality::approximating_exp(0.003, 1000.0, 50);
        let exact = ExpQuality::PAPER_DEFAULT;
        for i in 0..=100 {
            let x = 10.0 * i as f64;
            let err = (tab.value(x) - exact.value(x)).abs();
            assert!(err < 0.002, "at {x}: err {err}");
        }
    }
}
