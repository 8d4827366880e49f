//! Power models (paper §II-B, §V-B, §V-G).
//!
//! Per-core power is `P = P_dynamic + P_static` with `P_dynamic = a·s^β`
//! (convex in the speed `s`, β > 1) and constant `P_static = b`. The
//! simulation sections of the paper compare algorithms on dynamic power
//! alone (`b` is a common offset); the real-system validation (§V-G) uses
//! the fitted model `P = 2.6075·s^1.791 + 9.2562` over the Opteron 2380's
//! four discrete speeds.

use crate::error::QesError;

/// A speed→power model for one core.
pub trait PowerModel: Send + Sync {
    /// Dynamic power (W) at speed `s` (GHz).
    fn dynamic_power(&self, s: f64) -> f64;

    /// Static power (W), a speed-independent constant.
    fn static_power(&self) -> f64;

    /// Total power at speed `s`.
    fn power(&self, s: f64) -> f64 {
        self.dynamic_power(s) + self.static_power()
    }

    /// Largest speed whose *dynamic* power does not exceed `p` (W).
    ///
    /// This is the inverse the schedulers use to convert a power budget
    /// into a speed cap.
    fn speed_for_dynamic_power(&self, p: f64) -> f64;

    /// Energy (J) of running at speed `s` for `secs` seconds, dynamic
    /// component only (the paper's comparison metric, §II-B).
    fn dynamic_energy(&self, s: f64, secs: f64) -> f64 {
        self.dynamic_power(s) * secs
    }
}

/// The polynomial model `P_dynamic = a·s^β`, `P_static = b`.
#[derive(Clone, Copy, Debug)]
pub struct PolynomialPower {
    /// Scaling factor `a > 0`.
    pub a: f64,
    /// Power exponent `β > 1` (convexity).
    pub beta: f64,
    /// Static power `b ≥ 0`.
    pub b: f64,
}

impl PolynomialPower {
    /// The paper's simulation model: `P = 5·s²`, no static power (§V-B).
    pub const PAPER_SIM: PolynomialPower = PolynomialPower {
        a: 5.0,
        beta: 2.0,
        b: 0.0,
    };

    /// The paper's fitted real-system model (§V-G):
    /// `P = 2.6075·s^1.791 + 9.2562`.
    pub const PAPER_REAL: PolynomialPower = PolynomialPower {
        a: 2.6075,
        beta: 1.791,
        b: 9.2562,
    };

    /// Construct with validation.
    pub fn new(a: f64, beta: f64, b: f64) -> Result<Self, QesError> {
        if !a.is_finite() || a <= 0.0 {
            return Err(QesError::BadParameter {
                what: "power scaling factor a",
                value: a,
            });
        }
        if !beta.is_finite() || beta <= 1.0 {
            return Err(QesError::BadParameter {
                what: "power exponent beta",
                value: beta,
            });
        }
        if !b.is_finite() || b < 0.0 {
            return Err(QesError::BadParameter {
                what: "static power b",
                value: b,
            });
        }
        Ok(PolynomialPower { a, beta, b })
    }
}

impl PowerModel for PolynomialPower {
    #[inline]
    fn dynamic_power(&self, s: f64) -> f64 {
        let s = s.max(0.0);
        // `powf` dominates the simulation engine's slice integration for
        // the common cubic/square exponents; special-case them (exact
        // float compares are fine — the constants come from the paper's
        // models, not arithmetic).
        if self.beta == 2.0 {
            self.a * s * s
        } else if self.beta == 3.0 {
            self.a * s * s * s
        } else {
            self.a * s.powf(self.beta)
        }
    }

    #[inline]
    fn static_power(&self) -> f64 {
        self.b
    }

    #[inline]
    fn speed_for_dynamic_power(&self, p: f64) -> f64 {
        if p <= 0.0 {
            return 0.0;
        }
        if self.beta == 2.0 {
            (p / self.a).sqrt()
        } else {
            (p / self.a).powf(1.0 / self.beta)
        }
    }
}

/// A discrete speed set: the core may only run at one of a fixed list of
/// speeds, each with an associated total power draw (§V-F/§V-G).
///
/// Power at a discrete speed comes from an explicit table (measured values,
/// as with the Opteron) rather than from a formula, but the type can also
/// be derived from any [`PowerModel`].
#[derive(Clone, Debug)]
pub struct DiscreteSpeedSet {
    /// `(speed GHz, total power W)` pairs sorted ascending by speed.
    levels: Vec<(f64, f64)>,
    /// Static power assumed included in each table entry.
    static_power: f64,
}

impl DiscreteSpeedSet {
    /// The AMD Opteron 2380 table from §V-G: speeds {0.8, 1.3, 1.8, 2.5}
    /// GHz drawing {11.06, 13.275, 16.85, 22.69} W total per core.
    pub fn opteron_2380() -> Self {
        DiscreteSpeedSet::from_table(
            vec![(0.8, 11.06), (1.3, 13.275), (1.8, 16.85), (2.5, 22.69)],
            0.0,
        )
        .expect("static table is valid")
    }

    /// Build from explicit `(speed, power)` pairs. `static_power` is the
    /// portion of each entry that is speed-independent (subtracted when
    /// reporting dynamic power).
    pub fn from_table(mut levels: Vec<(f64, f64)>, static_power: f64) -> Result<Self, QesError> {
        if levels.is_empty() {
            return Err(QesError::BadParameter {
                what: "discrete speed count",
                value: 0.0,
            });
        }
        for &(s, p) in &levels {
            if !s.is_finite() || s <= 0.0 {
                return Err(QesError::BadParameter {
                    what: "discrete speed",
                    value: s,
                });
            }
            if !p.is_finite() || p < static_power {
                return Err(QesError::BadParameter {
                    what: "discrete power",
                    value: p,
                });
            }
        }
        levels.sort_by(|x, y| x.0.total_cmp(&y.0));
        levels.dedup_by(|a, b| (a.0 - b.0).abs() < 1e-12);
        Ok(DiscreteSpeedSet {
            levels,
            static_power,
        })
    }

    /// Derive from a continuous model by sampling the given speeds.
    pub fn from_model(model: &dyn PowerModel, speeds: &[f64]) -> Result<Self, QesError> {
        let levels = speeds.iter().map(|&s| (s, model.power(s))).collect();
        DiscreteSpeedSet::from_table(levels, model.static_power())
    }

    /// Ascending `(speed, power)` levels.
    #[inline]
    pub fn levels(&self) -> &[(f64, f64)] {
        &self.levels
    }

    /// Ascending list of the available speeds.
    pub fn speeds(&self) -> Vec<f64> {
        self.levels.iter().map(|&(s, _)| s).collect()
    }

    /// Fastest available speed.
    #[inline]
    pub fn max_speed(&self) -> f64 {
        self.levels.last().unwrap().0
    }

    /// Smallest discrete speed `≥ s`, or `None` if `s` exceeds the fastest
    /// level. This is the §V-F rectification's first choice.
    pub fn round_up(&self, s: f64) -> Option<f64> {
        self.levels
            .iter()
            .map(|&(sp, _)| sp)
            .find(|&sp| sp + 1e-12 >= s)
    }

    /// Largest discrete speed `≤ s`, or `None` if `s` is below the slowest
    /// level. The §V-F fallback when the budget cannot fund the round-up.
    pub fn round_down(&self, s: f64) -> Option<f64> {
        self.levels
            .iter()
            .rev()
            .map(|&(sp, _)| sp)
            .find(|&sp| sp <= s + 1e-12)
    }

    /// Total power at a discrete speed (nearest table entry; exact for
    /// speeds in the table, which is the only use in the schedulers).
    pub fn power_at(&self, s: f64) -> f64 {
        if s <= 0.0 {
            return 0.0;
        }
        self.levels
            .iter()
            .min_by(|x, y| (x.0 - s).abs().total_cmp(&(y.0 - s).abs()))
            .map(|&(_, p)| p)
            .unwrap_or(0.0)
    }

    /// Fastest speed whose *dynamic* power fits within `p` watts, or `None`
    /// if even the slowest level exceeds the budget.
    pub fn speed_for_dynamic_power(&self, p: f64) -> Option<f64> {
        self.levels
            .iter()
            .rev()
            .find(|&&(_, pw)| pw - self.static_power <= p + 1e-9)
            .map(|&(s, _)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sim_model_numbers() {
        let m = PolynomialPower::PAPER_SIM;
        // §V-B: H=320 W over 16 cores → 20 W/core → s = sqrt(20/5) = 2 GHz.
        assert!((m.dynamic_power(2.0) - 20.0).abs() < 1e-12);
        assert!((m.speed_for_dynamic_power(20.0) - 2.0).abs() < 1e-12);
        assert_eq!(m.static_power(), 0.0);
    }

    #[test]
    fn inverse_is_right_inverse() {
        let m = PolynomialPower::PAPER_REAL;
        for &p in &[1.0, 5.0, 11.0, 20.0, 50.0] {
            let s = m.speed_for_dynamic_power(p);
            assert!((m.dynamic_power(s) - p).abs() < 1e-9, "p={p}");
        }
        assert_eq!(m.speed_for_dynamic_power(0.0), 0.0);
        assert_eq!(m.speed_for_dynamic_power(-3.0), 0.0);
    }

    #[test]
    fn power_is_convex_in_speed() {
        let m = PolynomialPower::PAPER_SIM;
        // Midpoint convexity on a few chords.
        for &(a, b) in &[(0.0, 4.0), (1.0, 3.0), (0.5, 2.5)] {
            let mid = 0.5 * (a + b);
            assert!(
                m.dynamic_power(mid) <= 0.5 * (m.dynamic_power(a) + m.dynamic_power(b)) + 1e-12
            );
        }
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(PolynomialPower::new(0.0, 2.0, 0.0).is_err());
        assert!(PolynomialPower::new(5.0, 1.0, 0.0).is_err());
        assert!(PolynomialPower::new(5.0, 2.0, -1.0).is_err());
        assert!(PolynomialPower::new(5.0, 2.0, 9.0).is_ok());
    }

    #[test]
    fn opteron_table_matches_paper() {
        let d = DiscreteSpeedSet::opteron_2380();
        assert_eq!(d.levels().len(), 4);
        assert!((d.levels()[0].0 - 0.8).abs() < 1e-12);
        assert!((d.max_speed() - 2.5).abs() < 1e-12);
        assert!((d.power_at(1.8) - 16.85).abs() < 1e-12);
    }

    #[test]
    fn rounding_picks_neighbouring_levels() {
        let d = DiscreteSpeedSet::opteron_2380();
        assert_eq!(d.round_up(1.0), Some(1.3));
        assert_eq!(d.round_up(1.3), Some(1.3));
        assert_eq!(d.round_up(2.6), None);
        assert_eq!(d.round_down(1.0), Some(0.8));
        assert_eq!(d.round_down(0.5), None);
        assert_eq!(d.round_down(2.5), Some(2.5));
    }

    #[test]
    fn discrete_speed_for_power() {
        let d = DiscreteSpeedSet::opteron_2380();
        assert_eq!(d.speed_for_dynamic_power(17.0), Some(1.8));
        assert_eq!(d.speed_for_dynamic_power(22.69), Some(2.5));
        assert_eq!(d.speed_for_dynamic_power(5.0), None);
    }

    #[test]
    fn from_model_sampling() {
        let m = PolynomialPower::PAPER_SIM;
        let d = DiscreteSpeedSet::from_model(&m, &[1.0, 2.0, 3.0]).unwrap();
        assert!((d.power_at(2.0) - 20.0).abs() < 1e-12);
        assert!((d.power_at(3.0) - 45.0).abs() < 1e-12);
    }

    #[test]
    fn empty_table_rejected() {
        assert!(DiscreteSpeedSet::from_table(vec![], 0.0).is_err());
    }
}
