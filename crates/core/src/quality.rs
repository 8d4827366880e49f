//! Concave quality functions (paper §II-A, Eq. 1, Fig. 1).
//!
//! A quality function `f` maps the processed volume of a job (in processing
//! units) to a quality value. The paper assumes `f` is monotonically
//! increasing and strictly concave — the diminishing-returns shape typical
//! of web search, video-on-demand and similar best-effort services.
//!
//! The paper's evaluation uses the exponential family (Eq. 1):
//!
//! ```text
//! q(x) = (1 − e^{−c·x}) / (1 − e^{−1000·c})
//! ```
//!
//! normalized so that `q(1000) = 1` where 1000 units is the maximum service
//! demand of the workload (§V-B). [`ExpQuality`] implements it, and every
//! scheduler reads it through [`QualityFunction`].

use crate::job::Job;

/// A monotonically increasing quality function over processed volume.
///
/// Implementations must be non-decreasing on `x ≥ 0` with `value(0) = 0`.
/// Strict concavity is required by the optimality analysis of QE-OPT; the
/// trait cannot enforce it, so [`ExpQuality`]'s unit tests check it
/// numerically.
pub trait QualityFunction: Send + Sync {
    /// Quality for `x` processed units (clamped to `x ≥ 0`).
    fn value(&self, x: f64) -> f64;

    /// Quality a job earns given its processed volume, honouring the
    /// partial-evaluation flag: non-partial jobs earn quality only when
    /// fully processed (§V-D). "Fully" allows a 10⁻³-unit slack — one
    /// microsecond of 1 GHz work — matching the simulator's µs time
    /// quantization.
    fn job_quality(&self, job: &Job, processed: f64) -> f64 {
        let p = processed.clamp(0.0, job.demand);
        if job.partial {
            self.value(p)
        } else if processed + 1e-3 >= job.demand {
            self.value(job.demand)
        } else {
            0.0
        }
    }

    /// The maximum quality this job could earn (full execution).
    fn max_job_quality(&self, job: &Job) -> f64 {
        self.value(job.demand)
    }
}

/// The paper's exponential quality family (Eq. 1).
#[derive(Clone, Copy, Debug)]
pub struct ExpQuality {
    /// Concavity multiplier `c` (paper default 0.003; larger = more
    /// concave, see Fig. 7a).
    c: f64,
    /// Normalization point: `value(x_ref) = 1`. Paper uses 1000 (the
    /// maximum service demand).
    x_ref: f64,
    /// The normalizer `1 − e^(−c·x_ref)`, computed once.
    norm: f64,
}

impl ExpQuality {
    /// The paper's default: `c = 0.003`, normalized at 1000 units. The
    /// normalizer is `1 − e^(−3)` in the bits [`Self::new`] computes for
    /// `c = 0.003`, written out because `exp` is not `const`.
    pub const PAPER_DEFAULT: ExpQuality = ExpQuality {
        c: 0.003,
        x_ref: 1000.0,
        norm: f64::from_bits(0x3fee_6824_f333_14f5),
    };

    /// Construct with the paper's normalization point (1000 units).
    pub fn new(c: f64) -> Self {
        assert!(c > 0.0 && c.is_finite(), "c must be positive and finite");
        Self::normalized_at(c, 1000.0)
    }

    /// Construct with concavity `c`, normalized so that
    /// `value(x_ref) = 1`. Unlike [`Self::new`] it checks neither.
    fn normalized_at(c: f64, x_ref: f64) -> Self {
        ExpQuality {
            c,
            x_ref,
            norm: 1.0 - (-c * x_ref).exp(),
        }
    }
}

impl QualityFunction for ExpQuality {
    #[inline]
    fn value(&self, x: f64) -> f64 {
        debug_assert_eq!(
            self.norm.to_bits(),
            Self::normalized_at(self.c, self.x_ref).norm.to_bits(),
            "ExpQuality's stored normalizer is stale"
        );
        let x = x.max(0.0);
        (1.0 - (-self.c * x).exp()) / self.norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn job(demand: f64, partial: bool) -> Job {
        Job::with_partial(0, SimTime::ZERO, SimTime::from_millis(150), demand, partial).unwrap()
    }

    /// Numerically check concavity of `f` on `[0, hi]` by sampling midpoint
    /// chords: `f((a+b)/2) ≥ (f(a)+f(b))/2 − tol`.
    fn is_concave_on(f: &dyn QualityFunction, hi: f64, samples: usize, tol: f64) -> bool {
        let step = hi / samples as f64;
        for i in 0..samples {
            for j in (i + 1)..=samples {
                let a = i as f64 * step;
                let b = j as f64 * step;
                let mid = 0.5 * (a + b);
                if f.value(mid) + tol < 0.5 * (f.value(a) + f.value(b)) {
                    return false;
                }
            }
        }
        true
    }

    /// Numerically check that `f` is non-decreasing on `[0, hi]`.
    fn is_non_decreasing_on(f: &dyn QualityFunction, hi: f64, samples: usize) -> bool {
        let step = hi / samples as f64;
        let mut prev = f.value(0.0);
        for i in 1..=samples {
            let v = f.value(i as f64 * step);
            if v + 1e-12 < prev {
                return false;
            }
            prev = v;
        }
        true
    }

    #[test]
    fn paper_default_normalizer_is_the_computed_one() {
        let q = ExpQuality::PAPER_DEFAULT;
        let computed = ExpQuality::new(0.003);
        assert_eq!(q.norm.to_bits(), computed.norm.to_bits());
        assert_eq!(
            q.norm.to_bits(),
            (1.0 - (-0.003f64 * 1000.0).exp()).to_bits()
        );
        assert_eq!((q.c, q.x_ref), (computed.c, computed.x_ref));
    }

    #[test]
    fn exp_quality_matches_eq1() {
        let q = ExpQuality::PAPER_DEFAULT;
        assert!((q.value(0.0)).abs() < 1e-12);
        assert!((q.value(1000.0) - 1.0).abs() < 1e-12);
        // Fig. 1 shape: 500 units already yields well over half the quality.
        let half = q.value(500.0);
        assert!(half > 0.7 && half < 0.9, "got {half}");
    }

    #[test]
    fn exp_quality_monotone_and_concave() {
        for &c in &[0.0005, 0.001, 0.002, 0.003, 0.005, 0.009] {
            let q = ExpQuality::new(c);
            assert!(is_non_decreasing_on(&q, 1000.0, 200), "c={c} not monotone");
            assert!(is_concave_on(&q, 1000.0, 60, 1e-9), "c={c} not concave");
        }
    }

    #[test]
    fn larger_c_is_more_concave() {
        // Fig. 7: larger c earns more quality from the same partial volume.
        let lo = ExpQuality::new(0.0005);
        let hi = ExpQuality::new(0.009);
        for &x in &[100.0, 250.0, 500.0, 750.0] {
            assert!(hi.value(x) > lo.value(x), "at x={x}");
        }
    }

    #[test]
    fn partial_flag_gates_quality() {
        let q = ExpQuality::PAPER_DEFAULT;
        let yes = job(400.0, true);
        let no = job(400.0, false);
        // Partial job earns partial quality.
        assert!(q.job_quality(&yes, 200.0) > 0.0);
        // Non-partial earns nothing until complete…
        assert_eq!(q.job_quality(&no, 399.0), 0.0);
        // …then the full value.
        assert!((q.job_quality(&no, 400.0) - q.value(400.0)).abs() < 1e-12);
    }

    #[test]
    fn processed_volume_clamps_to_demand() {
        let q = ExpQuality::PAPER_DEFAULT;
        let j = job(300.0, true);
        assert!((q.job_quality(&j, 1e6) - q.value(300.0)).abs() < 1e-12);
        assert_eq!(q.job_quality(&j, -5.0), 0.0);
    }
}
