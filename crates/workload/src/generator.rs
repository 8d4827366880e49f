//! The request-stream generator: one arrival process × one demand
//! distribution, stamped into agreeable jobs (§V-B).

use qes_core::error::QesError;
use qes_core::job::{Job, JobSet};
use qes_core::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::arrivals::{ArrivalProcess, DiurnalRate, PoissonArrivals};
use crate::distributions::DemandDistribution;
use crate::pareto::BoundedPareto;

/// Every request's relative deadline (§V-B). One constant relative
/// deadline makes every stream agreeable by construction.
pub const DEADLINE: SimDuration = SimDuration::from_millis(150);

/// The paper's stream: Poisson arrivals, bounded-Pareto demands.
pub type WebSearchWorkload = Workload<PoissonArrivals>;

/// A diurnally modulated stream with the paper's demands.
pub type DiurnalWorkload = Workload<DiurnalRate>;

/// Deterministic generator of best-effort request streams.
///
/// Defaults: 1800 s horizon and 100 % partial-evaluation support.
#[derive(Clone, Debug)]
pub struct Workload<A, D = BoundedPareto> {
    arrivals: A,
    demand: D,
    horizon: SimTime,
    partial_fraction: f64,
}

impl<A: ArrivalProcess, D: DemandDistribution> Workload<A, D> {
    /// Any arrival process with any demand distribution.
    pub fn of(arrivals: A, demand: D) -> Self {
        Workload {
            arrivals,
            demand,
            horizon: SimTime::from_secs(1800),
            partial_fraction: 1.0,
        }
    }

    /// Override the simulated horizon (paper: 1800 s).
    pub fn with_horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = horizon;
        self
    }

    /// Fraction of jobs supporting partial evaluation (§V-D); clamped to
    /// `[0, 1]`.
    pub fn with_partial_fraction(mut self, f: f64) -> Self {
        self.partial_fraction = f.clamp(0.0, 1.0);
        self
    }

    /// Every arrival in `[0, horizon)`, deterministically from `seed`.
    /// All arrival draws come first, then each job's demand and partial
    /// draws in arrival order.
    pub fn generate(&self, seed: u64) -> Result<JobSet, QesError> {
        self.validate()?;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = 0.0;
        let arrivals: Vec<SimTime> =
            std::iter::from_fn(|| self.arrivals.next(&mut rng, &mut t, self.horizon)).collect();
        let mut jobs = Vec::with_capacity(arrivals.len());
        for at in arrivals {
            jobs.push(self.stamp(&mut rng, jobs.len(), at)?);
        }
        JobSet::new(jobs)
    }

    /// The first `n` jobs of the stream, ignoring the horizon: the scale
    /// knob is the job count, not the simulated duration. Each job's
    /// demand and partial draws follow its own arrival draws. The stream
    /// is cut short only if its clock reaches `SimTime::MAX` first.
    pub fn generate_exact(&self, n: usize, seed: u64) -> Result<JobSet, QesError> {
        self.validate()?;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = 0.0;
        let mut jobs = Vec::with_capacity(n);
        while jobs.len() < n {
            let Some(at) = self.arrivals.next(&mut rng, &mut t, SimTime::MAX) else {
                break;
            };
            jobs.push(self.stamp(&mut rng, jobs.len(), at)?);
        }
        JobSet::new(jobs)
    }

    fn validate(&self) -> Result<(), QesError> {
        self.arrivals.validate()?;
        if self.partial_fraction.is_nan() {
            return Err(QesError::BadParameter {
                what: "partial fraction",
                value: self.partial_fraction,
            });
        }
        Ok(())
    }

    /// Job `id` released at `at`: one demand draw, then one partial draw.
    fn stamp(&self, rng: &mut StdRng, id: usize, at: SimTime) -> Result<Job, QesError> {
        let demand = self.demand.sample(rng);
        let partial = rng.gen::<f64>() < self.partial_fraction;
        Job::with_partial(id as u32, at, at + DEADLINE, demand, partial)
    }
}

impl WebSearchWorkload {
    /// The paper's workload at the given arrival rate (requests/second).
    pub fn new(arrival_rate: f64) -> Self {
        Workload::of(
            PoissonArrivals(arrival_rate),
            BoundedPareto::paper_default(),
        )
    }

    /// Offered load as a fraction of a server's capacity, where the server
    /// has `m` cores able to run at `per_core_speed_ghz` under its budget
    /// (the paper's 72 % light-load / >100 % heavy-load bookkeeping).
    pub fn utilization(&self, m: usize, per_core_speed_ghz: f64) -> f64 {
        let capacity = m as f64 * per_core_speed_ghz * qes_core::UNITS_PER_GHZ_SECOND;
        self.arrivals.0 * self.demand.mean() / capacity
    }
}

impl DiurnalWorkload {
    /// A stream swinging `base ± amp` requests/second with the given cycle
    /// length (floored at 0, sampled by thinning) and the paper's demands.
    pub fn new(base: f64, amp: f64, period_secs: f64) -> Self {
        Workload::of(
            DiurnalRate {
                base,
                amp,
                period_secs,
            },
            BoundedPareto::paper_default(),
        )
    }

    /// The "millions of users" profile, which the repo benchmark's
    /// `cluster_protected` workload runs: mean rate `base` with a ±50 %
    /// swing every 15 minutes, so a 1M-job trace (minutes to an hour of
    /// simulated time at cluster rates) spans several under-/over-loaded
    /// cycles.
    pub fn millions_of_users(base: f64) -> Self {
        DiurnalWorkload::new(base, 0.5 * base, 900.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ConstantRate;
    use crate::distributions::Deterministic;

    fn is_bad_parameter(r: Result<JobSet, QesError>) -> bool {
        matches!(r, Err(QesError::BadParameter { .. }))
    }

    #[test]
    fn generates_agreeable_validated_jobset() {
        let w = WebSearchWorkload::new(100.0).with_horizon(SimTime::from_secs(5));
        let jobs = w.generate(1).unwrap();
        assert!(jobs.len() > 300 && jobs.len() < 700, "{}", jobs.len());
        for j in jobs.iter() {
            assert_eq!(j.window(), DEADLINE);
            assert!((130.0..=1000.0).contains(&j.demand));
            assert!(j.partial);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let w = WebSearchWorkload::new(50.0).with_horizon(SimTime::from_secs(3));
        let a = w.generate(9).unwrap();
        let b = w.generate(9).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x, y);
        }
        let c = w.generate(10).unwrap();
        // Different seed ⇒ (almost surely) different stream.
        assert!(a.len() != c.len() || a.iter().zip(c.iter()).any(|(x, y)| x != y));
    }

    #[test]
    fn partial_fraction_mixes() {
        let horizon = SimTime::from_secs(20);
        for (frac, lo, hi) in [(0.0, 0.0, 0.0), (0.5, 0.4, 0.6), (1.0, 1.0, 1.0)] {
            let w = WebSearchWorkload::new(100.0)
                .with_horizon(horizon)
                .with_partial_fraction(frac);
            let jobs = w.generate(4).unwrap();
            let p = jobs.iter().filter(|j| j.partial).count() as f64 / jobs.len() as f64;
            assert!((lo..=hi).contains(&p), "frac {frac}: got {p}");
        }
    }

    #[test]
    fn paper_utilization_bookkeeping() {
        // §V-B: 120 req/s ≈ 72 % of a 16-core 2 GHz server's capacity.
        let w = WebSearchWorkload::new(120.0);
        let u = w.utilization(16, 2.0);
        assert!((u - 0.72).abs() < 0.01, "utilization {u}");
        // 180 req/s > 100 %? The paper calls > 180 heavy; 180 × 192 /
        // 32 000 = 1.08.
        let heavy = WebSearchWorkload::new(180.0).utilization(16, 2.0);
        assert!(heavy > 1.0, "{heavy}");
    }

    #[test]
    fn horizon_bounds_every_release() {
        let horizon = SimTime::from_secs(2);
        let jobs = WebSearchWorkload::new(30.0)
            .with_horizon(horizon)
            .generate(2)
            .unwrap();
        assert!(jobs.iter().all(|j| j.release < horizon));
        assert!(jobs.last_deadline().unwrap() <= horizon + DEADLINE);
    }

    #[test]
    fn generates_agreeable_modulated_stream() {
        let w = DiurnalWorkload::new(100.0, 80.0, 40.0).with_horizon(SimTime::from_secs(40));
        let jobs = w.generate(5).unwrap();
        assert!(jobs.len() > 2000, "{}", jobs.len());
        // Rising half-cycle carries more arrivals than the falling one.
        let half = SimTime::from_secs(20);
        let first = jobs.iter().filter(|j| j.release < half).count();
        assert!(first > jobs.len() - first);
        for j in jobs.iter() {
            assert_eq!(j.window(), DEADLINE);
            assert!(j.partial);
        }
    }

    #[test]
    fn exact_count_hits_n_and_is_deterministic() {
        let w = DiurnalWorkload::millions_of_users(200.0);
        let a = w.generate_exact(5000, 3).unwrap();
        let b = w.generate_exact(5000, 3).unwrap();
        assert_eq!(a.len(), 5000);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x, y);
        }
        let c = w.generate_exact(5000, 4).unwrap();
        assert!(a.iter().zip(c.iter()).any(|(x, y)| x != y));
    }

    #[test]
    fn exact_count_spans_multiple_cycles_at_cluster_scale() {
        // A 10 s period keeps the test fast but still wraps cycles.
        let w = DiurnalWorkload::new(200.0, 100.0, 10.0);
        let jobs = w.generate_exact(5000, 7).unwrap();
        let span = jobs.last_deadline().unwrap().as_secs_f64();
        assert!(
            span > 20.0,
            "stream spans {span} s, expected several cycles"
        );
        // Thinning must modulate: per-cycle-phase arrival counts differ.
        let rising = jobs
            .iter()
            .filter(|j| (j.release.as_secs_f64() % 10.0) < 5.0)
            .count();
        let falling = jobs.len() - rising;
        assert!(
            rising as f64 > 1.2 * falling as f64,
            "{rising} vs {falling}"
        );
    }

    #[test]
    fn generate_draws_every_arrival_before_any_demand() {
        // The releases are exactly the arrival process's own sequence
        // from the same seed: no demand or partial draw interleaves.
        let horizon = SimTime::from_secs(10);
        let w = DiurnalWorkload::new(120.0, 60.0, 30.0).with_horizon(horizon);
        let jobs = w.generate(11).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut t = 0.0;
        let arrivals: Vec<SimTime> =
            std::iter::from_fn(|| w.arrivals.next(&mut rng, &mut t, horizon)).collect();
        assert_eq!(jobs.len(), arrivals.len());
        for (j, &at) in jobs.iter().zip(arrivals.iter()) {
            assert_eq!(j.release, at);
        }
    }

    #[test]
    fn constant_rate_deterministic_demand() {
        let w = Workload::of(ConstantRate(50.0), Deterministic { units: 100.0 })
            .with_horizon(SimTime::from_secs(10));
        let jobs = w.generate(1).unwrap();
        assert!(jobs.len() > 300 && jobs.len() < 700, "{}", jobs.len());
        assert!(jobs.iter().all(|j| j.demand == 100.0));
    }

    #[test]
    fn non_positive_or_nan_poisson_rate_is_rejected() {
        for rate in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let w = WebSearchWorkload::new(rate).with_horizon(SimTime::from_secs(1));
            assert!(is_bad_parameter(w.generate(1)), "rate {rate}");
            assert!(is_bad_parameter(w.generate_exact(5, 1)), "rate {rate}");
        }
    }

    #[test]
    fn non_positive_or_nan_constant_rate_is_rejected() {
        for rate in [0.0, -5.0, f64::NAN] {
            let w = Workload::of(ConstantRate(rate), BoundedPareto::paper_default());
            assert!(is_bad_parameter(w.generate(1)), "rate {rate}");
        }
    }

    #[test]
    fn nan_or_non_positive_diurnal_peak_is_rejected() {
        // A NaN base used to make every candidate fall at t = 0 and never
        // be kept, so `generate` never returned.
        for (base, amp) in [(f64::NAN, 0.0), (10.0, f64::NAN), (-20.0, 10.0), (0.0, 0.0)] {
            let w = DiurnalWorkload::new(base, amp, 10.0).with_horizon(SimTime::from_secs(1));
            assert!(is_bad_parameter(w.generate(1)), "base {base} amp {amp}");
            assert!(is_bad_parameter(w.generate_exact(5, 1)), "base {base}");
        }
    }

    #[test]
    fn zero_negative_or_nan_diurnal_period_is_rejected() {
        // A zero period made every rate NaN, floored to 0, so
        // `generate_exact` never kept a candidate.
        for period in [0.0, -10.0, f64::NAN, f64::INFINITY] {
            let w = DiurnalWorkload::new(10.0, 0.0, period);
            assert!(is_bad_parameter(w.generate_exact(5, 1)), "period {period}");
            assert!(is_bad_parameter(w.generate(1)), "period {period}");
        }
    }

    #[test]
    fn nan_partial_fraction_is_rejected() {
        let w = WebSearchWorkload::new(100.0)
            .with_horizon(SimTime::from_secs(1))
            .with_partial_fraction(f64::NAN);
        assert!(is_bad_parameter(w.generate(1)));
        assert!(is_bad_parameter(w.generate_exact(5, 1)));
    }
}
