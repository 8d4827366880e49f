//! The diurnal "millions of users" workload builder.
//!
//! Front-end services see sinusoidal load swings: the same machine is
//! underloaded at night and overloaded at the daily peak. This builder
//! bundles [`DiurnalRate`] thinning (see [`modulated`](crate::modulated))
//! with the paper's §V-B demand/deadline model behind one seeded,
//! deterministic generator — the diurnal twin of [`WebSearchWorkload`]
//! — and adds [`DiurnalWorkload::generate_exact`], the large-trace entry
//! point used by the cluster benchmarks where the scale knob is the job
//! *count* (e.g. 1M requests spread over several load cycles) rather
//! than the simulated duration.
//!
//! [`WebSearchWorkload`]: crate::websearch::WebSearchWorkload

use qes_core::error::QesError;
use qes_core::job::{Job, JobSet};
use qes_core::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::modulated::{sample_modulated, DiurnalRate, RateProfile};
use crate::pareto::BoundedPareto;

/// Deterministic generator for diurnally-modulated web-search streams.
///
/// Arrivals follow a non-homogeneous Poisson process with rate
/// `base + amp·sin(2π t / period)` (floored at 0, sampled by
/// Lewis–Shedler thinning); demands, deadlines and partial-evaluation
/// support follow §V-B like [`crate::websearch::WebSearchWorkload`].
#[derive(Clone, Debug)]
pub struct DiurnalWorkload {
    profile: DiurnalRate,
    demand: BoundedPareto,
    deadline: SimDuration,
    partial_fraction: f64,
    horizon: SimTime,
}

impl DiurnalWorkload {
    /// A diurnal stream swinging `base ± amp` requests/second with the
    /// given cycle length, paper-default demands, 150 ms deadlines, 100 %
    /// partial evaluation, 1800 s horizon.
    pub fn new(base: f64, amp: f64, period_secs: f64) -> Self {
        DiurnalWorkload {
            profile: DiurnalRate {
                base,
                amp,
                period_secs,
            },
            demand: BoundedPareto::paper_default(),
            deadline: SimDuration::from_millis(150),
            partial_fraction: 1.0,
            horizon: SimTime::from_secs(1800),
        }
    }

    /// The "millions of users" profile, which the repo benchmark's
    /// `cluster_protected` workload runs: mean rate `base` with a ±50 %
    /// swing every 15 minutes, so a 1M-job trace (minutes to an hour of
    /// simulated time at cluster rates) spans several under-/over-loaded
    /// cycles.
    pub fn millions_of_users(base: f64) -> Self {
        DiurnalWorkload::new(base, 0.5 * base, 900.0)
    }

    /// Override the simulated horizon (default 1800 s).
    pub fn with_horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = horizon;
        self
    }

    /// Override the relative deadline (default 150 ms).
    pub fn with_deadline(mut self, d: SimDuration) -> Self {
        self.deadline = d;
        self
    }

    /// Override the demand distribution.
    pub fn with_demand(mut self, d: BoundedPareto) -> Self {
        self.demand = d;
        self
    }

    /// Fraction of jobs supporting partial evaluation (§V-D); clamped to
    /// `[0, 1]`.
    pub fn with_partial_fraction(mut self, f: f64) -> Self {
        self.partial_fraction = f.clamp(0.0, 1.0);
        self
    }

    /// The rate profile.
    pub fn profile(&self) -> &DiurnalRate {
        &self.profile
    }

    /// The configured horizon.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Generate the stream over `[0, horizon)` deterministically from
    /// `seed`. Deadlines are agreeable by construction (constant relative
    /// deadline), so the returned [`JobSet`] always validates.
    pub fn generate(&self, seed: u64) -> Result<JobSet, QesError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let arrivals = sample_modulated(&self.profile, &mut rng, self.horizon);
        let mut jobs = Vec::with_capacity(arrivals.len());
        for (i, &at) in arrivals.iter().enumerate() {
            let demand = self.demand.sample(&mut rng);
            let partial = rng.gen::<f64>() < self.partial_fraction;
            jobs.push(Job::with_partial(
                i as u32,
                at,
                at + self.deadline,
                demand,
                partial,
            )?);
        }
        JobSet::new(jobs)
    }

    /// Generate exactly `n` jobs, ignoring the configured horizon: the
    /// thinned process simply runs for as many cycles as it takes to emit
    /// `n` arrivals (the profile is periodic, so the rate is defined for
    /// all `t`). Demand and partial draws are consumed per *kept*
    /// arrival, mirroring [`DiurnalWorkload::generate`].
    pub fn generate_exact(&self, n: usize, seed: u64) -> Result<JobSet, QesError> {
        let peak = self.profile.peak();
        assert!(peak > 0.0, "a zero-rate profile never emits {n} arrivals");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut jobs = Vec::with_capacity(n);
        let mut t = 0.0f64;
        while jobs.len() < n {
            // Homogeneous candidate at the peak rate…
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / peak;
            let at = SimTime::from_secs_f64(t);
            // …kept with probability rate(t)/peak (Lewis–Shedler).
            let keep: f64 = rng.gen();
            if keep * peak < self.profile.rate_at(at) {
                let demand = self.demand.sample(&mut rng);
                let partial = rng.gen::<f64>() < self.partial_fraction;
                jobs.push(Job::with_partial(
                    jobs.len() as u32,
                    at,
                    at + self.deadline,
                    demand,
                    partial,
                )?);
            }
        }
        JobSet::new(jobs)
    }

    /// Expected offered load in processing units per second at the *mean*
    /// rate (the peak is `(base+amp)/base` times this).
    pub fn offered_units_per_sec(&self) -> f64 {
        self.profile.base * self.demand.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            assert_eq!(j.window(), SimDuration::from_millis(150));
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
        // 200 req/s mean, 900 s period: 5000 jobs ≈ 25 s... scale down the
        // period instead so the test stays fast but still wraps cycles.
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
    fn matches_modulated_sampler_prefix() {
        // generate() must consume the RNG exactly like sample_modulated +
        // per-job draws, so the arrival instants coincide.
        let w = DiurnalWorkload::new(120.0, 60.0, 30.0).with_horizon(SimTime::from_secs(10));
        let jobs = w.generate(11).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let arrivals = sample_modulated(w.profile(), &mut rng, SimTime::from_secs(10));
        assert_eq!(jobs.len(), arrivals.len());
        for (j, &at) in jobs.iter().zip(arrivals.iter()) {
            assert_eq!(j.release, at);
        }
    }
}
