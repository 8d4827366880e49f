//! Cross-crate optimality checks for the single-core algorithms (§III).
//!
//! QE-OPT's claim (paper Theorem 2) is lexicographic optimality: maximum
//! total quality first, then minimum energy among quality-maximal
//! schedules. These tests pit it against brute-force volume allocations
//! and against plausible heuristic schedules on small instances.

use qes::core::{
    ExpQuality, Job, JobSet, PolynomialPower, PowerModel, QualityFunction, Schedule, SimDuration,
    SimTime,
};
use qes::singlecore::{energy_opt, qe_opt, quality_opt};

const MODEL: PolynomialPower = PolynomialPower::PAPER_SIM;
const Q: ExpQuality = ExpQuality::PAPER_DEFAULT;

fn ms(x: u64) -> SimTime {
    SimTime::from_millis(x)
}

fn total_quality(jobs: &JobSet, volumes: impl Fn(&Job) -> f64) -> f64 {
    jobs.iter().map(|j| Q.job_quality(j, volumes(j))).sum()
}

/// Brute-force the best total quality achievable on a single fixed-speed
/// core by searching over discretized volume allocations that satisfy
/// every prefix-capacity constraint (all jobs share a release here, so
/// EDF feasibility = prefix feasibility).
fn brute_force_quality(jobs: &[Job], speed: f64, steps: usize) -> f64 {
    // Jobs sorted by deadline; allocate volumes v_i ≤ w_i with
    // Σ_{i≤k} v_i ≤ cap(d_k) for all k.
    let mut sorted = jobs.to_vec();
    sorted.sort_by_key(|j| j.deadline);
    let caps: Vec<f64> = sorted
        .iter()
        .map(|j| j.deadline.saturating_since(sorted[0].release).as_secs_f64() * speed * 1000.0)
        .collect();
    fn rec(i: usize, used: f64, sorted: &[Job], caps: &[f64], steps: usize, acc: f64) -> f64 {
        if i == sorted.len() {
            return acc;
        }
        let w = sorted[i].demand;
        let room = (caps[i] - used).max(0.0).min(w);
        let mut best = f64::NEG_INFINITY;
        for s in 0..=steps {
            let v = room * s as f64 / steps as f64;
            let q = Q.job_quality(&sorted[i], v);
            best = best.max(rec(i + 1, used + v, sorted, caps, steps, acc + q));
        }
        best
    }
    rec(0, 0.0, &sorted, &caps, steps, 0.0)
}

#[test]
fn quality_opt_matches_brute_force_on_small_overloaded_instances() {
    let cases: Vec<Vec<Job>> = vec![
        vec![
            Job::new(0, ms(0), ms(100), 150.0).unwrap(),
            Job::new(1, ms(0), ms(100), 150.0).unwrap(),
        ],
        vec![
            Job::new(0, ms(0), ms(80), 120.0).unwrap(),
            Job::new(1, ms(0), ms(120), 60.0).unwrap(),
            Job::new(2, ms(0), ms(160), 200.0).unwrap(),
        ],
        vec![
            Job::new(0, ms(0), ms(60), 20.0).unwrap(),
            Job::new(1, ms(0), ms(90), 90.0).unwrap(),
            Job::new(2, ms(0), ms(90), 90.0).unwrap(),
        ],
    ];
    for jobs in cases {
        let speed = 1.0;
        let set = JobSet::new(jobs.clone()).unwrap();
        let r = quality_opt::quality_opt(&set, speed);
        let q_opt = total_quality(&set, |j| r.volume(j.id));
        let q_bf = brute_force_quality(&jobs, speed, 60);
        // The brute force is discretized, so OPT must be ≥ it − grid slop.
        assert!(
            q_opt + 1e-6 >= q_bf - 0.02,
            "quality_opt {q_opt} < brute force {q_bf} for {jobs:?}"
        );
    }
}

#[test]
fn equal_split_is_optimal_for_identical_overloaded_jobs() {
    // Analytic check of the concavity argument: for n identical jobs and
    // capacity C < n·w, the optimum of Σ f(v_i) under Σ v_i = C is the
    // equal split (strict concavity ⇒ unique).
    let jobs = JobSet::new(vec![
        Job::new(0, ms(0), ms(100), 200.0).unwrap(),
        Job::new(1, ms(0), ms(100), 200.0).unwrap(),
        Job::new(2, ms(0), ms(100), 200.0).unwrap(),
    ])
    .unwrap();
    let r = quality_opt::quality_opt(&jobs, 1.0); // capacity 100
    for j in jobs.iter() {
        assert!((r.volume(j.id) - 100.0 / 3.0).abs() < 0.5, "{:?}", j.id);
    }
}

#[test]
fn qe_opt_energy_no_worse_than_plausible_heuristics() {
    // Underload: everything can be satisfied. QE-OPT must use no more
    // energy than (a) run-at-max-speed-then-idle and (b) any constant
    // uniform speed that is feasible.
    let jobs = JobSet::new(vec![
        Job::new(0, ms(0), ms(150), 120.0).unwrap(),
        Job::new(1, ms(40), ms(190), 200.0).unwrap(),
        Job::new(2, ms(100), ms(250), 90.0).unwrap(),
    ])
    .unwrap();
    let budget = 20.0; // s* = 2 GHz
    let r = qe_opt::qe_opt(&jobs, &MODEL, budget);
    // Sanity: everything satisfied.
    for j in jobs.iter() {
        assert!((r.volume(j.id) - j.demand).abs() < 1e-6, "{:?}", j.id);
    }
    let e_opt = r.schedule.energy(&MODEL);

    // (a) full speed: each unit of work at 2 GHz.
    let total: f64 = jobs.total_demand();
    let e_full = MODEL.dynamic_power(2.0) * total / 2000.0;
    assert!(e_opt <= e_full + 1e-9, "{e_opt} > full-speed {e_full}");

    // (b) constant feasible speeds (grid): check a few.
    for &s in &[1.0, 1.2, 1.5, 1.8, 2.0] {
        let q = quality_opt::quality_opt(&jobs, s);
        let all_sat = jobs
            .iter()
            .all(|j| (q.volume(j.id) - j.demand).abs() < 1e-6);
        if all_sat {
            let e_const = q.schedule.energy(&MODEL);
            assert!(
                e_opt <= e_const + 1e-6,
                "QE-OPT {e_opt} beaten by constant {s} GHz: {e_const}"
            );
        }
    }
}

#[test]
fn qe_opt_quality_never_below_fixed_speed_quality() {
    // QE-OPT step 1 runs at s*; any slower fixed speed yields ≤ quality.
    let jobs = JobSet::new(vec![
        Job::new(0, ms(0), ms(100), 250.0).unwrap(),
        Job::new(1, ms(20), ms(120), 250.0).unwrap(),
        Job::new(2, ms(40), ms(140), 250.0).unwrap(),
    ])
    .unwrap();
    let budget = 20.0;
    let r = qe_opt::qe_opt(&jobs, &MODEL, budget);
    let q_qe = total_quality(&jobs, |j| r.volume(j.id));
    for &s in &[0.5, 1.0, 1.5, 2.0] {
        let q = quality_opt::quality_opt(&jobs, s);
        let q_fixed = total_quality(&jobs, |j| q.volume(j.id));
        assert!(
            q_qe + 1e-9 >= q_fixed,
            "QE-OPT quality {q_qe} < fixed {s} GHz quality {q_fixed}"
        );
    }
}

#[test]
fn energy_opt_beats_eager_and_lazy_alternatives() {
    // YDS vs two hand-rolled feasible schedules on a two-burst instance.
    let jobs = JobSet::new(vec![
        Job::new(0, ms(0), ms(100), 150.0).unwrap(),
        Job::new(1, ms(200), ms(400), 100.0).unwrap(),
    ])
    .unwrap();
    let r = energy_opt::energy_opt(&jobs);
    let e_yds = r.schedule.energy(&MODEL);
    // Eager: run each job at 2 GHz as soon as released.
    let e_eager = MODEL.dynamic_power(2.0) * (150.0 + 100.0) / 2000.0;
    // Lazy uniform: run both at the max of their window-average speeds.
    let s_uniform: f64 = 1.5f64.max(0.5);
    let e_uniform = MODEL.dynamic_power(s_uniform) * (150.0 + 100.0) / (s_uniform * 1000.0);
    assert!(e_yds <= e_eager + 1e-9);
    assert!(e_yds <= e_uniform + 1e-9);
    // And YDS here is exactly per-burst average speeds: 1.5 and 0.5 GHz.
    let expect = MODEL.dynamic_power(1.5) * 0.1 + MODEL.dynamic_power(0.5) * 0.2;
    assert!((e_yds - expect).abs() < 1e-6, "{e_yds} vs {expect}");
}

#[test]
fn lexicographic_metric_ranks_qe_opt_first_among_contenders() {
    let jobs = JobSet::new(vec![
        Job::new(0, ms(0), ms(120), 180.0).unwrap(),
        Job::new(1, ms(30), ms(150), 220.0).unwrap(),
        Job::new(2, ms(60), ms(180), 140.0).unwrap(),
    ])
    .unwrap();
    let budget = 15.0;
    let s_max = MODEL.speed_for_dynamic_power(budget);
    let qe = qe_opt::qe_opt(&jobs, &MODEL, budget);
    let score_qe = qes::core::QualityEnergy::new(
        total_quality(&jobs, |j| qe.volume(j.id)),
        qe.schedule.energy(&MODEL),
    );
    for &s in &[0.4 * s_max, 0.6 * s_max, 0.8 * s_max, s_max] {
        let alt = quality_opt::quality_opt(&jobs, s);
        let score_alt = qes::core::QualityEnergy::new(
            total_quality(&jobs, |j| alt.volume(j.id)),
            alt.schedule.energy(&MODEL),
        );
        assert!(
            score_qe.dominates_or_ties(&score_alt),
            "QE-OPT {score_qe} loses to fixed {s:.2} GHz {score_alt}"
        );
    }
}

/// A deterministic agreeable set of `n` jobs with staggered releases:
/// job `i` arrives at `7i` ms with a 150 ms window and a demand in
/// [130, 1000) units, so consecutive windows overlap about 20 deep.
fn staggered(n: usize) -> JobSet {
    let jobs = (0..n)
        .map(|i| {
            let release = ms(7 * i as u64);
            let demand = 130.0 + ((97 * i) % 870) as f64;
            Job::new(
                i as u32,
                release,
                release + SimDuration::from_millis(150),
                demand,
            )
            .unwrap()
        })
        .collect();
    JobSet::new(jobs).unwrap()
}

#[test]
fn solvers_stay_feasible_on_large_staggered_sets() {
    // The property tests cap at 8–10 jobs; this drives the offline
    // solvers over long chains of overlapping windows, with the
    // tolerances `tests/property_tests.rs` uses.
    for n in [16, 64, 128] {
        let jobs = staggered(n);
        let r = energy_opt::energy_opt(&jobs);
        Schedule::single(r.schedule)
            .validate_with_tolerance(&jobs, &MODEL, f64::INFINITY, 0.25, 1e-6)
            .unwrap_or_else(|e| panic!("energy_opt n={n}: {e}"));
        for speed in [0.5, 1.0, 2.0, 4.0] {
            let r = quality_opt::quality_opt(&jobs, speed);
            Schedule::single(r.schedule)
                .validate_with_tolerance(&jobs, &MODEL, f64::INFINITY, 0.25, 1e-6)
                .unwrap_or_else(|e| panic!("quality_opt n={n} speed={speed}: {e}"));
        }
        for budget in [5.0, 20.0, 60.0] {
            let r = qe_opt::qe_opt(&jobs, &MODEL, budget);
            Schedule::single(r.schedule)
                .validate_with_tolerance(&jobs, &MODEL, budget, 0.25, 1e-3)
                .unwrap_or_else(|e| panic!("qe_opt n={n} budget={budget}: {e}"));
        }
    }
}
