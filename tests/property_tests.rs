//! Property-based tests (proptest) over the core invariants:
//! water-filling conservation, schedule feasibility of every single-core
//! algorithm on random agreeable job sets, quality monotonicity, and the
//! d-mean equalization property.

use proptest::prelude::*;

use qes::core::{
    ExpQuality, Job, JobSet, PolynomialPower, PowerModel, QualityFunction, Schedule, SimTime,
};
use qes::multicore::water_filling;
use qes::singlecore::online_qe::{OnlineMode, QeSolver, ReadyJob};
use qes::singlecore::{energy_opt, online_qe, qe_opt, quality_opt};

const MODEL: PolynomialPower = PolynomialPower::PAPER_SIM;

/// Strategy: a random agreeable job set. Constant relative deadlines make
/// agreeability structural, like the paper's workload.
fn arb_jobset(max_jobs: usize) -> impl Strategy<Value = JobSet> {
    let job = (0u64..400, 20u64..300, 1.0f64..800.0);
    proptest::collection::vec(job, 1..max_jobs).prop_map(|raw| {
        let window = 150;
        let jobs: Vec<Job> = raw
            .iter()
            .enumerate()
            .map(|(i, &(rel, jitter, demand))| {
                // Same relative deadline for all ⇒ agreeable.
                let release = SimTime::from_millis(rel + jitter / 37);
                Job::new(
                    i as u32,
                    release,
                    release + qes::core::SimDuration::from_millis(window),
                    demand,
                )
                .unwrap()
            })
            .collect();
        JobSet::new(jobs).expect("constant relative deadline is agreeable")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- Water-Filling ----

    #[test]
    fn wf_conserves_and_caps(requests in proptest::collection::vec(0.0f64..200.0, 0..24),
                             budget in 0.0f64..500.0) {
        let g = water_filling(&requests, budget);
        prop_assert_eq!(g.len(), requests.len());
        let total: f64 = g.iter().sum();
        let wanted: f64 = requests.iter().sum();
        prop_assert!(total <= budget + 1e-6);
        prop_assert!(total <= wanted + 1e-6);
        for (gi, ri) in g.iter().zip(&requests) {
            prop_assert!(*gi >= -1e-12);
            prop_assert!(*gi <= *ri + 1e-9, "granted {} > requested {}", gi, ri);
        }
        // If demand exceeds budget, the budget is fully used.
        if wanted >= budget {
            prop_assert!((total - budget).abs() < 1e-6);
        } else {
            prop_assert!((total - wanted).abs() < 1e-6);
        }
    }

    #[test]
    fn wf_unsatisfied_cores_share_one_level(
        requests in proptest::collection::vec(0.1f64..200.0, 2..16),
        budget in 1.0f64..300.0,
    ) {
        let g = water_filling(&requests, budget);
        // Cores not granted their full request must share a common level.
        let levels: Vec<f64> = g
            .iter()
            .zip(&requests)
            .filter(|(gi, ri)| **gi + 1e-9 < **ri)
            .map(|(gi, _)| *gi)
            .collect();
        for w in levels.windows(2) {
            prop_assert!((w[0] - w[1]).abs() < 1e-6, "levels differ: {:?}", levels);
        }
    }

    // ---- Single-core algorithms on random job sets ----

    #[test]
    fn energy_opt_satisfies_everything_feasibly(jobs in arb_jobset(10)) {
        let r = energy_opt::energy_opt(&jobs);
        let vols = r.schedule.volumes();
        for j in jobs.iter() {
            let v = vols.get(&j.id).copied().unwrap_or(0.0);
            prop_assert!((v - j.demand).abs() < 0.2, "{:?}: {} vs {}", j.id, v, j.demand);
        }
        Schedule::single(r.schedule.clone())
            .validate_with_tolerance(&jobs, &MODEL, f64::INFINITY, 0.25, 1e-6)
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        // Critical speeds non-increasing.
        for w in r.round_speeds.windows(2) {
            prop_assert!(w[0] + 1e-9 >= w[1]);
        }
    }

    #[test]
    fn quality_opt_is_feasible_and_bounded(jobs in arb_jobset(10), speed in 0.2f64..3.0) {
        let r = quality_opt::quality_opt(&jobs, speed);
        for j in jobs.iter() {
            let v = r.volume(j.id);
            prop_assert!(v >= -1e-9 && v <= j.demand + 1e-6);
        }
        Schedule::single(r.schedule.clone())
            .validate_with_tolerance(&jobs, &MODEL, f64::INFINITY, 0.25, 1e-6)
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        // Realized volumes match promises.
        let realized = r.schedule.volumes();
        for (id, &v) in &r.volumes {
            let got = realized.get(id).copied().unwrap_or(0.0);
            prop_assert!((got - v).abs() < 0.25, "{:?}: {} vs {}", id, got, v);
        }
    }

    #[test]
    fn qe_opt_respects_budget_and_matches_quality_opt_quality(
        jobs in arb_jobset(8),
        budget in 2.0f64..60.0,
    ) {
        let q = ExpQuality::PAPER_DEFAULT;
        let r = qe_opt::qe_opt(&jobs, &MODEL, budget);
        Schedule::single(r.schedule.clone())
            .validate_with_tolerance(&jobs, &MODEL, budget, 0.25, 1e-3)
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        // Step 2 must not change the quality step 1 promised.
        let s_max = MODEL.speed_for_dynamic_power(budget);
        let qo = quality_opt::quality_opt(&jobs, s_max);
        let quality_qe: f64 = jobs.iter().map(|j| q.job_quality(j, r.volume(j.id))).sum();
        let quality_qo: f64 = jobs.iter().map(|j| q.job_quality(j, qo.volume(j.id))).sum();
        prop_assert!((quality_qe - quality_qo).abs() < 1e-6);
    }

    #[test]
    fn online_qe_future_schedule_is_feasible(
        jobs in arb_jobset(8),
        budget in 2.0f64..60.0,
        now_ms in 0u64..300,
        progress_frac in 0.0f64..0.9,
    ) {
        let now = SimTime::from_millis(now_ms);
        // Give the earliest-released live job some prior progress.
        let mut ready: Vec<ReadyJob> = jobs.iter().map(|&j| ReadyJob::fresh(j)).collect();
        if let Some(first) = ready.iter_mut().find(|r| r.job.release <= now && r.job.deadline > now) {
            first.processed = first.job.demand * progress_frac;
        }
        let out = online_qe::online_qe(now, &ready, &MODEL, budget);
        let s_max = MODEL.speed_for_dynamic_power(budget);
        for s in out.schedule.slices() {
            prop_assert!(s.start >= now);
            prop_assert!(s.speed <= s_max + 1e-6);
            let j = jobs.get(s.job).unwrap();
            prop_assert!(s.end <= j.deadline);
        }
        // Future volume per job within remaining demand.
        let vols = out.schedule.volumes();
        for r in &ready {
            let v = vols.get(&r.job.id).copied().unwrap_or(0.0);
            prop_assert!(v <= r.remaining() + 0.25, "{:?}", r.job.id);
        }
    }

    #[test]
    fn eager_and_efficient_conserve_planned_future_volume(
        jobs in arb_jobset(8),
        budget in 2.0f64..30.0,
        now_ms in 0u64..300,
        progress_frac in 0.0f64..0.9,
    ) {
        // Both realization modes must run exactly the trimmed future
        // volumes step 1 promised — Eager at s_max with µs-rounded slice
        // boundaries, Efficient through Energy-OPT. Per job and in total
        // they may differ only by µs quantization of slice endpoints.
        let now = SimTime::from_millis(now_ms);
        let mut ready: Vec<ReadyJob> = jobs.iter().map(|&j| ReadyJob::fresh(j)).collect();
        if let Some(first) = ready.iter_mut().find(|r| r.job.release <= now && r.job.deadline > now) {
            first.processed = first.job.demand * progress_frac;
        }
        let eager = QeSolver::default().solve(now, &ready, &MODEL, budget, OnlineMode::Eager);
        let eff = QeSolver::default().solve(now, &ready, &MODEL, budget, OnlineMode::Efficient);
        prop_assert!(eager.discarded.is_empty() && eff.discarded.is_empty());
        let ve = eager.schedule.volumes();
        let vf = eff.schedule.volumes();
        let mut te = 0.0;
        let mut tf = 0.0;
        for r in &ready {
            let a = ve.get(&r.job.id).copied().unwrap_or(0.0);
            let b = vf.get(&r.job.id).copied().unwrap_or(0.0);
            te += a;
            tf += b;
            prop_assert!(
                (a - b).abs() <= 0.25,
                "{:?}: eager ran {} vs efficient {}", r.job.id, a, b
            );
        }
        prop_assert!(
            (te - tf).abs() <= 0.25 * (ready.len() as f64 + 1.0),
            "total future volume diverged: eager {} vs efficient {}", te, tf
        );
    }

    #[test]
    fn quality_is_monotone_in_speed(jobs in arb_jobset(8)) {
        let q = ExpQuality::PAPER_DEFAULT;
        let mut prev = -1.0;
        for &s in &[0.25, 0.5, 1.0, 2.0, 4.0] {
            let r = quality_opt::quality_opt(&jobs, s);
            let total: f64 = jobs.iter().map(|j| q.job_quality(j, r.volume(j.id))).sum();
            prop_assert!(total + 1e-6 >= prev, "quality dropped at speed {}", s);
            prev = total;
        }
    }

    #[test]
    fn deprived_jobs_share_volumes_within_common_windows(
        demands in proptest::collection::vec(150.0f64..800.0, 2..6),
    ) {
        // Identical windows, heavy demands, slow core: every job deprived
        // ⇒ all volumes equal (the d-mean).
        let jobs = JobSet::new(
            demands
                .iter()
                .enumerate()
                .map(|(i, &w)| {
                    Job::new(i as u32, SimTime::ZERO, SimTime::from_millis(100), w).unwrap()
                })
                .collect(),
        )
        .unwrap();
        let r = quality_opt::quality_opt(&jobs, 1.0); // 100 units capacity
        let level = 100.0 / demands.len() as f64;
        for j in jobs.iter() {
            if j.demand > level + 1.0 {
                prop_assert!(
                    (r.volume(j.id) - level).abs() < 0.5,
                    "{:?}: {} vs level {}",
                    j.id,
                    r.volume(j.id),
                    level
                );
            }
        }
    }
}
