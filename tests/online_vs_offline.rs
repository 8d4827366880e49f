//! Online DES vs clairvoyant offline references: the myopia gap.
//!
//! The offline multicore ⟨quality, energy⟩ problem is NP-hard (§IV), so
//! no exact polynomial solver exists; this file keeps two well-defined
//! references as test oracles:
//!
//! * [`offline_crr_qe_opt`] fixes the job→core assignment with the same
//!   C-RR dealing DES uses, gives every core the static equal power share
//!   `H/m`, and solves each core *optimally* with full future knowledge
//!   (QE-OPT). Any quality DES loses against it is the price of not
//!   knowing the future (plus the dynamic-vs-static power-sharing
//!   difference, which favours DES).
//! * [`offline_best_assignment`] enumerates, for small instances, *every*
//!   `m^n` job→core assignment, solves each with per-core QE-OPT, and
//!   keeps the lexicographic best. It bounds how much the assignment
//!   policy itself can matter.
//!
//! Neither is a true multicore optimum (power cannot migrate between
//! cores over time here), but both are *feasible* schedules under the
//! budget. Neither dominates DES by construction, but on the paper's
//! workload DES should stay close to the clairvoyant reference.

use std::cmp::Ordering;

use qes::core::{
    CoreSchedule, ExpQuality, Job, JobSet, PolynomialPower, PowerModel, QualityEnergy,
    QualityFunction, Schedule, SimDuration, SimTime,
};
use qes::experiments::{run_policy, ExperimentConfig, PolicyKind};
use qes::multicore::CrrDistributor;
use qes::singlecore::qe_opt;

const MODEL: PolynomialPower = PolynomialPower::PAPER_SIM;
const Q: ExpQuality = ExpQuality::PAPER_DEFAULT;

/// A reference schedule with its score.
struct OfflineResult {
    /// The feasible multicore schedule.
    schedule: Schedule,
    /// Its ⟨quality, energy⟩ score under the given quality function.
    score: QualityEnergy,
}

/// Solve per-core QE-OPT for a fixed assignment. `assignment[i]` is the
/// core of `jobs.jobs()[i]`.
fn solve_assignment(
    jobs: &JobSet,
    assignment: &[usize],
    m: usize,
    model: &dyn PowerModel,
    share: f64,
    quality: &dyn QualityFunction,
) -> OfflineResult {
    let mut per_core: Vec<Vec<Job>> = vec![Vec::new(); m];
    for (job, &core) in jobs.iter().zip(assignment) {
        per_core[core].push(*job);
    }
    let mut cores = Vec::with_capacity(m);
    let mut total_quality = 0.0;
    for bucket in per_core {
        if bucket.is_empty() {
            cores.push(CoreSchedule::default());
            continue;
        }
        let set = JobSet::new_unchecked(bucket);
        let r = qe_opt(&set, model, share);
        total_quality += set
            .iter()
            .map(|j| quality.job_quality(j, r.volume(j.id)))
            .sum::<f64>();
        cores.push(r.schedule);
    }
    let schedule = Schedule::new(cores);
    let energy = schedule.total_energy(model);
    OfflineResult {
        schedule,
        score: QualityEnergy::new(total_quality, energy),
    }
}

/// Clairvoyant reference: C-RR assignment + static equal power + per-core
/// QE-OPT with full future knowledge.
fn offline_crr_qe_opt(
    jobs: &JobSet,
    m: usize,
    model: &dyn PowerModel,
    budget: f64,
    quality: &dyn QualityFunction,
) -> OfflineResult {
    assert!(m > 0);
    let assignment = CrrDistributor::new().assign(jobs.len(), m);
    solve_assignment(jobs, &assignment, m, model, budget / m as f64, quality)
}

/// Maximum `m^n` combinations [`offline_best_assignment`] will enumerate.
const BRUTE_FORCE_CAP: u64 = 1_000_000;

/// Exhaustive best assignment for small instances (per-core QE-OPT,
/// static equal power). Returns `None` when `m^n` exceeds
/// [`BRUTE_FORCE_CAP`].
fn offline_best_assignment(
    jobs: &JobSet,
    m: usize,
    model: &dyn PowerModel,
    budget: f64,
    quality: &dyn QualityFunction,
) -> Option<OfflineResult> {
    assert!(m > 0);
    let n = jobs.len() as u32;
    let combos = (m as u64).checked_pow(n)?;
    if combos > BRUTE_FORCE_CAP {
        return None;
    }
    let share = budget / m as f64;
    let mut best: Option<OfflineResult> = None;
    let mut assignment = vec![0usize; jobs.len()];
    loop {
        let cand = solve_assignment(jobs, &assignment, m, model, share, quality);
        best = Some(match best {
            None => cand,
            Some(b) if cand.score.compare(&b.score) == Ordering::Greater => cand,
            Some(b) => b,
        });
        // Odometer increment over base-m digits.
        let mut i = 0;
        loop {
            if i == assignment.len() {
                return best;
            }
            assignment[i] += 1;
            if assignment[i] < m {
                break;
            }
            assignment[i] = 0;
            i += 1;
        }
    }
}

fn js(specs: &[(u64, u64, f64)]) -> JobSet {
    let ms = SimTime::from_millis;
    JobSet::new(
        specs
            .iter()
            .enumerate()
            .map(|(i, &(r, d, w))| Job::new(i as u32, ms(r), ms(d), w).unwrap())
            .collect(),
    )
    .unwrap()
}

#[test]
fn des_stays_close_to_clairvoyant_reference_at_moderate_load() {
    let cfg = ExperimentConfig::paper_default()
        .with_arrival_rate(140.0)
        .with_sim_seconds(10.0);
    let jobs = cfg.workload().generate(3).unwrap();

    // Online DES (simulated, sees only arrivals).
    let online = run_policy(&cfg, PolicyKind::Des, 3);

    // Clairvoyant per-core optimal on the same stream.
    let offline = offline_crr_qe_opt(&jobs, cfg.num_cores, &MODEL, cfg.budget, &Q);

    let gap = (offline.score.quality - online.total_quality) / offline.score.quality;
    assert!(
        gap < 0.05,
        "online quality {} trails clairvoyant {} by {:.1}%",
        online.total_quality,
        offline.score.quality,
        100.0 * gap
    );
}

#[test]
fn des_can_beat_static_share_clairvoyance_under_imbalance() {
    // A stream engineered for imbalance: alternating huge/tiny jobs means
    // static equal shares starve the hot cores the clairvoyant reference
    // is stuck with, while DES's WF borrows for them.
    let ms = SimTime::from_millis;
    let jobs = JobSet::new(
        (0..24u32)
            .map(|i| {
                let rel = ms(40 * i as u64);
                let w = if i % 4 == 0 { 800.0 } else { 40.0 };
                Job::new(i, rel, ms(40 * i as u64 + 150), w).unwrap()
            })
            .collect(),
    )
    .unwrap();
    let m = 4;
    let budget = 30.0;
    let offline = offline_crr_qe_opt(&jobs, m, &MODEL, budget, &Q);

    // Simulate DES over the same jobs.
    use qes::multicore::DesPolicy;
    use qes::sim::engine::{SimConfig, Simulator};
    let sim_cfg = SimConfig {
        num_cores: m,
        budget,
        model: &MODEL,
        quality: &Q,
        end: ms(1500),
        record_trace: false,
        overhead: SimDuration::ZERO,
    };
    let (report, _) = Simulator::run(&sim_cfg, &mut DesPolicy::new(), &jobs);

    // DES must land within a whisker of — and often above — the static
    // clairvoyant score on this shape.
    assert!(
        report.total_quality > 0.9 * offline.score.quality,
        "DES {} vs clairvoyant {}",
        report.total_quality,
        offline.score.quality
    );
}

#[test]
fn exhaustive_assignment_bounds_crr_loss_on_tiny_instances() {
    // On small random-ish instances the C-RR assignment should be within
    // a few percent of the best possible assignment, and the best
    // assignment never loses to C-RR under the lexicographic metric.
    // Each case is a relative deadline (ms) and its (release ms, demand)
    // jobs.
    let cases: Vec<(u64, Vec<(u64, f64)>)> = vec![
        (
            150,
            vec![(0, 300.0), (0, 120.0), (10, 450.0), (15, 80.0), (20, 200.0)],
        ),
        (150, vec![(0, 700.0), (5, 700.0), (10, 100.0), (15, 100.0)]),
        (
            150,
            vec![
                (0, 150.0),
                (2, 150.0),
                (4, 150.0),
                (6, 150.0),
                (8, 150.0),
                (10, 150.0),
            ],
        ),
        (100, vec![(0, 180.0), (0, 180.0), (5, 60.0), (10, 240.0)]),
    ];
    for (ci, (window, case)) in cases.iter().enumerate() {
        let specs: Vec<(u64, u64, f64)> = case.iter().map(|&(r, w)| (r, r + window, w)).collect();
        let jobs = js(&specs);
        let crr = offline_crr_qe_opt(&jobs, 2, &MODEL, 20.0, &Q);
        let best = offline_best_assignment(&jobs, 2, &MODEL, 20.0, &Q).unwrap();
        assert!(best.score.quality + 1e-9 >= crr.score.quality, "case {ci}");
        assert!(
            best.score.dominates_or_ties(&crr.score),
            "case {ci}: brute force {} worse than C-RR {}",
            best.score,
            crr.score
        );
        let loss = (best.score.quality - crr.score.quality) / best.score.quality.max(1e-9);
        assert!(
            loss < 0.10,
            "case {ci}: C-RR loses {:.1}% to the best assignment",
            100.0 * loss
        );
    }
}

#[test]
fn crr_reference_is_feasible() {
    let jobs = js(&[
        (0, 150, 200.0),
        (10, 160, 150.0),
        (20, 170, 300.0),
        (30, 180, 100.0),
    ]);
    let r = offline_crr_qe_opt(&jobs, 2, &MODEL, 40.0, &Q);
    r.schedule
        .validate_with_tolerance(&jobs, &MODEL, 40.0, 0.25, 1e-3)
        .unwrap();
    assert!(r.score.quality > 0.0);
    assert!(r.score.energy > 0.0);
}

#[test]
fn brute_force_prefers_balanced_assignments() {
    // Two identical heavy jobs, two cores: splitting them dominates
    // stacking them (concavity + per-core capacity).
    let jobs = js(&[(0, 100, 180.0), (0, 100, 180.0)]);
    let best = offline_best_assignment(&jobs, 2, &MODEL, 10.0, &Q).unwrap();
    // Both cores must run something.
    let busy = best
        .schedule
        .cores()
        .iter()
        .filter(|c| !c.is_empty())
        .count();
    assert_eq!(busy, 2);
}

#[test]
fn brute_force_caps_instance_size() {
    let jobs = js([(0, 100, 10.0); 30].as_slice());
    assert!(offline_best_assignment(&jobs, 4, &MODEL, 40.0, &Q).is_none());
}

#[test]
fn empty_jobset_scores_zero() {
    let jobs = JobSet::new(vec![]).unwrap();
    let r = offline_crr_qe_opt(&jobs, 3, &MODEL, 60.0, &Q);
    assert_eq!(r.score.quality, 0.0);
    assert_eq!(r.score.energy, 0.0);
}
