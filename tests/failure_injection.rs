//! Failure-injection and edge-condition tests: the system must stay
//! well-defined when pushed to the boundaries of its domain — degenerate
//! budgets, bursts, ladder extremes, impossible jobs, and non-partial
//! overloads.

use qes::core::obs::Event;
use qes::core::QualityFunction;
use qes::core::TraceObserver;
use qes::core::{DiscreteSpeedSet, ExpQuality, Job, JobSet, PolynomialPower, SimDuration, SimTime};
use qes::experiments::{run_policy, ExperimentConfig, PolicyKind};
use qes::multicore::{ArchKind, BaselineOrder, BaselinePolicy, DesPolicy, SchedulingPolicy};
use qes::sim::engine::{SimConfig, Simulator};

const MODEL: PolynomialPower = PolynomialPower::PAPER_SIM;
const Q: ExpQuality = ExpQuality::PAPER_DEFAULT;

fn ms(x: u64) -> SimTime {
    SimTime::from_millis(x)
}

fn simulate(
    jobs: JobSet,
    policy: &mut dyn SchedulingPolicy,
    cores: usize,
    budget: f64,
    end_ms: u64,
) -> qes::sim::SimReport {
    let cfg = SimConfig {
        num_cores: cores,
        budget,
        model: &MODEL,
        quality: &Q,
        end: ms(end_ms),
        record_trace: false,
        overhead: SimDuration::ZERO,
    };
    Simulator::run(&cfg, policy, &jobs).0
}

/// Like [`simulate`], with a [`TraceObserver`] attached and a scheduling
/// overhead.
fn simulate_traced(
    jobs: JobSet,
    policy: &mut dyn SchedulingPolicy,
    cores: usize,
    budget: f64,
    end_ms: u64,
    overhead: SimDuration,
) -> (qes::sim::SimReport, TraceObserver) {
    let cfg = SimConfig {
        num_cores: cores,
        budget,
        model: &MODEL,
        quality: &Q,
        end: ms(end_ms),
        record_trace: false,
        overhead,
    };
    let mut obs = TraceObserver::new();
    let (report, _) = Simulator::run_observed(&cfg, policy, &jobs, &mut obs);
    (report, obs)
}

/// The event-stream invariants every run must uphold when all deadlines
/// fall inside the horizon: timestamps are monotone, every `PlanInstall`
/// follows a trigger event at the same instant, and nothing is recorded
/// after `end + overhead`. Every slice ends by its job's deadline, so the
/// only timer past the last deadline is a plan that the overhead stall
/// swallows, installed while a job is still live: before the last
/// deadline, and ending one overhead later.
fn assert_well_formed(obs: &TraceObserver, end: SimTime, overhead: SimDuration) {
    assert_eq!(obs.dropped(), 0, "ring buffer overflowed");
    let events = obs.events();
    assert!(!events.is_empty());
    let mut prev = SimTime::ZERO;
    let mut last_trigger: Option<SimTime> = None;
    for &(at, ev) in &events {
        assert!(at >= prev, "timestamps went backwards: {at:?} < {prev:?}");
        prev = at;
        assert!(
            at <= end + overhead,
            "event more than one overhead after the horizon: {at:?} > {end:?} + {overhead:?}"
        );
        match ev {
            Event::Trigger { .. } => last_trigger = Some(at),
            Event::PlanInstall { .. } => {
                assert_eq!(
                    last_trigger,
                    Some(at),
                    "PlanInstall at {at:?} without a trigger at the same instant"
                );
            }
            _ => {}
        }
    }
}

#[test]
fn observed_burst_trace_is_well_formed() {
    // The burst scenario below, with the observer attached: every deadline
    // (150 ms) is far inside the 1 s horizon, so the stream must also end
    // by the horizon.
    let jobs = JobSet::new(
        (0..64)
            .map(|i| Job::new(i, ms(0), ms(150), 200.0).unwrap())
            .collect(),
    )
    .unwrap();
    let (r, obs) = simulate_traced(
        jobs,
        &mut DesPolicy::new(),
        4,
        80.0,
        1000,
        SimDuration::ZERO,
    );
    assert_well_formed(&obs, ms(1000), SimDuration::ZERO);
    // The stream is complete: one settle per job, one invoke per wakeup.
    let events = obs.events();
    let settles = events
        .iter()
        .filter(|(_, e)| matches!(e, Event::JobSettle { .. }))
        .count();
    assert_eq!(settles, 64);
    let invokes = events
        .iter()
        .filter(|(_, e)| matches!(e, Event::Invoke { .. }))
        .count() as u64;
    assert_eq!(invokes, r.counters.wakeups());
}

#[test]
fn observed_overload_trace_is_well_formed() {
    // The non-partial overload scenario with discards: last deadline at
    // 40·39 + 150 = 1710 ms < the 2 s horizon.
    let mut v = Vec::new();
    for i in 0..40u32 {
        let rel = ms(40 * i as u64);
        let mut j = Job::new(i, rel, rel + SimDuration::from_millis(150), 250.0).unwrap();
        j.partial = false;
        v.push(j);
    }
    let jobs = JobSet::new(v).unwrap();
    let (r, obs) = simulate_traced(
        jobs,
        &mut DesPolicy::new(),
        2,
        40.0,
        2000,
        SimDuration::ZERO,
    );
    assert_well_formed(&obs, ms(2000), SimDuration::ZERO);
    let events = obs.events();
    let discards = events
        .iter()
        .filter(|(_, e)| matches!(e, Event::JobDiscard { .. }))
        .count();
    assert_eq!(discards, r.jobs_discarded());
    // Every install is announced: plan installs in the stream match the
    // report's counter.
    let installs = events
        .iter()
        .filter(|(_, e)| matches!(e, Event::PlanInstall { .. }))
        .count() as u64;
    assert_eq!(installs, r.counters.plans_installed);
}

#[test]
fn observed_traces_with_overhead_end_within_one_overhead_of_the_horizon() {
    // One job at 450 ms, due at 480 ms, on a 500 ms horizon with a 100 ms
    // overhead: the stall swallows its plan, whose timer (550 ms) lies
    // past the horizon, and the run drains to it.
    let one = || JobSet::new(vec![Job::new(0, ms(450), ms(480), 20.0).unwrap()]).unwrap();
    let overhead = SimDuration::from_millis(100);
    for arch in [ArchKind::NoDvfs, ArchKind::SDvfs, ArchKind::CDvfs] {
        let (_, obs) =
            simulate_traced(one(), &mut DesPolicy::on_arch(arch), 2, 40.0, 500, overhead);
        assert_well_formed(&obs, ms(500), overhead);
        let last = obs.events().last().map(|&(at, _)| at);
        assert_eq!(last, Some(ms(550)), "{arch:?}");
    }
    // The non-partial overload stream with the horizon on its last
    // deadline (1710 ms), so the stalls of the last invocations trail it.
    let overload = || {
        let mut v = Vec::new();
        for i in 0..40u32 {
            let rel = ms(40 * i as u64);
            let mut j = Job::new(i, rel, rel + SimDuration::from_millis(150), 250.0).unwrap();
            j.partial = false;
            v.push(j);
        }
        JobSet::new(v).unwrap()
    };
    for overhead_ms in [1, 7, 20] {
        let overhead = SimDuration::from_millis(overhead_ms);
        for arch in [ArchKind::NoDvfs, ArchKind::SDvfs, ArchKind::CDvfs] {
            let (r, obs) = simulate_traced(
                overload(),
                &mut DesPolicy::on_arch(arch),
                2,
                40.0,
                1710,
                overhead,
            );
            assert_well_formed(&obs, ms(1710), overhead);
            let settles = obs
                .events()
                .iter()
                .filter(|(_, e)| matches!(e, Event::JobSettle { .. }))
                .count();
            assert_eq!(settles, 40, "{arch:?} at {overhead_ms} ms");
            assert!(r.counters.plans_installed > 0);
        }
    }
}

#[test]
fn burst_of_simultaneous_arrivals() {
    // 64 jobs all released at t=0 on 4 cores: far beyond capacity, but
    // nothing panics and accounting closes.
    let jobs = JobSet::new(
        (0..64)
            .map(|i| Job::new(i, ms(0), ms(150), 200.0).unwrap())
            .collect(),
    )
    .unwrap();
    let r = simulate(jobs, &mut DesPolicy::new(), 4, 80.0, 1000);
    assert_eq!(r.jobs_total(), 64);
    assert_eq!(r.jobs_satisfied() + r.jobs_partial() + r.jobs_zero(), 64);
    // Capacity: 4 cores × 2 GHz × 0.15 s = 1200 units vs 12800 demanded.
    assert!(r.jobs_satisfied() < 8);
    assert!(r.total_quality > 0.0);
}

#[test]
fn job_impossible_even_at_max_speed() {
    // 10 000 units in 150 ms needs 66 GHz; s* is 2 GHz. The job is served
    // partially and the system moves on.
    let jobs = JobSet::new(vec![
        Job::new(0, ms(0), ms(150), 10_000.0).unwrap(),
        Job::new(1, ms(10), ms(160), 100.0).unwrap(),
    ])
    .unwrap();
    let r = simulate(jobs, &mut DesPolicy::new(), 2, 40.0, 1000);
    assert_eq!(r.jobs_partial(), 1);
    assert_eq!(r.jobs_satisfied(), 1);
}

#[test]
fn non_partial_overload_discards_do_not_leak() {
    // All-or-nothing jobs under 2× overload: discarded jobs must still be
    // settled exactly once.
    let mut v = Vec::new();
    for i in 0..40u32 {
        // 250 units / 150 ms = 1.67 GHz — feasible alone, infeasible for
        // all 40 (offered ≈ 6.3 kunits/s vs 4 kunits/s capacity).
        let rel = ms(40 * i as u64);
        let mut j = Job::new(i, rel, rel + SimDuration::from_millis(150), 250.0).unwrap();
        j.partial = false;
        v.push(j);
    }
    let jobs = JobSet::new(v).unwrap();
    let r = simulate(jobs, &mut DesPolicy::new(), 2, 40.0, 2000);
    assert_eq!(r.jobs_total(), 40);
    assert_eq!(r.jobs_satisfied() + r.jobs_partial() + r.jobs_zero(), 40);
    // Non-partial ⇒ partial executions yield zero quality; whatever
    // quality exists comes only from fully satisfied jobs.
    assert!(r.jobs_satisfied() > 0, "some jobs should complete");
    assert!(r.jobs_satisfied() < 40, "overload must cost something");
    let per_job = Q.value(250.0);
    let expected = per_job * r.jobs_satisfied() as f64;
    assert!((r.total_quality - expected).abs() < 1e-6);
}

#[test]
fn single_level_speed_ladder() {
    // A one-speed "ladder": rectification has no choices, yet DES/discrete
    // still schedules.
    let set = DiscreteSpeedSet::from_model(&MODEL, &[2.0]).unwrap();
    let jobs = JobSet::new(
        (0..20)
            .map(|i| {
                // 100 units per 40 ms on 2 cores: 2.5 kunits/s offered vs
                // 4 kunits/s at the single 2 GHz level.
                let rel = ms(40 * i as u64);
                Job::new(i, rel, rel + SimDuration::from_millis(150), 100.0).unwrap()
            })
            .collect(),
    )
    .unwrap();
    let r = simulate(jobs, &mut DesPolicy::with_discrete(set), 2, 40.0, 1500);
    assert!(r.jobs_satisfied() > 15, "satisfied {}", r.jobs_satisfied());
}

#[test]
fn budget_below_slowest_discrete_level() {
    // The slowest Opteron level draws ~11 W of total power; with a 1 W
    // budget nothing can run, but nothing crashes either.
    let set = DiscreteSpeedSet::opteron_2380();
    let jobs = JobSet::new(vec![Job::new(0, ms(0), ms(150), 100.0).unwrap()]).unwrap();
    let r = simulate(jobs, &mut DesPolicy::with_discrete(set), 1, 1.0, 500);
    assert_eq!(r.jobs_satisfied(), 0);
}

#[test]
fn demands_at_pareto_bounds() {
    // Hand-build a stream alternating the distribution's extremes.
    let jobs = JobSet::new(
        (0..30)
            .map(|i| {
                let rel = ms(10 * i as u64);
                let w = if i % 2 == 0 { 130.0 } else { 1000.0 };
                Job::new(i, rel, rel + SimDuration::from_millis(150), w).unwrap()
            })
            .collect(),
    )
    .unwrap();
    let r = simulate(jobs, &mut DesPolicy::new(), 4, 80.0, 1000);
    assert_eq!(r.jobs_total(), 30);
    // ~4× overload: concave partial credit still earns real quality.
    assert!(r.normalized_quality() > 0.3, "{}", r.normalized_quality());
    assert!(r.jobs_partial() > 0);
}

#[test]
fn deadline_on_quantum_boundary() {
    // Deadline exactly at the 500 ms quantum tick: the deadline event must
    // settle before the quantum replans.
    let jobs = JobSet::new(vec![Job::new(0, ms(350), ms(500), 100.0).unwrap()]).unwrap();
    let r = simulate(jobs, &mut DesPolicy::new(), 1, 20.0, 1000);
    assert_eq!(r.jobs_total(), 1);
    assert_eq!(r.jobs_satisfied(), 1);
}

#[test]
fn all_architectures_survive_extreme_overload() {
    let cfg = ExperimentConfig::paper_default()
        .with_arrival_rate(400.0) // 2.4× capacity
        .with_sim_seconds(5.0);
    for kind in [PolicyKind::Des, PolicyKind::DesSDvfs, PolicyKind::DesNoDvfs] {
        let r = run_policy(&cfg, kind, 1);
        assert!(r.jobs_total() > 1500, "{kind:?}");
        assert!(r.normalized_quality() > 0.2, "{kind:?}");
        assert!(r.normalized_quality() < 0.9, "{kind:?} should be degraded");
    }
}

#[test]
fn baselines_survive_zero_jobs() {
    let jobs = JobSet::new(vec![]).unwrap();
    for order in [BaselineOrder::Fcfs, BaselineOrder::Ljf, BaselineOrder::Sjf] {
        let r = simulate(jobs.clone(), &mut BaselinePolicy::new(order), 2, 40.0, 500);
        assert_eq!(r.jobs_total(), 0);
        assert_eq!(r.energy_joules, 0.0);
        assert_eq!(r.normalized_quality(), 1.0);
    }
}

#[test]
fn no_dvfs_with_zero_budget_burns_nothing() {
    let jobs = JobSet::new(vec![Job::new(0, ms(0), ms(150), 100.0).unwrap()]).unwrap();
    let r = simulate(jobs, &mut DesPolicy::on_arch(ArchKind::NoDvfs), 2, 0.0, 500);
    assert_eq!(r.energy_joules, 0.0);
    assert_eq!(r.jobs_satisfied(), 0);
}

#[test]
fn more_cores_than_jobs() {
    let jobs = JobSet::new(vec![
        Job::new(0, ms(0), ms(150), 100.0).unwrap(),
        Job::new(1, ms(5), ms(155), 100.0).unwrap(),
    ])
    .unwrap();
    let r = simulate(jobs, &mut DesPolicy::new(), 64, 320.0, 500);
    assert_eq!(r.jobs_satisfied(), 2);
}

#[test]
fn sub_millisecond_jobs() {
    // Tiny demands and tight windows exercise the µs rounding paths.
    let jobs = JobSet::new(
        (0..50)
            .map(|i| {
                let rel = SimTime::from_micros(137 * i as u64);
                Job::new(i, rel, rel + SimDuration::from_micros(900), 0.5).unwrap()
            })
            .collect(),
    )
    .unwrap();
    let r = simulate(jobs, &mut DesPolicy::new(), 2, 40.0, 100);
    assert_eq!(r.jobs_total(), 50);
    assert!(
        r.jobs_satisfied() + r.jobs_partial() > 30,
        "sat {} part {} zero {}",
        r.jobs_satisfied(),
        r.jobs_partial(),
        r.jobs_zero()
    );
}
