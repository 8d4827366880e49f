//! Differential + property test layer for the sharded cluster front end.
//!
//! The dispatch layer's contract (DESIGN.md §9):
//!
//! * **1 shard ≡ the plain engine, bitwise.** A 1-shard cluster routes
//!   every job to shard 0 and merges a single report, so ⟨quality,
//!   energy⟩ and every counter must match a direct `Simulator::run` to
//!   the bit — under both the per-event and the grouped (§IV-E)
//!   trigger discipline.
//! * **Conservation.** Routing is a partition: every arrival lands on
//!   exactly one shard and per-shard counts sum to the workload.
//! * **Lane count is unobservable.** Shard fan-out on 1 lane vs 4 lanes
//!   is bitwise-equal (`f64::to_bits`), reusing the `with_threads`
//!   harness from `tests/parallel_determinism.rs`.
//! * **JSQ ties are id-blind.** The decision stream depends on the
//!   `(release, deadline)` sequence, never on job-id labels, so
//!   relabeling ids inside simultaneous-arrival batches leaves the
//!   per-position shard assignment unchanged.
//! * **Seed-split disjointness.** Seeded fault plans draw each shard's
//!   windows from a SplitMix64 split of one seed; the split lanes'
//!   streams share no draw.
//!
//! The fault layer's contract (DESIGN.md §10):
//!
//! * **Zero faults ≡ the fault-free path, bitwise.** An engine carrying
//!   [`FaultPlan::none`] produces reports bit-identical to the engine
//!   without a plan, across the whole routing matrix (round-robin, JSQ,
//!   least-energy, feedback).
//! * **Seeded fault runs are bitwise reproducible** at any lane count
//!   and across repeats — faults are sampled before the run, never
//!   during it.
//! * **Conservation under faults.** Every arrival is either simulated
//!   on some shard or counted in `jobs_dropped`:
//!   `merged.jobs_total() + jobs_dropped == arrivals`.
//! * **Failover routes around crashes.** No job is assigned to a shard
//!   inside one of its crash windows, and stranded jobs reappear on
//!   surviving shards (`jobs_retried`).

use qes::cluster::{
    dispatch_protected, split_seed, AdmissionPolicy, ClusterEngine, DispatchPlan, FaultKind,
    FaultPlan, FaultWindow, HedgePolicy, OverloadPolicy, RetryPolicy, RoutingPolicy,
};
use qes::core::{Event, ExpQuality, Job, JobId, JobSet, PolynomialPower, SimDuration, SimTime};
use qes::multicore::{DesPolicy, TriggerRequest};
use qes::sim::{SimConfig, SimReport, Simulator};
use qes::workload::{DiurnalWorkload, WebSearchWorkload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CORES: usize = 8;
const BUDGET: f64 = 160.0;
const MODEL: PolynomialPower = PolynomialPower::PAPER_SIM;

fn sim_cfg<'a>(quality: &'a ExpQuality, end_s: u64) -> SimConfig<'a> {
    SimConfig {
        num_cores: CORES,
        budget: BUDGET,
        model: &MODEL,
        quality,
        end: SimTime::from_secs(end_s),
        record_trace: false,
        overhead: SimDuration::ZERO,
    }
}

fn workload() -> (JobSet, u64) {
    let jobs = WebSearchWorkload::new(120.0)
        .with_horizon(SimTime::from_secs(8))
        .generate(7)
        .unwrap();
    (jobs, 10)
}

/// The dispatch pre-pass with no overload protection: the default
/// [`OverloadPolicy`] (the quality function is then never consulted).
fn dispatch(
    jobs: &JobSet,
    shards: usize,
    routing: &RoutingPolicy,
    plan: &FaultPlan,
    end: SimTime,
) -> DispatchPlan {
    dispatch_retrying(jobs, shards, routing, plan, RetryPolicy::default(), end)
}

/// [`dispatch`] with stranded jobs re-released under `retry`.
fn dispatch_retrying(
    jobs: &JobSet,
    shards: usize,
    routing: &RoutingPolicy,
    plan: &FaultPlan,
    retry: RetryPolicy,
    end: SimTime,
) -> DispatchPlan {
    let quality = ExpQuality::new(0.003);
    let overload = OverloadPolicy {
        retry,
        ..OverloadPolicy::default()
    };
    dispatch_protected(
        jobs, shards, routing, &MODEL, &quality, plan, &overload, end,
    )
}

/// Unlimited retries after a flat `ms` milliseconds.
fn flat_retry(ms: u64) -> RetryPolicy {
    RetryPolicy {
        base_delay: SimDuration::from_millis(ms),
        ..RetryPolicy::default()
    }
}

fn diurnal_workload() -> (JobSet, u64) {
    let jobs = DiurnalWorkload::new(200.0, 140.0, 6.0)
        .with_horizon(SimTime::from_secs(12))
        .generate(21)
        .unwrap();
    (jobs, 14)
}

fn assert_reports_bitwise(a: &SimReport, b: &SimReport, ctx: &str) {
    assert_eq!(
        a.total_quality.to_bits(),
        b.total_quality.to_bits(),
        "{ctx}: quality"
    );
    assert_eq!(
        a.energy_joules.to_bits(),
        b.energy_joules.to_bits(),
        "{ctx}: energy"
    );
    assert_eq!(
        a.max_quality.to_bits(),
        b.max_quality.to_bits(),
        "{ctx}: max_quality"
    );
    assert_eq!(a.counters, b.counters, "{ctx}: counters");
}

#[test]
fn one_shard_cluster_is_bitwise_identical_to_plain_engine() {
    let (jobs, end) = workload();
    let quality = ExpQuality::new(0.003);
    let cfg = sim_cfg(&quality, end);
    for (label, triggers) in [
        ("per-event", TriggerRequest::per_event()),
        ("grouped", TriggerRequest::paper_default()),
    ] {
        let policy = move || DesPolicy::new().with_triggers(triggers);
        let (plain, _) = Simulator::run(&cfg, &mut policy(), &jobs);

        for routing in [
            RoutingPolicy::RoundRobin,
            RoutingPolicy::Jsq,
            RoutingPolicy::LeastEnergy,
            RoutingPolicy::Random { seed: 5 },
        ] {
            let engine = ClusterEngine::new(1).with_routing(routing.clone());
            let rep = engine.run(&cfg, &jobs, move |_| Box::new(policy()));
            let ctx = format!("{label}/{}", routing.label());
            assert_reports_bitwise(&plain, &rep.merged, &ctx);
            assert_eq!(rep.shards.len(), 1, "{ctx}");
            assert_reports_bitwise(&plain, &rep.shards[0].report, &ctx);
        }
    }
}

#[test]
fn round_robin_over_identical_shards_conserves_jobs() {
    let (jobs, end) = workload();
    let shards = 4;
    let assignment = dispatch(
        &jobs,
        shards,
        &RoutingPolicy::RoundRobin,
        &FaultPlan::none(shards),
        SimTime::MAX,
    )
    .assignment;
    // Every arrival routed exactly once, cyclically.
    assert_eq!(assignment.len(), jobs.len());
    for (k, &s) in assignment.iter().enumerate() {
        assert_eq!(s as usize, k % shards, "arrival {k}");
    }
    let mut counts = vec![0usize; shards];
    for &s in &assignment {
        counts[s as usize] += 1;
    }
    assert_eq!(counts.iter().sum::<usize>(), jobs.len());
    assert!(counts.iter().max().unwrap() - counts.iter().min().unwrap() <= 1);

    // The simulated cluster sees the same partition: per-shard job
    // totals match the routed counts and sum to the workload in the
    // merged report.
    let quality = ExpQuality::new(0.003);
    let cfg = sim_cfg(&quality, end);
    let engine = ClusterEngine::new(shards).with_routing(RoutingPolicy::RoundRobin);
    let rep = engine.run(&cfg, &jobs, |_| Box::new(DesPolicy::new()));
    for (i, s) in rep.shards.iter().enumerate() {
        assert_eq!(s.report.jobs_total(), counts[i], "shard {i}");
    }
    assert_eq!(rep.merged.jobs_total(), jobs.len());
    let summed: usize = rep.shards.iter().map(|s| s.report.jobs_total()).sum();
    assert_eq!(summed, rep.merged.jobs_total());
}

#[test]
fn shard_fan_out_is_bitwise_deterministic_across_lane_counts() {
    let (jobs, end) = diurnal_workload();
    let quality = ExpQuality::new(0.003);
    let cfg = sim_cfg(&quality, end);
    let run_with = |threads: usize| {
        rayon::with_threads(threads, || {
            let engine = ClusterEngine::new(4).with_routing(RoutingPolicy::Jsq);
            engine.run(&cfg, &jobs, |_| Box::new(DesPolicy::new()))
        })
    };
    let lane1 = run_with(1);
    let lane4 = run_with(4);
    assert_reports_bitwise(&lane1.merged, &lane4.merged, "merged");
    for (a, b) in lane1.shards.iter().zip(lane4.shards.iter()) {
        assert_reports_bitwise(&a.report, &b.report, &format!("shard {}", a.shard));
    }
    // And run-to-run reproducibility at the same lane count.
    let again = run_with(4);
    assert_reports_bitwise(&lane4.merged, &again.merged, "repeat");
}

/// A tie-heavy stream: batches of 5 simultaneous arrivals (identical
/// release AND deadline) every 10 ms, distinct demands, ids assigned by
/// `label(batch, slot)`.
fn tie_batches(label: impl Fn(usize, usize) -> u32) -> JobSet {
    let mut jobs = Vec::new();
    for batch in 0..40 {
        let at = SimTime::from_millis(batch as u64 * 10);
        for slot in 0..5 {
            jobs.push(
                Job::new(
                    label(batch, slot),
                    at,
                    at + SimDuration::from_millis(150),
                    130.0 + (slot as f64) * 100.0,
                )
                .unwrap(),
            );
        }
    }
    JobSet::new(jobs).unwrap()
}

#[test]
fn jsq_tie_breaks_are_stable_under_job_id_permutation() {
    // Identity labeling vs reversed-within-batch labeling: the sorted
    // job streams present the same (release, deadline) sequence with
    // permuted id labels at tied positions.
    let a = tie_batches(|batch, slot| (batch * 5 + slot) as u32);
    let b = tie_batches(|batch, slot| (batch * 5 + (4 - slot)) as u32);
    assert_eq!(a.len(), b.len());
    for shards in [2usize, 3, 4] {
        let ra = dispatch(
            &a,
            shards,
            &RoutingPolicy::Jsq,
            &FaultPlan::none(shards),
            SimTime::MAX,
        )
        .assignment;
        let rb = dispatch(
            &b,
            shards,
            &RoutingPolicy::Jsq,
            &FaultPlan::none(shards),
            SimTime::MAX,
        )
        .assignment;
        assert_eq!(
            ra, rb,
            "JSQ decision stream changed under id relabeling ({shards} shards)"
        );
        // Determinism: repeated calls agree.
        assert_eq!(
            ra,
            dispatch(
                &a,
                shards,
                &RoutingPolicy::Jsq,
                &FaultPlan::none(shards),
                SimTime::MAX
            )
            .assignment
        );
    }
    // Round-robin is trivially id-blind too.
    assert_eq!(
        dispatch(
            &a,
            4,
            &RoutingPolicy::RoundRobin,
            &FaultPlan::none(4),
            SimTime::MAX
        )
        .assignment,
        dispatch(
            &b,
            4,
            &RoutingPolicy::RoundRobin,
            &FaultPlan::none(4),
            SimTime::MAX
        )
        .assignment
    );
}

#[test]
fn split_seed_streams_are_disjoint() {
    // Distinct derived seeds AND disjoint StdRng prefixes: no draw of
    // shard i's stream appears in shard j's first 16 draws.
    let base = 42u64;
    let mut prefixes: Vec<Vec<u64>> = Vec::new();
    for lane in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(split_seed(base, lane));
        prefixes.push((0..16).map(|_| rng.gen::<u64>()).collect());
    }
    for i in 0..prefixes.len() {
        for j in (i + 1)..prefixes.len() {
            assert!(
                prefixes[i].iter().all(|v| !prefixes[j].contains(v)),
                "lanes {i} and {j} share a draw"
            );
        }
    }
}

fn routing_matrix() -> [RoutingPolicy; 4] {
    [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::Jsq,
        RoutingPolicy::LeastEnergy,
        RoutingPolicy::Feedback,
    ]
}

/// A hand-built plan with real impact on an 8-second run: shard 0
/// crashes mid-run, shard 1 browns out to 40 % capacity for a stretch.
fn crashy_plan() -> FaultPlan {
    FaultPlan::none(4)
        .with_window(
            0,
            FaultWindow {
                start: SimTime::from_secs(2),
                end: SimTime::from_secs(5),
                kind: FaultKind::Crash,
            },
        )
        .with_window(
            1,
            FaultWindow {
                start: SimTime::from_secs(3),
                end: SimTime::from_secs(6),
                kind: FaultKind::Brownout { loss: 0.6 },
            },
        )
}

#[test]
fn zero_fault_plan_is_bitwise_identical_to_fault_free_path() {
    let (jobs, end) = workload();
    let quality = ExpQuality::new(0.003);
    let cfg = sim_cfg(&quality, end);
    for routing in routing_matrix() {
        let plain = ClusterEngine::new(4)
            .with_routing(routing.clone())
            .run(&cfg, &jobs, |_| Box::new(DesPolicy::new()));
        let faultless = ClusterEngine::new(4)
            .with_routing(routing.clone())
            .with_fault_plan(FaultPlan::none(4))
            .run(&cfg, &jobs, |_| Box::new(DesPolicy::new()));
        let ctx = routing.label();
        assert_reports_bitwise(&plain.merged, &faultless.merged, ctx);
        for (a, b) in plain.shards.iter().zip(faultless.shards.iter()) {
            assert_reports_bitwise(&a.report, &b.report, &format!("{ctx}/shard {}", a.shard));
        }
        assert_eq!(faultless.jobs_dropped, 0, "{ctx}");
        assert_eq!(faultless.jobs_retried, 0, "{ctx}");
        assert_eq!(faultless.dropped_max_quality, 0.0, "{ctx}");
        assert_eq!(
            faultless.degraded_quality().to_bits(),
            faultless.merged.normalized_quality().to_bits(),
            "{ctx}: degraded quality must collapse to normalized quality"
        );
    }
}

#[test]
fn seeded_fault_run_is_bitwise_reproducible_across_lane_counts() {
    let (jobs, end) = diurnal_workload();
    let quality = ExpQuality::new(0.003);
    let cfg = sim_cfg(&quality, end);
    let plan = FaultPlan::seeded(4, SimTime::from_secs(end), 99, 3.0, 1.0, 0.5);
    assert!(plan.has_faults(), "seeded plan drew no fault windows");
    // Same seed ⇒ same plan, window for window.
    assert_eq!(
        plan,
        FaultPlan::seeded(4, SimTime::from_secs(end), 99, 3.0, 1.0, 0.5)
    );

    let run_with = |threads: usize| {
        rayon::with_threads(threads, || {
            ClusterEngine::new(4)
                .with_routing(RoutingPolicy::Feedback)
                .with_fault_plan(plan.clone())
                .run(&cfg, &jobs, |_| Box::new(DesPolicy::new()))
        })
    };
    let lane1 = run_with(1);
    let lane4 = run_with(4);
    assert_reports_bitwise(&lane1.merged, &lane4.merged, "merged");
    for (a, b) in lane1.shards.iter().zip(lane4.shards.iter()) {
        assert_reports_bitwise(&a.report, &b.report, &format!("shard {}", a.shard));
    }
    assert_eq!(lane1.jobs_dropped, lane4.jobs_dropped);
    assert_eq!(lane1.jobs_retried, lane4.jobs_retried);
    assert_eq!(
        lane1.dropped_max_quality.to_bits(),
        lane4.dropped_max_quality.to_bits()
    );
    // Run-to-run reproducibility at the same lane count.
    let again = run_with(4);
    assert_reports_bitwise(&lane4.merged, &again.merged, "repeat");
    assert_eq!(lane4.jobs_dropped, again.jobs_dropped);
    assert_eq!(lane4.jobs_retried, again.jobs_retried);
}

#[test]
fn faulted_runs_conserve_jobs_and_surface_drops_and_retries() {
    let (jobs, end) = workload();
    let quality = ExpQuality::new(0.003);
    let cfg = sim_cfg(&quality, end);
    let plan = crashy_plan();
    for routing in routing_matrix() {
        let rep = ClusterEngine::new(4)
            .with_routing(routing.clone())
            .with_fault_plan(plan.clone())
            .run(&cfg, &jobs, |_| Box::new(DesPolicy::new()));
        let ctx = routing.label();
        // Conservation: simulated + dropped = arrivals.
        assert_eq!(
            rep.merged.jobs_total() as u64 + rep.jobs_dropped,
            jobs.len() as u64,
            "{ctx}"
        );
        // The crash strands in-flight work: the retry path must fire.
        assert!(rep.jobs_retried > 0, "{ctx}: no stranded job was retried");
        // With three survivors nothing should be unroutable.
        assert_eq!(rep.jobs_dropped, 0, "{ctx}");
        // Degraded quality stays a valid ratio.
        let dq = rep.degraded_quality();
        assert!((0.0..=1.0).contains(&dq), "{ctx}: degraded quality {dq}");
    }
}

#[test]
fn fault_dispatch_never_targets_a_crashed_shard() {
    let (jobs, _) = workload();
    let plan = crashy_plan();
    for routing in routing_matrix() {
        let d = dispatch(&jobs, 4, &routing, &plan, SimTime::from_secs(10));
        let ctx = routing.label();
        for (job, &s) in jobs.iter().zip(&d.assignment) {
            if s == u32::MAX {
                continue;
            }
            assert!(
                !plan.is_crashed(s as usize, job.release),
                "{ctx}: job {} released at {:?} routed to crashed shard {s}",
                job.id.0,
                job.release
            );
        }
        // Retried jobs land on live shards only: every job in shard 0's
        // final stream must release outside its crash window.
        let shard_jobs = d.shard_jobs(&jobs);
        for j in shard_jobs[0].iter() {
            assert!(!plan.is_crashed(0, j.release), "{ctx}: job {}", j.id.0);
        }
        // Conservation at the dispatch level.
        let routed: usize = shard_jobs.iter().map(|s| s.len()).sum();
        assert_eq!(routed + d.dropped.len(), jobs.len(), "{ctx}");
    }
}

#[test]
fn traced_faulted_run_is_bitwise_identical_and_emits_fault_events() {
    use qes::core::TraceObserver;
    let (jobs, end) = workload();
    let quality = ExpQuality::new(0.003);
    let cfg = sim_cfg(&quality, end);
    let engine = ClusterEngine::new(4)
        .with_routing(RoutingPolicy::Feedback)
        .with_fault_plan(crashy_plan());
    let make_policy =
        |_: usize| Box::new(DesPolicy::new()) as Box<dyn qes::multicore::SchedulingPolicy>;

    let plain = engine.run(&cfg, &jobs, make_policy);
    let (traced, observers) =
        engine.run_observed(&cfg, &jobs, make_policy, |_| TraceObserver::new());
    assert_reports_bitwise(&plain.merged, &traced.merged, "observer must be passive");
    assert_eq!(plain.jobs_dropped, traced.jobs_dropped);
    assert_eq!(plain.jobs_retried, traced.jobs_retried);

    // Shard 0 (crash) and shard 1 (brownout) must bracket their outages
    // with down/up events; the crash must report its stranded jobs.
    let count = |i: usize, pred: &dyn Fn(&Event) -> bool| {
        observers[i]
            .events()
            .iter()
            .filter(|(_, e)| pred(e))
            .count()
    };
    assert_eq!(count(0, &|e| matches!(e, Event::ShardDown { .. })), 1);
    assert_eq!(count(0, &|e| matches!(e, Event::ShardUp { .. })), 1);
    assert_eq!(count(1, &|e| matches!(e, Event::ShardDown { .. })), 1);
    assert_eq!(count(1, &|e| matches!(e, Event::ShardUp { .. })), 1);
    let redispatched = count(0, &|e| matches!(e, Event::Redispatch { .. }));
    assert_eq!(
        redispatched as u64,
        traced.jobs_retried + traced.jobs_dropped
    );
    // Healthy shards emit no fault events.
    for i in [2usize, 3] {
        assert_eq!(
            count(i, &|e| matches!(
                e,
                Event::ShardDown { .. } | Event::ShardUp { .. } | Event::Redispatch { .. }
            )),
            0,
            "shard {i}"
        );
    }
    // Per-shard event timestamps stay non-decreasing across epoch
    // boundaries (the offset re-basing must not fold time backwards).
    for (i, obs) in observers.iter().enumerate() {
        let mut last = SimTime::ZERO;
        for (t, e) in obs.events() {
            assert!(t >= last, "shard {i}: time went backwards at {e:?}");
            last = t;
        }
    }
}

// ---------------------------------------------------------------------
// Overload-protection layer (DESIGN.md §11). Test names carry the
// `overload` prefix so CI can run the suite with a single filter.
// ---------------------------------------------------------------------

#[test]
fn overload_default_policy_is_bitwise_identical_across_matrix() {
    // The degenerate OverloadPolicy (accept all, unbudgeted fixed-delay
    // retries, no hedging) must reproduce the pre-overload cluster path
    // to the bit — ⟨quality, energy, max-quality⟩ and every counter —
    // across {routing} × {no faults, crashy plan}.
    let (jobs, end) = workload();
    let quality = ExpQuality::new(0.003);
    let cfg = sim_cfg(&quality, end);
    for plan in [FaultPlan::none(4), crashy_plan()] {
        for routing in routing_matrix() {
            let plain = ClusterEngine::new(4)
                .with_routing(routing.clone())
                .with_fault_plan(plan.clone())
                .run(&cfg, &jobs, |_| Box::new(DesPolicy::new()));
            let protected = ClusterEngine::new(4)
                .with_routing(routing.clone())
                .with_fault_plan(plan.clone())
                .with_overload(OverloadPolicy::default())
                .run(&cfg, &jobs, |_| Box::new(DesPolicy::new()));
            let ctx = format!(
                "{}/{}",
                routing.label(),
                if plan.has_faults() {
                    "faulted"
                } else {
                    "clean"
                }
            );
            assert_reports_bitwise(&plain.merged, &protected.merged, &ctx);
            for (a, b) in plain.shards.iter().zip(protected.shards.iter()) {
                assert_reports_bitwise(&a.report, &b.report, &format!("{ctx}/shard {}", a.shard));
            }
            assert_eq!(plain.jobs_dropped, protected.jobs_dropped, "{ctx}");
            assert_eq!(plain.jobs_retried, protected.jobs_retried, "{ctx}");
            assert_eq!(
                plain.dropped_max_quality.to_bits(),
                protected.dropped_max_quality.to_bits(),
                "{ctx}"
            );
            // The new classes stay structurally empty.
            assert_eq!(protected.jobs_rejected, 0, "{ctx}");
            assert_eq!(protected.jobs_hedged, 0, "{ctx}");
            assert_eq!(protected.hedges_won, 0, "{ctx}");
            assert_eq!(protected.rejected_max_quality, 0.0, "{ctx}");
        }
    }
}

#[test]
fn overload_active_run_is_bitwise_reproducible_across_lane_counts() {
    // All three mechanisms live (slack-floor admission, budgeted
    // exponential backoff, hedging) under a seeded
    // fault plan: 1 lane vs 4 lanes and repeat runs must agree to the
    // bit, counters included.
    let (jobs, end) = diurnal_workload();
    let quality = ExpQuality::new(0.003);
    let cfg = sim_cfg(&quality, end);
    let plan = FaultPlan::seeded(4, SimTime::from_secs(end), 99, 3.0, 1.0, 0.5);
    let overload = OverloadPolicy {
        admission: AdmissionPolicy::SlackFloor {
            floor: 0.05,
            capacity_ghz: CORES as f64 * 2.5,
        },
        retry: RetryPolicy::exponential(3, SimDuration::from_millis(5)),
        hedge: HedgePolicy::SlackFraction { fraction: 0.5 },
    };
    let run_with = |threads: usize| {
        rayon::with_threads(threads, || {
            ClusterEngine::new(4)
                .with_routing(RoutingPolicy::Feedback)
                .with_fault_plan(plan.clone())
                .with_overload(overload.clone())
                .run(&cfg, &jobs, |_| Box::new(DesPolicy::new()))
        })
    };
    let lane1 = run_with(1);
    let lane4 = run_with(4);
    assert_reports_bitwise(&lane1.merged, &lane4.merged, "merged");
    for (a, b) in lane1.shards.iter().zip(lane4.shards.iter()) {
        assert_reports_bitwise(&a.report, &b.report, &format!("shard {}", a.shard));
    }
    {
        let (a, b) = (&lane1, &lane4);
        assert_eq!(a.jobs_dropped, b.jobs_dropped);
        assert_eq!(a.jobs_retried, b.jobs_retried);
        assert_eq!(a.jobs_rejected, b.jobs_rejected);
        assert_eq!(a.jobs_hedged, b.jobs_hedged);
        assert_eq!(a.hedges_won, b.hedges_won);
        assert_eq!(
            a.rejected_max_quality.to_bits(),
            b.rejected_max_quality.to_bits()
        );
        assert_eq!(
            a.dropped_max_quality.to_bits(),
            b.dropped_max_quality.to_bits()
        );
    }
    // Run-to-run reproducibility at the same lane count.
    let again = run_with(4);
    assert_reports_bitwise(&lane4.merged, &again.merged, "repeat");
    assert_eq!(lane4.jobs_rejected, again.jobs_rejected);
    assert_eq!(lane4.jobs_hedged, again.jobs_hedged);
    assert_eq!(lane4.hedges_won, again.hedges_won);
    // Conservation with every mechanism live: delivered + dropped +
    // rejected = arrivals (hedge duels settle first-wins, so they never
    // double-count).
    assert_eq!(
        lane4.merged.jobs_total() as u64 + lane4.jobs_dropped + lane4.jobs_rejected,
        jobs.len() as u64
    );
}

#[test]
fn overload_hedging_settles_duels_first_wins_and_conserves() {
    let (jobs, end) = diurnal_workload();
    let quality = ExpQuality::new(0.003);
    let cfg = sim_cfg(&quality, end);
    let plain = ClusterEngine::new(4)
        .with_routing(RoutingPolicy::Jsq)
        .run(&cfg, &jobs, |_| Box::new(DesPolicy::new()));
    let hedged = ClusterEngine::new(4)
        .with_routing(RoutingPolicy::Jsq)
        .with_overload(OverloadPolicy {
            hedge: HedgePolicy::SlackFraction { fraction: 0.25 },
            ..OverloadPolicy::default()
        })
        .run(&cfg, &jobs, |_| Box::new(DesPolicy::new()));

    assert!(hedged.jobs_hedged > 0, "no hedge fired on a loaded run");
    assert!(hedged.hedges_won <= hedged.jobs_hedged);
    // First-wins dedup: every arrival is delivered exactly once even
    // though duelling copies were simulated twice.
    assert_eq!(plain.merged.jobs_total(), jobs.len());
    assert_eq!(hedged.merged.jobs_total(), jobs.len());
    // The loser copies' work is real: hedging can only add energy.
    assert!(
        hedged.merged.energy_joules >= plain.merged.energy_joules,
        "hedging lowered energy: {} < {}",
        hedged.merged.energy_joules,
        plain.merged.energy_joules
    );
    // The delivered job population is identical, so the max-quality
    // mass must agree up to summation order.
    let rel = (hedged.merged.max_quality - plain.merged.max_quality).abs()
        / plain.merged.max_quality.max(1.0);
    assert!(rel < 1e-9, "max-quality mass drifted by {rel}");
    let dq = hedged.degraded_quality();
    assert!((0.0..=1.0).contains(&dq), "degraded quality {dq}");
    // Exact values of the first-wins merge: each duel's loser leaves
    // total quality, max-quality mass and the count of the class its
    // engine settled it in.
    assert_eq!(hedged.merged.total_quality.to_bits(), 0x408a4572a3d9f22b);
    assert_eq!(hedged.merged.max_quality.to_bits(), 0x409073ed8b1fd959);
    assert_eq!(
        (
            hedged.merged.jobs_satisfied(),
            hedged.merged.jobs_partial(),
            hedged.merged.jobs_zero()
        ),
        (834, 1526, 0)
    );
    assert_eq!((hedged.jobs_hedged, hedged.hedges_won), (2360, 590));
}

#[test]
fn overload_admission_rejection_is_a_class_distinct_from_drops() {
    let (jobs, end) = diurnal_workload();
    let quality = ExpQuality::new(0.003);
    let cfg = sim_cfg(&quality, end);
    let rep = ClusterEngine::new(4)
        .with_routing(RoutingPolicy::Feedback)
        .with_overload(OverloadPolicy {
            admission: AdmissionPolicy::Backpressure {
                cap: 300.0,
                resume: 150.0,
            },
            ..OverloadPolicy::default()
        })
        .run(&cfg, &jobs, |_| Box::new(DesPolicy::new()));
    assert!(rep.jobs_rejected > 0, "backpressure never tripped");
    assert_eq!(rep.jobs_dropped, 0, "rejects must not masquerade as drops");
    assert_eq!(
        rep.merged.jobs_total() as u64 + rep.jobs_rejected,
        jobs.len() as u64,
        "conservation with rejection"
    );
    assert!(rep.rejected_max_quality > 0.0);
    // Rejection widens the degraded-quality denominator; it can never
    // *raise* the delivered-quality ratio above the simulated one.
    assert!(rep.degraded_quality() <= rep.merged.normalized_quality());
    assert!(rep.degraded_quality().is_finite());
}

#[test]
fn overload_zero_arrival_run_has_nan_free_degraded_quality() {
    // Regression for the zero-arrival guard: an empty stream must
    // produce a clean report (degraded quality 1.0, not 0/0 = NaN) on
    // both the plain and the admission-screened paths.
    let quality = ExpQuality::new(0.003);
    let cfg = sim_cfg(&quality, 2);
    let jobs = JobSet::new(Vec::new()).unwrap();
    for engine in [
        ClusterEngine::new(3),
        ClusterEngine::new(3).with_overload(OverloadPolicy {
            admission: AdmissionPolicy::Backpressure {
                cap: 1.0,
                resume: 0.5,
            },
            ..OverloadPolicy::default()
        }),
    ] {
        let rep = engine.run(&cfg, &jobs, |_| Box::new(DesPolicy::new()));
        assert_eq!(rep.merged.jobs_total(), 0);
        let dq = rep.degraded_quality();
        assert!(dq.is_finite(), "degraded quality must be NaN-free");
        assert_eq!(dq, 1.0);
        assert_eq!(rep.jobs_rejected, 0);
    }
}

#[test]
fn overload_retry_on_crash_boundary_respects_tie_order() {
    // Retry re-releases landing exactly on crash boundaries, end to
    // end: shard 0's crash ends at exactly 45 ms and shard 1's crash
    // *starts* at exactly 45 ms — the instant job 0's retry fires.
    // Half-open windows make shard 0 eligible again and shard 1
    // ineligible at that instant, and the crash event processes before
    // the simultaneous retry (tie order crash → retry), stranding
    // shard 1's job before the retry routes.
    let jobs = JobSet::new(vec![
        Job::new(0, SimTime::ZERO, SimTime::from_millis(150), 100.0).unwrap(),
        Job::new(1, SimTime::from_millis(5), SimTime::from_millis(155), 100.0).unwrap(),
    ])
    .unwrap();
    let plan = FaultPlan::none(2)
        .with_window(
            0,
            FaultWindow {
                start: SimTime::from_millis(40),
                end: SimTime::from_millis(45),
                kind: FaultKind::Crash,
            },
        )
        .with_window(
            1,
            FaultWindow {
                start: SimTime::from_millis(45),
                end: SimTime::from_millis(70),
                kind: FaultKind::Crash,
            },
        );
    let d = dispatch_retrying(
        &jobs,
        2,
        &RoutingPolicy::RoundRobin,
        &plan,
        flat_retry(5),
        SimTime::from_secs(1),
    );
    // Round-robin: job 0 -> shard 0, job 1 -> shard 1. Both strand.
    assert_eq!(d.assignment, vec![0, 1]);
    assert_eq!(d.redispatches.len(), 2);
    assert_eq!(d.retried, 2);
    assert!(d.dropped.is_empty());
    // Job 0's retry fires at exactly 45 ms: shard 1 just crashed
    // (ineligible at its half-open start), shard 0 just recovered
    // (eligible at its half-open end) -> shard 0 gets it back.
    let shard_jobs = d.shard_jobs(&jobs);
    let s0: Vec<_> = shard_jobs[0].iter().collect();
    assert!(
        s0.iter()
            .any(|j| j.id.0 == 0 && j.release == SimTime::from_millis(45)),
        "job 0's retry must land on shard 0 at the exact boundary"
    );
    // Job 1 stranded at 45 ms retries at 50 ms; shard 1 is still down,
    // so it fails over to shard 0 too.
    assert!(
        s0.iter()
            .any(|j| j.id.0 == 1 && j.release == SimTime::from_millis(50)),
        "job 1's retry must fail over to shard 0"
    );
    assert_eq!(shard_jobs[1].len(), 0);
}

#[test]
fn overload_retry_exactly_on_horizon_is_kept_one_past_is_dropped() {
    // A re-release landing exactly *on* the horizon is still routed
    // (the engine screens it like any at-horizon arrival); one
    // microsecond past the horizon it is dropped.
    let jobs = JobSet::new(vec![Job::new(
        0,
        SimTime::ZERO,
        SimTime::from_millis(150),
        100.0,
    )
    .unwrap()])
    .unwrap();
    let mk_plan = || {
        FaultPlan::none(2).with_window(
            0,
            FaultWindow {
                start: SimTime::from_millis(40),
                end: SimTime::from_millis(60),
                kind: FaultKind::Crash,
            },
        )
    };
    // Horizon exactly at the 50 ms re-release: kept.
    let kept = dispatch_retrying(
        &jobs,
        2,
        &RoutingPolicy::RoundRobin,
        &mk_plan(),
        flat_retry(10),
        SimTime::from_millis(50),
    );
    assert_eq!(kept.retried, 1);
    assert!(kept.dropped.is_empty());
    assert!(kept.shard_jobs(&jobs)[1]
        .iter()
        .any(|j| j.id.0 == 0 && j.release == SimTime::from_millis(50)));
    // Horizon one microsecond earlier: the same re-release overshoots
    // and the job is dropped instead.
    let dropped = dispatch_retrying(
        &jobs,
        2,
        &RoutingPolicy::RoundRobin,
        &mk_plan(),
        flat_retry(10),
        SimTime::from_millis(50) - SimDuration::from_micros(1),
    );
    assert_eq!(dropped.retried, 0);
    assert_eq!(dropped.dropped.len(), 1);
    assert_eq!(
        dropped
            .shard_jobs(&jobs)
            .iter()
            .map(|s| s.len())
            .sum::<usize>(),
        0
    );
}

#[test]
fn overload_retry_release_saturating_at_simtime_max_is_dropped() {
    // A crash a few microseconds before `SimTime::MAX`, with the horizon
    // at `MAX` and every deadline at `MAX`: the stranded job's re-release
    // `crash + delay` saturates to `MAX`, which is not before its
    // deadline, so it is dropped — no panic, no wraparound into the
    // past. Hedging adds a fire instant tying with the crash (the crash
    // processes first and cancels it) and two with no healthy twin.
    let before_max = |us: u64| SimTime::MAX - SimDuration::from_micros(us);
    let jobs = JobSet::new(
        [(0, 10), (1, 8), (2, 2)]
            .into_iter()
            .map(|(id, ahead)| Job::new(id, before_max(ahead), SimTime::MAX, 100.0).unwrap())
            .collect(),
    )
    .unwrap();
    let plan = FaultPlan::none(2).with_window(
        0,
        FaultWindow {
            start: before_max(5),
            end: SimTime::MAX,
            kind: FaultKind::Crash,
        },
    );
    let quality = ExpQuality::new(0.003);
    for hedge in [
        HedgePolicy::Disabled,
        HedgePolicy::SlackFraction { fraction: 0.5 },
    ] {
        let overload = OverloadPolicy {
            retry: flat_retry(10),
            hedge: hedge.clone(),
            ..OverloadPolicy::default()
        };
        let d = dispatch_protected(
            &jobs,
            2,
            &RoutingPolicy::RoundRobin,
            &MODEL,
            &quality,
            &plan,
            &overload,
            SimTime::MAX,
        );
        // Job 0 lands on shard 0 and strands; job 2 arrives during the
        // crash and fails over to shard 1.
        assert_eq!(d.assignment, vec![0, 1, 1], "{hedge:?}");
        assert_eq!(d.redispatches, vec![(before_max(5), JobId(0), 0)]);
        assert_eq!(d.retried, 0, "{hedge:?}");
        assert_eq!(d.dropped.len(), 1, "{hedge:?}");
        assert_eq!(d.dropped[0], (before_max(5), jobs.jobs()[0]));
        assert!(d.hedges.is_empty(), "{hedge:?}");
        // Conservation: routed + dropped = arrivals.
        let shard_jobs = d.shard_jobs(&jobs);
        let routed: usize = shard_jobs.iter().map(|s| s.len()).sum();
        assert_eq!(routed + d.dropped.len(), jobs.len(), "{hedge:?}");
        assert_eq!(shard_jobs[1].len(), 2, "{hedge:?}");
    }
}

#[test]
fn overload_retry_tying_with_an_arrival_processes_the_arrival_first() {
    // Tie order arrival → retry, observed through the round-robin
    // cursor: at 20 ms an original arrival and job 0's retry fire
    // simultaneously. The arrival must consume the cursor first
    // (landing on shard 0), pushing the retry to shard 1. If the order
    // flipped, the assignments would swap.
    let jobs = JobSet::new(vec![
        Job::new(0, SimTime::ZERO, SimTime::from_millis(150), 100.0).unwrap(),
        Job::new(1, SimTime::ZERO, SimTime::from_millis(150), 100.0).unwrap(),
        Job::new(2, SimTime::ZERO, SimTime::from_millis(150), 100.0).unwrap(),
        Job::new(
            3,
            SimTime::from_millis(20),
            SimTime::from_millis(170),
            100.0,
        )
        .unwrap(),
    ])
    .unwrap();
    let plan = FaultPlan::none(3).with_window(
        0,
        FaultWindow {
            start: SimTime::from_millis(10),
            end: SimTime::from_millis(15),
            kind: FaultKind::Crash,
        },
    );
    let d = dispatch_retrying(
        &jobs,
        3,
        &RoutingPolicy::RoundRobin,
        &plan,
        flat_retry(10),
        SimTime::from_secs(1),
    );
    // Originals cycle 0,1,2; the crash at 10 ms strands only job 0.
    // At 20 ms: arrival of job 3 takes the cursor (shard 0, healthy
    // again), then job 0's retry takes shard 1.
    assert_eq!(d.assignment, vec![0, 1, 2, 0]);
    assert_eq!(d.retried, 1);
    assert!(d.shard_jobs(&jobs)[1]
        .iter()
        .any(|j| j.id.0 == 0 && j.release == SimTime::from_millis(20)));
}

#[test]
fn overload_retry_tying_with_a_hedge_processes_the_retry_first() {
    // Tie order retry → hedge, observed through feedback scores: at
    // 50 ms job 0's retry (stranded by shard 0's 40-45 ms crash) and
    // job 1's hedge fire simultaneously (job 0's own hedge, due then
    // too, is cancelled with its stranded primary). Shards 0 and 2 are
    // empty, so whichever goes first takes shard 0 and pushes the other
    // to shard 2. The retry must go first.
    let jobs = JobSet::new(vec![
        Job::new(0, SimTime::ZERO, SimTime::from_millis(100), 100.0).unwrap(),
        Job::new(1, SimTime::ZERO, SimTime::from_millis(100), 50.0).unwrap(),
    ])
    .unwrap();
    let plan = FaultPlan::none(3).with_window(
        0,
        FaultWindow {
            start: SimTime::from_millis(40),
            end: SimTime::from_millis(45),
            kind: FaultKind::Crash,
        },
    );
    let overload = OverloadPolicy {
        retry: flat_retry(10),
        hedge: HedgePolicy::SlackFraction { fraction: 0.5 },
        ..OverloadPolicy::default()
    };
    let quality = ExpQuality::new(0.003);
    let d = dispatch_protected(
        &jobs,
        3,
        &RoutingPolicy::Feedback,
        &MODEL,
        &quality,
        &plan,
        &overload,
        SimTime::from_secs(1),
    );
    let at = SimTime::from_millis(50);
    assert_eq!(d.assignment, vec![0, 1]);
    assert_eq!(d.retried, 1);
    assert!(d.shard_jobs(&jobs)[0]
        .iter()
        .any(|j| j.id.0 == 0 && j.release == at));
    assert_eq!(d.hedges.len(), 1);
    let h = d.hedges[0];
    assert_eq!((h.fired_at(jobs.jobs(), &overload.hedge), h.to), (at, 2));
}

#[test]
fn least_energy_routing_conserves_and_differs_from_round_robin() {
    // Sanity on the power-aware route: still a partition of the stream,
    // and under bursty diurnal load it must actually exercise its probe
    // (different decisions than blind round-robin).
    let (jobs, _) = diurnal_workload();
    let shards = 4;
    let le = dispatch(
        &jobs,
        shards,
        &RoutingPolicy::LeastEnergy,
        &FaultPlan::none(shards),
        SimTime::MAX,
    )
    .assignment;
    assert_eq!(le.len(), jobs.len());
    assert!(le.iter().all(|&s| (s as usize) < shards));
    let rr = dispatch(
        &jobs,
        shards,
        &RoutingPolicy::RoundRobin,
        &FaultPlan::none(shards),
        SimTime::MAX,
    )
    .assignment;
    assert_ne!(le, rr, "least-energy degenerated to round-robin");
}
