//! The observability layer's core guarantee: observers are passive.
//!
//! A run with any observer attached — trace ring buffer, metrics
//! registry, or both via `Tee` — must be *bitwise identical* to the
//! untraced run on ⟨quality, energy⟩ and every integer counter. These
//! tests pin that across policies and recompute modes, and check the
//! exported artifacts (CSV trace, JSON metrics) are deterministic.

use qes::cluster::{
    AdmissionPolicy, ClusterEngine, FaultPlan, HedgePolicy, OverloadPolicy, RetryPolicy,
    RoutingPolicy,
};
use qes::core::obs::{Event, Observer, SettleOutcome, Tee};
use qes::core::{MetricsRegistry, SimDuration, TraceObserver};
use qes::experiments::{ExperimentConfig, PolicyKind};
use qes::multicore::{DesPolicy, RecomputeMode, SchedulingPolicy};
use qes::sim::{SimConfig, Simulator};

fn sim_cfg<'a>(cfg: &'a ExperimentConfig, quality: &'a qes::core::ExpQuality) -> SimConfig<'a> {
    SimConfig {
        num_cores: cfg.num_cores,
        budget: cfg.budget,
        model: &cfg.power,
        quality,
        end: qes::core::SimTime::from_secs_f64(cfg.sim_seconds),
        record_trace: false,
        overhead: qes::core::SimDuration::ZERO,
    }
}

#[test]
fn traced_run_is_bitwise_identical_to_untraced_across_policies() {
    let cfg = ExperimentConfig::quick()
        .with_sim_seconds(5.0)
        .with_arrival_rate(180.0)
        .with_cores(4)
        .with_budget(80.0);
    let jobs = cfg.workload().generate(11).unwrap();
    let quality = qes::core::ExpQuality::new(cfg.quality_c);
    let scfg = sim_cfg(&cfg, &quality);

    for kind in [
        PolicyKind::Des,
        PolicyKind::DesNoDvfs,
        PolicyKind::Fcfs,
        PolicyKind::SjfWf,
    ] {
        let mut plain_policy = kind.build(&cfg.power);
        let (plain, _) = Simulator::run(&scfg, plain_policy.as_mut(), &jobs);

        let mut traced_policy = kind.build(&cfg.power);
        let mut obs = Tee(TraceObserver::new(), MetricsRegistry::new());
        let (traced, _) = Simulator::run_observed(&scfg, traced_policy.as_mut(), &jobs, &mut obs);

        assert_eq!(
            plain.total_quality.to_bits(),
            traced.total_quality.to_bits(),
            "{kind:?}: quality bits"
        );
        assert_eq!(
            plain.energy_joules.to_bits(),
            traced.energy_joules.to_bits(),
            "{kind:?}: energy bits"
        );
        assert_eq!(
            plain.max_quality.to_bits(),
            traced.max_quality.to_bits(),
            "{kind:?}: max-quality bits"
        );
        assert_eq!(plain.counters, traced.counters, "{kind:?}: counters");
        assert!(!obs.0.is_empty(), "{kind:?}: trace captured nothing");
    }
}

#[test]
fn traced_run_is_bitwise_identical_across_recompute_modes() {
    let cfg = ExperimentConfig::quick()
        .with_sim_seconds(4.0)
        .with_arrival_rate(240.0) // overloaded: discards + WF squeezing
        .with_cores(4)
        .with_budget(60.0);
    let jobs = cfg.workload().generate(23).unwrap();
    let quality = qes::core::ExpQuality::new(cfg.quality_c);
    let scfg = sim_cfg(&cfg, &quality);

    for mode in [RecomputeMode::Full, RecomputeMode::IncrementalQe] {
        let mut p = DesPolicy::new().with_recompute(mode);
        let (plain, _) = Simulator::run(&scfg, &mut p, &jobs);
        let mut p = DesPolicy::new().with_recompute(mode);
        let mut obs = TraceObserver::new();
        let (traced, _) = Simulator::run_observed(&scfg, &mut p, &jobs, &mut obs);
        assert_eq!(
            plain.total_quality.to_bits(),
            traced.total_quality.to_bits()
        );
        assert_eq!(
            plain.energy_joules.to_bits(),
            traced.energy_joules.to_bits()
        );
        assert_eq!(plain.counters, traced.counters, "{mode:?}");
    }
}

/// Folds the engine's settle events the way the engine folds its
/// report: quality summed in event order, one count per settle class.
#[derive(Default)]
struct SettleFold {
    quality: f64,
    satisfied: usize,
    partial: usize,
    zero: usize,
    discards: usize,
}

impl Observer for SettleFold {
    const ENABLED: bool = true;

    fn record(&mut self, _: qes::core::SimTime, event: Event) {
        match event {
            Event::JobSettle {
                outcome, quality, ..
            } => {
                self.quality += quality;
                match outcome {
                    SettleOutcome::Satisfied => self.satisfied += 1,
                    SettleOutcome::Partial => self.partial += 1,
                    SettleOutcome::Zero => self.zero += 1,
                }
            }
            Event::JobDiscard { .. } => self.discards += 1,
            _ => {}
        }
    }
}

#[test]
fn registry_counters_reconcile_with_report() {
    // All-partial jobs, then all-or-nothing jobs: DES discards hopeless
    // non-partial jobs, which settle through the same event.
    for partial_fraction in [1.0, 0.0] {
        let cfg = ExperimentConfig::quick()
            .with_sim_seconds(5.0)
            .with_arrival_rate(160.0)
            .with_cores(4)
            .with_budget(80.0)
            .with_partial_fraction(partial_fraction);
        let jobs = cfg.workload().generate(5).unwrap();
        let quality = qes::core::ExpQuality::new(cfg.quality_c);
        let scfg = sim_cfg(&cfg, &quality);

        let mut p = DesPolicy::new();
        let mut reg = MetricsRegistry::new();
        let mut settles = SettleFold::default();
        let (report, _) =
            Simulator::run_observed(&scfg, &mut p, &jobs, &mut Tee(&mut reg, &mut settles));

        // Settle events carry exactly what the report accumulates.
        assert_eq!(
            settles.quality.to_bits(),
            report.total_quality.to_bits(),
            "partial fraction {partial_fraction}"
        );
        assert_eq!(
            (settles.satisfied, settles.partial, settles.zero),
            (
                report.jobs_satisfied(),
                report.jobs_partial(),
                report.jobs_zero()
            ),
            "partial fraction {partial_fraction}"
        );
        assert_eq!(settles.discards, report.counters.jobs_discarded);
        if partial_fraction == 0.0 {
            assert!(settles.discards > 0, "no non-partial job was discarded");
        }

        // Engine-observer counters agree with the always-on report counters.
        assert_eq!(reg.counter("engine.invocations"), report.invocations());
        assert_eq!(
            reg.counter("engine.invocations_kept"),
            report.invocations_kept()
        );
        assert_eq!(
            reg.counter("engine.plan.installed"),
            report.counters.plans_installed
        );
        assert_eq!(reg.counter("engine.arrivals"), report.jobs_total() as u64);
        assert_eq!(
            reg.counter("engine.settle.satisfied"),
            report.jobs_satisfied() as u64
        );
        assert_eq!(
            reg.counter("engine.settle.partial") + reg.counter("engine.settle.zero"),
            (report.jobs_partial() + report.jobs_zero()) as u64
        );
        // The DES policy drained its internal counters through the boundary.
        assert!(reg.counter("des.triggers") > 0);
        assert_eq!(
            reg.counter("des.triggers"),
            report.counters.wakeups(),
            "every policy wakeup is a DES trigger"
        );
        // Merging the report gives one registry with both namespaces, and
        // the JSON export is deterministic.
        let mut merged = reg.clone();
        report.export_metrics(&mut merged);
        assert_eq!(merged.counter("sim.invocations"), report.invocations());
        let mut again = reg.clone();
        report.export_metrics(&mut again);
        assert_eq!(merged.to_json(), again.to_json());
    }
}

#[test]
fn trace_csv_is_deterministic_and_well_formed() {
    let cfg = ExperimentConfig::quick()
        .with_sim_seconds(3.0)
        .with_arrival_rate(120.0)
        .with_cores(2)
        .with_budget(40.0);
    let jobs = cfg.workload().generate(3).unwrap();
    let quality = qes::core::ExpQuality::new(cfg.quality_c);
    let scfg = sim_cfg(&cfg, &quality);

    let run = || {
        let mut p = DesPolicy::new();
        let mut obs = TraceObserver::new();
        Simulator::run_observed(&scfg, &mut p, &jobs, &mut obs);
        obs
    };
    let a = run();
    let b = run();
    assert_eq!(a.to_csv("x"), b.to_csv("x"), "trace is not deterministic");

    // Schema: header first, every row parses back into the documented
    // four-column shape with a monotone integer timestamp.
    let csv = a.to_csv("x");
    let mut lines = csv.lines();
    assert!(lines.next().unwrap().starts_with("# trace x events="));
    assert_eq!(lines.next().unwrap(), TraceObserver::CSV_HEADER);
    let mut prev = 0u64;
    for row in lines {
        let cols: Vec<&str> = row.splitn(4, ',').collect();
        assert_eq!(cols.len(), 4, "row {row:?}");
        let t: u64 = cols[0].parse().expect("integer timestamp");
        assert!(t >= prev, "timestamps regress at {row:?}");
        prev = t;
        assert!(!cols[1].is_empty());
    }
}

#[test]
fn ring_buffer_keeps_the_tail_under_pressure() {
    let cfg = ExperimentConfig::quick()
        .with_sim_seconds(4.0)
        .with_arrival_rate(200.0)
        .with_cores(4)
        .with_budget(80.0);
    let jobs = cfg.workload().generate(9).unwrap();
    let quality = qes::core::ExpQuality::new(cfg.quality_c);
    let scfg = sim_cfg(&cfg, &quality);

    // A full-capacity reference run, then a tiny ring over the same run.
    let mut p = DesPolicy::new();
    let mut full = TraceObserver::new();
    let (ref_report, _) = Simulator::run_observed(&scfg, &mut p, &jobs, &mut full);
    assert_eq!(full.dropped(), 0, "reference run must fit the default ring");

    let mut p = DesPolicy::new();
    let mut tiny = TraceObserver::with_capacity(64);
    let (report, _) = Simulator::run_observed(&scfg, &mut p, &jobs, &mut tiny);
    assert_eq!(
        report.counters, ref_report.counters,
        "observer changed the run"
    );
    assert_eq!(tiny.len(), 64);
    assert!(tiny.dropped() > 0);
    // The survivors are exactly the tail of the full stream.
    let tail = &full.events()[full.len() - 64..];
    assert_eq!(tiny.events().as_slice(), tail);
    // Events still carry their kind after wrapping.
    assert!(tiny
        .events()
        .iter()
        .any(|(_, e)| matches!(e, Event::PolicyCounter { .. })));
}

// ---------------------------------------------------------------------
// Cluster observability: shard-tagged events, and the same passivity
// guarantee at the dispatch layer.
// ---------------------------------------------------------------------

fn cluster_fixture() -> (ExperimentConfig, qes::core::JobSet) {
    let cfg = ExperimentConfig::quick()
        .with_sim_seconds(4.0)
        .with_arrival_rate(260.0)
        .with_cores(4)
        .with_budget(80.0);
    let jobs = cfg.workload().generate(17).unwrap();
    (cfg, jobs)
}

#[test]
fn traced_cluster_run_is_bitwise_identical_to_untraced() {
    let (cfg, jobs) = cluster_fixture();
    let quality = qes::core::ExpQuality::new(cfg.quality_c);
    let scfg = sim_cfg(&cfg, &quality);
    let engine = ClusterEngine::new(4).with_routing(RoutingPolicy::Jsq);
    let make_policy = |_: usize| Box::new(DesPolicy::new()) as Box<dyn SchedulingPolicy>;

    let plain = engine.run(&scfg, &jobs, make_policy);
    let (traced, observers) =
        engine.run_observed(&scfg, &jobs, make_policy, |_| TraceObserver::new());

    assert_eq!(
        plain.merged.total_quality.to_bits(),
        traced.merged.total_quality.to_bits()
    );
    assert_eq!(
        plain.merged.energy_joules.to_bits(),
        traced.merged.energy_joules.to_bits()
    );
    assert_eq!(plain.merged.counters, traced.merged.counters);
    for (p, t) in plain.shards.iter().zip(traced.shards.iter()) {
        assert_eq!(
            p.report.total_quality.to_bits(),
            t.report.total_quality.to_bits(),
            "shard {}",
            p.shard
        );
        assert_eq!(p.report.counters, t.report.counters, "shard {}", p.shard);
    }

    // One observer per shard, each stream opening with its own
    // shard-tagged assignment event whose job count matches the shard's
    // report.
    assert_eq!(observers.len(), 4);
    for (i, (obs, run)) in observers.iter().zip(traced.shards.iter()).enumerate() {
        assert!(!obs.is_empty(), "shard {i} traced nothing");
        let (t0, first) = &obs.events()[0];
        assert_eq!(t0.as_micros(), 0, "shard {i}: assign not first");
        match first {
            Event::ShardAssign { shard, jobs } => {
                assert_eq!(*shard as usize, i);
                assert_eq!(*jobs as usize, run.report.jobs_total());
            }
            other => panic!("shard {i}: expected ShardAssign, got {other:?}"),
        }
        // Exactly one assignment event per shard stream.
        let assigns = obs
            .events()
            .iter()
            .filter(|(_, e)| matches!(e, Event::ShardAssign { .. }))
            .count();
        assert_eq!(assigns, 1, "shard {i}");
        // And the CSV carries the shard tag.
        let csv = obs.to_csv(&format!("shard{i}"));
        assert!(
            csv.contains(&format!("0,shard_assign,{i},")),
            "shard {i} csv"
        );
    }
}

#[test]
fn per_shard_registries_reconcile_with_merged_cluster_report() {
    let (cfg, jobs) = cluster_fixture();
    let quality = qes::core::ExpQuality::new(cfg.quality_c);
    let scfg = sim_cfg(&cfg, &quality);
    let engine = ClusterEngine::new(4).with_routing(RoutingPolicy::RoundRobin);

    let (rep, regs) = engine.run_observed(
        &scfg,
        &jobs,
        |_| Box::new(DesPolicy::new()) as Box<dyn SchedulingPolicy>,
        |_| MetricsRegistry::new(),
    );

    // Per-shard engine counters sum to the merged report's counters.
    let sum = |key: &str| regs.iter().map(|r| r.counter(key)).sum::<u64>();
    assert_eq!(sum("engine.arrivals"), rep.merged.jobs_total() as u64);
    assert_eq!(sum("engine.invocations"), rep.merged.invocations());
    assert_eq!(
        sum("engine.settle.satisfied"),
        rep.merged.jobs_satisfied() as u64
    );
    // Every shard folded exactly its own assignment event.
    for (i, (reg, run)) in regs.iter().zip(rep.shards.iter()).enumerate() {
        assert_eq!(reg.counter("cluster.shard.assignments"), 1, "shard {i}");
        assert_eq!(
            reg.counter("cluster.shard.jobs"),
            run.report.jobs_total() as u64,
            "shard {i}"
        );
        assert_eq!(
            reg.gauge(&format!("cluster.shard{i}.routed_jobs")),
            Some(run.report.jobs_total() as f64),
            "shard {i}"
        );
    }
    // The cluster report exports per-shard gauges into one registry that
    // reconciles with the merge.
    let mut merged_reg = MetricsRegistry::new();
    rep.export_metrics(&mut merged_reg);
    assert_eq!(
        merged_reg.counter("sim.invocations"),
        rep.merged.invocations()
    );
    let shard_jobs: f64 = (0..4)
        .map(|i| merged_reg.gauge(&format!("cluster.shard{i}.jobs")).unwrap())
        .sum();
    assert_eq!(shard_jobs as usize, rep.merged.jobs_total());
}

#[test]
fn dispatch_observer_reconciles_with_protected_cluster_report() {
    // A protected run with every dispatcher mechanism live: a seeded
    // crash/brownout plan, slack-floor admission, budgeted retries and
    // hedging. The dispatch-level observer sees one event per reject,
    // retry and hedge, in scan order, and stays passive.
    let (cfg, jobs) = cluster_fixture();
    let quality = qes::core::ExpQuality::new(cfg.quality_c);
    let scfg = sim_cfg(&cfg, &quality);
    let engine = ClusterEngine::new(4)
        .with_routing(RoutingPolicy::Feedback)
        .with_fault_plan(FaultPlan::seeded(4, scfg.end, 3, 1.0, 0.4, 0.5))
        .with_overload(OverloadPolicy {
            admission: AdmissionPolicy::SlackFloor {
                floor: 0.3,
                capacity_ghz: 4.0,
            },
            retry: RetryPolicy::exponential(3, SimDuration::from_millis(5)),
            hedge: HedgePolicy::SlackFraction { fraction: 0.5 },
        });
    let make_policy = |_: usize| Box::new(DesPolicy::new()) as Box<dyn SchedulingPolicy>;

    let plain = engine.run(&scfg, &jobs, make_policy);
    let mut obs = Tee(MetricsRegistry::new(), TraceObserver::new());
    let (observed, _) = engine.run_observed_with_dispatch(
        &scfg,
        &jobs,
        make_policy,
        |_| qes::core::NoopObserver,
        &mut obs,
    );
    let Tee(reg, trace) = obs;

    assert!(
        plain.jobs_rejected > 0 && plain.jobs_retried > 0 && plain.jobs_hedged > 0,
        "every mechanism should fire: {} rejected, {} retried, {} hedged",
        plain.jobs_rejected,
        plain.jobs_retried,
        plain.jobs_hedged
    );
    assert_eq!(
        reg.counter("cluster.admission.rejected"),
        plain.jobs_rejected
    );
    assert_eq!(reg.counter("cluster.retry"), plain.jobs_retried);
    assert_eq!(reg.counter("cluster.hedge.dispatched"), plain.jobs_hedged);

    assert_eq!(trace.dropped(), 0, "trace ring overflowed");
    let events = trace.events();
    assert_eq!(
        events.len() as u64,
        plain.jobs_rejected + plain.jobs_retried + plain.jobs_hedged
    );
    for pair in events.windows(2) {
        assert!(pair[0].0 <= pair[1].0, "time went backwards at {pair:?}");
    }

    // Passive: the observed report is bitwise the plain one.
    let (a, b) = (&plain, &observed);
    assert_eq!(
        a.merged.total_quality.to_bits(),
        b.merged.total_quality.to_bits()
    );
    assert_eq!(
        a.merged.energy_joules.to_bits(),
        b.merged.energy_joules.to_bits()
    );
    assert_eq!(
        a.merged.max_quality.to_bits(),
        b.merged.max_quality.to_bits()
    );
    assert_eq!(a.merged.counters, b.merged.counters);
    assert_eq!(
        a.degraded_quality().to_bits(),
        b.degraded_quality().to_bits()
    );
    assert_eq!(
        (a.jobs_dropped, a.jobs_retried, a.jobs_rejected),
        (b.jobs_dropped, b.jobs_retried, b.jobs_rejected)
    );
    assert_eq!((a.jobs_hedged, a.hedges_won), (b.jobs_hedged, b.hedges_won));
}
