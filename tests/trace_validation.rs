//! Every policy × several loads, validated through the library's own
//! trace checker (`qes_sim::validate_trace`): windows, non-overlap,
//! non-migration, demand caps, and the instantaneous power budget.

use qes::cluster::{ClusterEngine, ClusterReport, RoutingPolicy};
use qes::core::{ExpQuality, PolynomialPower, SimDuration, SimTime};
use qes::experiments::{run_policy_traced, ExperimentConfig, PolicyKind};
use qes::multicore::{DesPolicy, SchedulingPolicy};
use qes::sim::{validate_trace, SimConfig, Simulator};

const ALL_POLICIES: [PolicyKind; 10] = [
    PolicyKind::Des,
    PolicyKind::DesSDvfs,
    PolicyKind::DesNoDvfs,
    PolicyKind::DesDiscrete,
    PolicyKind::Fcfs,
    PolicyKind::Ljf,
    PolicyKind::Sjf,
    PolicyKind::FcfsWf,
    PolicyKind::LjfWf,
    PolicyKind::SjfWf,
];

#[test]
fn every_policy_trace_validates_under_light_and_heavy_load() {
    let model = PolynomialPower::PAPER_SIM;
    for rate in [90.0, 230.0] {
        let cfg = ExperimentConfig::paper_default()
            .with_arrival_rate(rate)
            .with_sim_seconds(6.0);
        let jobs = cfg.workload().generate(47).unwrap();
        for kind in ALL_POLICIES {
            let (_, trace) = run_policy_traced(&cfg, kind, 47);
            let summary = validate_trace(
                &trace,
                &jobs,
                cfg.num_cores,
                &model,
                cfg.budget,
                0.25, // µs-quantization slack on volumes
                1e-3, // float slack on power
            )
            .unwrap_or_else(|e| panic!("{kind:?} at {rate} req/s: {e}"));
            assert!(summary.slices > 0, "{kind:?}: empty trace");
            assert!(summary.jobs_executed > 0, "{kind:?}");
            assert!(
                summary.peak_power <= cfg.budget + 1e-3,
                "{kind:?}: peak {}",
                summary.peak_power
            );
        }
    }
}

#[test]
fn des_peak_power_approaches_budget_under_overload() {
    // Under overload the scheduler should actually *use* the budget.
    let model = PolynomialPower::PAPER_SIM;
    let cfg = ExperimentConfig::paper_default()
        .with_arrival_rate(240.0)
        .with_sim_seconds(6.0);
    let jobs = cfg.workload().generate(3).unwrap();
    let (_, trace) = run_policy_traced(&cfg, PolicyKind::Des, 3);
    let summary =
        validate_trace(&trace, &jobs, cfg.num_cores, &model, cfg.budget, 0.25, 1e-3).unwrap();
    assert!(
        summary.peak_power > 0.95 * cfg.budget,
        "peak {} should approach the {} W budget",
        summary.peak_power,
        cfg.budget
    );
}

/// Golden ⟨quality, energy⟩ for `tests/data/golden_websearch.csv` under
/// DES/C-DVFS at 8 cores / 160 W (overloaded: exercises WF squeezing,
/// Online-QE discards, and grouped triggers). Captured from a blessed
/// run; any drift means the scheduler's numerical behaviour changed. To
/// re-bless after an *intentional* change, run
/// `cargo test golden -- --nocapture` and copy the printed actuals.
const GOLDEN_QUALITY: f64 = 1.047_933_375_054_220_9e2;
const GOLDEN_MAX_QUALITY: f64 = 1.911_682_218_481_366_5e2;
const GOLDEN_ENERGY: f64 = 4.708_594_736_660_488_7e2;
const GOLDEN_COUNTS: (usize, usize, usize, usize, u64) = (163, 151, 110, 159, 149);

#[test]
fn golden_websearch_trace_regression() {
    let csv = include_str!("data/golden_websearch.csv");
    let jobs = qes::workload::from_csv(csv).expect("golden trace parses");
    assert_eq!(jobs.len(), 424);

    let model = PolynomialPower::PAPER_SIM;
    let quality = ExpQuality::new(0.003);
    let cfg = SimConfig {
        num_cores: 8,
        budget: 160.0,
        model: &model,
        quality: &quality,
        end: SimTime::from_secs(5),
        record_trace: false,
        overhead: SimDuration::ZERO,
    };
    let mut policy = DesPolicy::new();
    let (r, _) = Simulator::run(&cfg, &mut policy, &jobs);

    println!(
        "golden actuals: quality {:.17e} max {:.17e} energy {:.17e} counts ({}, {}, {}, {}, {})",
        r.total_quality,
        r.max_quality,
        r.energy_joules,
        r.jobs_satisfied(),
        r.jobs_partial(),
        r.jobs_zero(),
        r.jobs_discarded(),
        r.invocations()
    );
    let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-12);
    assert!(
        rel(r.total_quality, GOLDEN_QUALITY) < 1e-6,
        "quality drifted: {} vs golden {}",
        r.total_quality,
        GOLDEN_QUALITY
    );
    assert!(
        rel(r.max_quality, GOLDEN_MAX_QUALITY) < 1e-6,
        "max quality drifted: {} vs golden {}",
        r.max_quality,
        GOLDEN_MAX_QUALITY
    );
    assert!(
        rel(r.energy_joules, GOLDEN_ENERGY) < 1e-6,
        "energy drifted: {} vs golden {}",
        r.energy_joules,
        GOLDEN_ENERGY
    );
    assert_eq!(
        (
            r.jobs_satisfied(),
            r.jobs_partial(),
            r.jobs_zero(),
            r.jobs_discarded(),
            r.invocations()
        ),
        GOLDEN_COUNTS,
        "job outcome counters drifted"
    );
}

// ---------------------------------------------------------------------
// Golden cluster trace: the committed diurnal stream
// `tests/data/golden_cluster.csv` routed across 4 shards by JSQ, each
// shard an 8-core / 160 W DES machine. Pins the whole dispatch layer —
// routing decisions, shard fan-out, report merge — against a blessed
// run. To re-bless after an *intentional* change, run
// `cargo test golden_cluster -- --ignored --nocapture` (regenerates the
// CSV and prints the actuals) and copy them here.
// ---------------------------------------------------------------------

/// Blessed merged aggregates (rel 1e-6) and exact counters for the
/// golden cluster run.
const GOLDEN_CLUSTER_QUALITY: f64 = 3.860_506_484_907_951e2;
const GOLDEN_CLUSTER_MAX_QUALITY: f64 = 4.263_360_016_037_619_3e2;
const GOLDEN_CLUSTER_ENERGY: f64 = 1.536_332_475_290_671_5e3;
/// (satisfied, partial, zero, discarded, invocations) over the merge.
const GOLDEN_CLUSTER_COUNTS: (usize, usize, usize, usize, u64) = (541, 410, 0, 0, 340);
/// Exact jobs routed to each shard by JSQ, in shard order.
const GOLDEN_CLUSTER_SHARD_JOBS: [usize; 4] = [245, 240, 235, 231];

fn golden_cluster_run(jobs: &qes::core::JobSet) -> ClusterReport {
    let model = PolynomialPower::PAPER_SIM;
    let quality = ExpQuality::new(0.003);
    let cfg = SimConfig {
        num_cores: 8,
        budget: 160.0,
        model: &model,
        quality: &quality,
        end: SimTime::from_secs(4),
        record_trace: false,
        overhead: SimDuration::ZERO,
    };
    let engine = ClusterEngine::new(4).with_routing(RoutingPolicy::Jsq);
    engine.run(&cfg, jobs, |_| {
        Box::new(DesPolicy::new()) as Box<dyn SchedulingPolicy>
    })
}

#[test]
fn golden_cluster_trace_regression() {
    let csv = include_str!("data/golden_cluster.csv");
    let jobs = qes::workload::from_csv(csv).expect("golden cluster trace parses");
    let rep = golden_cluster_run(&jobs);

    println!(
        "golden cluster actuals: quality {:.17e} max {:.17e} energy {:.17e} \
         counts ({}, {}, {}, {}, {}) shard_jobs {:?}",
        rep.merged.total_quality,
        rep.merged.max_quality,
        rep.merged.energy_joules,
        rep.merged.jobs_satisfied(),
        rep.merged.jobs_partial(),
        rep.merged.jobs_zero(),
        rep.merged.jobs_discarded(),
        rep.merged.invocations(),
        rep.shards
            .iter()
            .map(|s| s.report.jobs_total())
            .collect::<Vec<_>>()
    );

    let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-12);
    assert!(
        rel(rep.merged.total_quality, GOLDEN_CLUSTER_QUALITY) < 1e-6,
        "cluster quality drifted: {} vs golden {}",
        rep.merged.total_quality,
        GOLDEN_CLUSTER_QUALITY
    );
    assert!(
        rel(rep.merged.max_quality, GOLDEN_CLUSTER_MAX_QUALITY) < 1e-6,
        "cluster max quality drifted: {} vs golden {}",
        rep.merged.max_quality,
        GOLDEN_CLUSTER_MAX_QUALITY
    );
    assert!(
        rel(rep.merged.energy_joules, GOLDEN_CLUSTER_ENERGY) < 1e-6,
        "cluster energy drifted: {} vs golden {}",
        rep.merged.energy_joules,
        GOLDEN_CLUSTER_ENERGY
    );
    assert_eq!(
        (
            rep.merged.jobs_satisfied(),
            rep.merged.jobs_partial(),
            rep.merged.jobs_zero(),
            rep.merged.jobs_discarded(),
            rep.merged.invocations()
        ),
        GOLDEN_CLUSTER_COUNTS,
        "merged outcome counters drifted"
    );
    // Routing decisions are part of the contract: the exact per-shard
    // job split must not move.
    let shard_jobs: Vec<usize> = rep.shards.iter().map(|s| s.report.jobs_total()).collect();
    assert_eq!(shard_jobs, GOLDEN_CLUSTER_SHARD_JOBS, "JSQ routing drifted");
    assert_eq!(
        shard_jobs.iter().sum::<usize>(),
        jobs.len(),
        "jobs conserved"
    );
}

/// Regenerates `tests/data/golden_cluster.csv` and prints fresh golden
/// constants. Only run to re-bless:
/// `cargo test golden_cluster_regenerate -- --ignored --nocapture`.
#[test]
#[ignore = "re-blessing tool, writes tests/data/golden_cluster.csv"]
fn golden_cluster_regenerate() {
    use qes::workload::DiurnalWorkload;
    // Bursty diurnal stream sized so peaks overload the 4-shard cluster
    // (per-shard full-speed capacity ≈ 83 req/s ⇒ cluster ≈ 333 req/s;
    // peaks reach 460 req/s) while troughs run light.
    let jobs = DiurnalWorkload::new(280.0, 180.0, 2.0)
        .with_horizon(SimTime::from_secs(3))
        .generate(9)
        .expect("agreeable by construction");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/golden_cluster.csv");
    std::fs::write(path, qes::workload::to_csv(&jobs)).expect("write golden csv");
    println!("wrote {} jobs to {path}", jobs.len());
    let rep = golden_cluster_run(&jobs);
    println!(
        "bless: QUALITY {:.17e} MAX {:.17e} ENERGY {:.17e} COUNTS ({}, {}, {}, {}, {}) SHARD_JOBS {:?}",
        rep.merged.total_quality,
        rep.merged.max_quality,
        rep.merged.energy_joules,
        rep.merged.jobs_satisfied(),
        rep.merged.jobs_partial(),
        rep.merged.jobs_zero(),
        rep.merged.jobs_discarded(),
        rep.merged.invocations(),
        rep.shards.iter().map(|s| s.report.jobs_total()).collect::<Vec<_>>()
    );
}
