//! Cluster fault-injection study (extension; not a paper figure).
//!
//! The paper's premise is graceful degradation — best-effort services
//! return partial results rather than failing — and a healthy cluster
//! never shows that. This experiment injects seeded
//! crash/brownout windows ([`FaultPlan::seeded`]) at a grid of fault
//! rates and compares routing policies on a 4-shard cluster: how much
//! response quality survives capacity loss, what the energy bill looks
//! like, and how many jobs the dispatcher had to retry or drop.
//! Quality is reported in *degraded* form
//! ([`qes_cluster::ClusterReport::degraded_quality`]): earned quality
//! over the maximum a fault-free cluster could have earned, dropped
//! jobs included, so hiding drops cannot inflate the score. Fault plans
//! are sampled before the run from the figure seed, so the CI
//! double-run CSV diff covers this figure too.

use qes_cluster::{ClusterEngine, FaultPlan, RoutingPolicy};
use qes_core::quality::ExpQuality;
use qes_core::time::{SimDuration, SimTime};
use qes_sim::engine::SimConfig;
use qes_workload::DiurnalWorkload;

use crate::config::{ExperimentConfig, PolicyKind};
use crate::figures::FigOptions;
use crate::report::FigureReport;

const SHARDS: usize = 4;

/// Routing policies compared, in row order: blind cycling, queue-aware,
/// power-aware, and the failover-aware feedback router.
fn routings() -> [RoutingPolicy; 4] {
    [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::Jsq,
        RoutingPolicy::LeastEnergy,
        RoutingPolicy::Feedback,
    ]
}

/// Mean fault events per shard per 100 s of run, the sweep axis.
const FAULT_RATES: [f64; 4] = [0.0, 2.0, 4.0, 8.0];

/// Run the fault sweep: fault rates × routing policies over one shared
/// diurnal stream on a 4-shard cluster. Rate 0 uses [`FaultPlan::none`]
/// and must reproduce the healthy path exactly.
pub fn run(opt: &FigOptions) -> Vec<FigureReport> {
    let horizon_secs = if opt.full { 600.0 } else { 45.0 };
    let horizon = SimTime::from_secs_f64(horizon_secs);
    let machine = ExperimentConfig::paper_default()
        .with_cores(8)
        .with_budget(160.0);
    // Same sizing as the healthy cluster figure: ~0.9 mean utilization
    // across 4 shards, so lost capacity actually hurts.
    let base = 300.0;
    let jobs = DiurnalWorkload::new(base, 0.5 * base, horizon_secs / 2.0)
        .with_horizon(horizon)
        .generate(opt.seed)
        .expect("agreeable by construction");

    let quality = ExpQuality::new(machine.quality_c);
    let cfg = SimConfig {
        num_cores: machine.num_cores,
        budget: machine.budget,
        model: &machine.power,
        quality: &quality,
        end: horizon,
        record_trace: false,
        overhead: SimDuration::ZERO,
    };

    let mut f = FigureReport::new(
        "cluster_faults",
        &format!(
            "Fault injection on a {SHARDS}-shard cluster ({} jobs): \
             degraded quality vs fault rate × routing",
            jobs.len()
        ),
        vec![
            "fault_rate".into(),
            "routing_index".into(),
            "quality".into(),
            "energy".into(),
            "dropped".into(),
            "retried".into(),
        ],
    );
    for (ri, routing) in routings().iter().enumerate() {
        f.note(format!("routing {ri} = {}", routing.label()));
    }
    f.note(
        "fault_rate = mean fault events per shard per 100 s \
         (half crashes, half brownouts, mean outage 3 s); \
         quality is degraded-mode (dropped jobs count against the maximum)"
            .to_string(),
    );

    let mut feedback_top = None;
    let mut rr_top = None;
    let top_rate = FAULT_RATES[FAULT_RATES.len() - 1];
    for &rate in &FAULT_RATES {
        let plan = if rate == 0.0 {
            FaultPlan::none(SHARDS)
        } else {
            // mean_up from the rate: `rate` outages per 100 s means a
            // healthy gap of 100/rate − mean_down seconds on average.
            let mean_down = 3.0;
            let mean_up = (100.0 / rate - mean_down).max(1.0);
            FaultPlan::seeded(SHARDS, horizon, opt.seed, mean_up, mean_down, 0.5)
        };
        for (ri, routing) in routings().iter().enumerate() {
            let engine = ClusterEngine::new(SHARDS)
                .with_routing(routing.clone())
                .with_fault_plan(plan.clone());
            let rep = engine.run(&cfg, &jobs, |_| PolicyKind::Des.build(&machine.power));
            assert_eq!(
                rep.merged.jobs_total() as u64 + rep.jobs_dropped,
                jobs.len() as u64,
                "jobs conserved under faults"
            );
            f.push_row(vec![
                rate,
                ri as f64,
                rep.degraded_quality(),
                rep.merged.energy_joules,
                rep.jobs_dropped as f64,
                rep.jobs_retried as f64,
            ]);
            if rate == top_rate {
                match routing {
                    RoutingPolicy::Feedback => feedback_top = Some(rep.degraded_quality()),
                    RoutingPolicy::RoundRobin => rr_top = Some(rep.degraded_quality()),
                    _ => {}
                }
            }
        }
    }
    if let (Some(fb), Some(rr)) = (feedback_top, rr_top) {
        f.note(format!(
            "at {top_rate} faults/shard/100s: feedback routing holds {fb:.4} degraded \
             quality vs round-robin {rr:.4} — health-aware dispatch sheds load \
             from degraded shards"
        ));
    }
    vec![f]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_figure_covers_the_grid_and_zero_rate_is_clean() {
        let opt = FigOptions {
            full: false,
            seed: 11,
        };
        let f = &run(&opt)[0];
        // 4 fault rates × 4 routings.
        assert_eq!(f.rows.len(), 16);
        let rate = f.column_values("fault_rate").unwrap();
        let q = f.column_values("quality").unwrap();
        let dropped = f.column_values("dropped").unwrap();
        let retried = f.column_values("retried").unwrap();
        assert!(q.iter().all(|&v| (0.0..=1.0 + 1e-9).contains(&v)));
        // Rate 0 rows: no faults, so nothing dropped or retried.
        for i in 0..f.rows.len() {
            if rate[i] == 0.0 {
                assert_eq!(dropped[i], 0.0, "row {i}");
                assert_eq!(retried[i], 0.0, "row {i}");
            }
        }
        // The top rate must actually exercise the failover path for at
        // least one routing.
        let top = FAULT_RATES[FAULT_RATES.len() - 1];
        let stress: f64 = (0..f.rows.len())
            .filter(|&i| rate[i] == top)
            .map(|i| dropped[i] + retried[i])
            .sum();
        assert!(stress > 0.0, "top fault rate never stranded a job");
    }

    #[test]
    fn fault_figure_is_deterministic_per_seed() {
        let opt = FigOptions {
            full: false,
            seed: 3,
        };
        let a = &run(&opt)[0];
        let b = &run(&opt)[0];
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            for (x, y) in ra.cells.iter().zip(&rb.cells) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
}
