//! Cluster sharding study (extension; not a paper figure).
//!
//! The paper's evaluation is a single 16-core machine; a front end
//! serving millions of users runs N such machines behind a dispatcher.
//! This experiment drives one diurnal arrival stream through
//! [`ClusterEngine`] at several shard counts and routing policies, each
//! shard an independent DES machine, and reports merged quality, energy
//! and per-shard balance. Everything is deterministic (routing is a
//! sequential pre-pass; shard fan-out merges in shard order), so the CI
//! double-run CSV diff covers this figure too.

use qes_cluster::{ClusterEngine, RoutingPolicy};
use qes_core::quality::ExpQuality;
use qes_core::time::{SimDuration, SimTime};
use qes_sim::engine::SimConfig;
use qes_workload::DiurnalWorkload;

use crate::config::{ExperimentConfig, PolicyKind};
use crate::figures::FigOptions;
use crate::report::FigureReport;

/// Routing policies compared, in row order.
fn routings() -> [RoutingPolicy; 4] {
    [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::Random { seed: 1 },
        RoutingPolicy::Jsq,
        RoutingPolicy::LeastEnergy,
    ]
}

/// Run the cluster sweep: shard counts × routing policies over one
/// shared diurnal stream sized for the 4-shard point (~90 % mean
/// utilization there, so fewer shards run overloaded and more run
/// light).
pub fn run(opt: &FigOptions) -> Vec<FigureReport> {
    let horizon_secs = if opt.full { 600.0 } else { 45.0 };
    let horizon = SimTime::from_secs_f64(horizon_secs);
    // Each shard machine: half the paper's server (8 cores, 160 W).
    let machine = ExperimentConfig::paper_default()
        .with_cores(8)
        .with_budget(160.0);
    // Mean rate for ~0.9 utilization across 4 shards at the nominal
    // 2 GHz: 0.9 · 4 · 8 · 2 GHz · 1000 units / 192 units ≈ 300 req/s.
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
        "cluster",
        &format!(
            "Sharded cluster ({base}±{:.0} req/s diurnal, {} jobs): routing × shard count",
            0.5 * base,
            jobs.len()
        ),
        vec![
            "shards".into(),
            "routing_index".into(),
            "quality".into(),
            "energy".into(),
            "satisfaction".into(),
            "max_shard_jobs".into(),
            "min_shard_jobs".into(),
        ],
    );
    for (ri, routing) in routings().iter().enumerate() {
        f.note(format!("routing {ri} = {}", routing.label()));
    }

    let mut jsq4 = None;
    let mut rr4 = None;
    for shards in [1usize, 2, 4] {
        for (ri, routing) in routings().iter().enumerate() {
            let engine = ClusterEngine::new(shards).with_routing(routing.clone());
            let rep = engine.run(&cfg, &jobs, |_| PolicyKind::Des.build(&machine.power));
            assert_eq!(rep.merged.jobs_total(), jobs.len(), "jobs conserved");
            f.push_row(vec![
                shards as f64,
                ri as f64,
                rep.merged.normalized_quality(),
                rep.merged.energy_joules,
                rep.merged.satisfaction_rate(),
                rep.max_shard_jobs() as f64,
                rep.min_shard_jobs() as f64,
            ]);
            if shards == 4 {
                match routing {
                    RoutingPolicy::Jsq => jsq4 = Some(rep.merged.normalized_quality()),
                    RoutingPolicy::RoundRobin => rr4 = Some(rep.merged.normalized_quality()),
                    _ => {}
                }
            }
        }
    }
    if let (Some(j), Some(r)) = (jsq4, rr4) {
        f.note(format!(
            "4 shards: JSQ sustains {j:.4} normalized quality vs round-robin {r:.4} — \
             load-aware routing absorbs the diurnal peaks"
        ));
    }
    vec![f]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_figure_rows_cover_the_grid_and_conserve_quality() {
        let opt = FigOptions {
            full: false,
            seed: 11,
        };
        let f = &run(&opt)[0];
        // 3 shard counts × 4 routings.
        assert_eq!(f.rows.len(), 12);
        let q = f.column_values("quality").unwrap();
        assert!(q.iter().all(|&v| (0.0..=1.0 + 1e-9).contains(&v)));
        // All 1-shard rows agree regardless of routing: one shard takes
        // everything, so routing cannot matter.
        let shards = f.column_values("shards").unwrap();
        let e = f.column_values("energy").unwrap();
        let one: Vec<usize> = (0..f.rows.len()).filter(|&i| shards[i] == 1.0).collect();
        for w in one.windows(2) {
            assert_eq!(q[w[0]].to_bits(), q[w[1]].to_bits());
            assert_eq!(e[w[0]].to_bits(), e[w[1]].to_bits());
        }
    }

    #[test]
    fn routing_balance_structure_at_four_shards() {
        let opt = FigOptions {
            full: false,
            seed: 2,
        };
        let f = &run(&opt)[0];
        let shards = f.column_values("shards").unwrap();
        let ri = f.column_values("routing_index").unwrap();
        let max_j = f.column_values("max_shard_jobs").unwrap();
        let min_j = f.column_values("min_shard_jobs").unwrap();
        let at4 = |routing: f64| -> (f64, f64) {
            (0..f.rows.len())
                .find(|&i| shards[i] == 4.0 && ri[i] == routing)
                .map(|i| (max_j[i], min_j[i]))
                .unwrap()
        };
        // Round-robin (index 0) splits counts exactly evenly (±1).
        let (rr_max, rr_min) = at4(0.0);
        assert!(rr_max - rr_min <= 1.0, "{rr_max} vs {rr_min}");
        // JSQ (2) ties toward shard 0 when windows are empty, so counts
        // skew low-index — but under diurnal peaks it must still engage
        // every shard.
        let (_, jsq_min) = at4(2.0);
        assert!(jsq_min > 0.0, "JSQ left a shard idle all run");
        // Least-energy (3) likewise spreads peak load across all shards.
        let (_, le_min) = at4(3.0);
        assert!(le_min > 0.0, "least-energy left a shard idle all run");
    }
}
