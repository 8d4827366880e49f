//! Cluster overload study (extension; not a paper figure).
//!
//! The `cluster_faults` figure stresses the cluster by taking capacity away;
//! this one stresses it by offering more load than the shards can
//! serve. The shards run the FCFS baseline — a backend that does *not*
//! triage — over an all-or-nothing stream (`partial_fraction = 0`).
//! That is the classic regime where front-end admission control pays:
//! under sustained overload FCFS serves arrivals in order, every job
//! starts late, and partial service on a job that then misses its
//! deadline earns zero quality while still burning energy. (The
//! paper's DES scheduler triages internally — it abandons hopeless
//! jobs with full knowledge of remaining work — so an open DES system
//! degrades gracefully on its own and front-end shedding, which prices
//! jobs at full demand, cannot beat it. Admission control is the
//! defense for backends without that luxury.)
//!
//! The experiment sweeps an offered-load multiplier × the front end's
//! [`AdmissionPolicy`] variants on a 4-shard cluster and reports
//! *degraded* quality ([`qes_cluster::ClusterReport::degraded_quality`]):
//! earned quality over the maximum a cluster admitting everything could
//! have earned, with dropped *and rejected* jobs counting against the
//! maximum — so turning arrivals away cannot inflate the score, and an
//! admission policy only wins if the jobs it keeps actually finish.

use qes_cluster::{AdmissionPolicy, ClusterEngine, OverloadPolicy, RoutingPolicy};
use qes_core::power::PowerModel;
use qes_core::quality::ExpQuality;
use qes_core::time::{SimDuration, SimTime};
use qes_sim::engine::SimConfig;
use qes_workload::DiurnalWorkload;

use crate::config::{ExperimentConfig, PolicyKind};
use crate::figures::FigOptions;
use crate::report::FigureReport;

const SHARDS: usize = 4;

/// Offered-load multipliers applied to the healthy ~0.9-utilization
/// base rate: nominal, 2x and 3x overload.
const LOAD_MULTS: [f64; 3] = [1.0, 2.0, 3.0];

/// Admission policies compared, in row order. `capacity_ghz` is the
/// shard's sustainable aggregate speed under its power budget (no
/// scheduler can run faster on average), so the slack-floor probe
/// prices arrivals against what the machine can actually deliver.
fn admissions(capacity_ghz: f64) -> [AdmissionPolicy; 3] {
    // The front end prices in-flight jobs at *full* demand (it cannot
    // see how far the shard has served them), so a job mid-flight
    // counts roughly twice its remaining work on average. Give the
    // probe 2x headroom so pricing tracks remaining backlog rather
    // than double-counting served cycles.
    let probe_ghz = 2.0 * capacity_ghz;
    // In-flight (full-demand) backlog a shard can clear within one
    // 150 ms deadline: probe GHz × 150 ms of GHz·ms demand units.
    let clearable = probe_ghz * 150.0;
    [
        AdmissionPolicy::AcceptAll,
        AdmissionPolicy::SlackFloor {
            floor: 0.5,
            capacity_ghz: probe_ghz,
        },
        AdmissionPolicy::Backpressure {
            cap: clearable,
            resume: 0.5 * clearable,
        },
    ]
}

/// Run the overload sweep: offered-load multipliers × admission
/// policies over per-multiplier diurnal streams on a 4-shard cluster.
/// Multiplier 1 with [`AdmissionPolicy::AcceptAll`] reproduces the
/// healthy open-system path.
pub fn run(opt: &FigOptions) -> Vec<FigureReport> {
    let horizon_secs = if opt.full { 600.0 } else { 45.0 };
    let horizon = SimTime::from_secs_f64(horizon_secs);
    let machine = ExperimentConfig::paper_default()
        .with_cores(8)
        .with_budget(160.0);
    // Same sizing as the fault figure: ~0.9 mean utilization across 4
    // shards at multiplier 1, so 2x offered load is real overload.
    let base = 300.0;
    // Sustainable per-shard speed: every core at the speed the per-core
    // power budget allows (P = 5·s² at 20 W/core ⇒ 2 GHz ⇒ 16 GHz/shard).
    let capacity_ghz = machine.num_cores as f64
        * machine
            .power
            .speed_for_dynamic_power(machine.budget / machine.num_cores as f64);

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
        "cluster_overload",
        &format!(
            "Overload on a {SHARDS}-shard FCFS cluster: degraded quality \
             vs offered load × admission policy (all-or-nothing jobs, \
             base {base} req/s)"
        ),
        vec![
            "load_mult".into(),
            "admission_index".into(),
            "quality".into(),
            "energy".into(),
            "rejected".into(),
            "dropped".into(),
            "jobs_offered".into(),
        ],
    );
    for (ai, adm) in admissions(capacity_ghz).iter().enumerate() {
        f.note(format!("admission {ai} = {}", adm.label()));
    }
    f.note(format!(
        "load_mult scales the diurnal base rate ({base} req/s ≈ 0.9 \
         utilization); quality is degraded-mode (rejected and dropped \
         jobs count against the maximum); slack-floor prices against \
         {capacity_ghz:.1} GHz sustainable per shard"
    ));

    let top_mult = LOAD_MULTS[LOAD_MULTS.len() - 1];
    let mut top_quality = [None; 3];
    for &mult in &LOAD_MULTS {
        let jobs = DiurnalWorkload::new(base * mult, 0.5 * base * mult, horizon_secs / 2.0)
            .with_horizon(horizon)
            .with_partial_fraction(0.0)
            .generate(opt.seed)
            .expect("agreeable by construction");
        for (ai, adm) in admissions(capacity_ghz).iter().enumerate() {
            let engine = ClusterEngine::new(SHARDS)
                .with_routing(RoutingPolicy::Feedback)
                .with_overload(OverloadPolicy {
                    admission: adm.clone(),
                    ..OverloadPolicy::default()
                });
            let rep = engine.run(&cfg, &jobs, |_| PolicyKind::Fcfs.build(&machine.power));
            assert_eq!(
                rep.merged.jobs_total() as u64 + rep.jobs_dropped + rep.jobs_rejected,
                jobs.len() as u64,
                "jobs conserved under admission control"
            );
            f.push_row(vec![
                mult,
                ai as f64,
                rep.degraded_quality(),
                rep.merged.energy_joules,
                rep.jobs_rejected as f64,
                rep.jobs_dropped as f64,
                jobs.len() as f64,
            ]);
            if mult == top_mult {
                top_quality[ai] = Some(rep.degraded_quality());
            }
        }
    }
    if let [Some(open), Some(slack), Some(bp)] = top_quality {
        f.note(format!(
            "at {top_mult}x offered load: accept-all delivers {open:.4} degraded \
             quality vs slack-floor {slack:.4} and backpressure {bp:.4} — \
             shedding hopeless arrivals early keeps capacity for jobs that \
             can still finish"
        ));
    }
    vec![f]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overload_figure_covers_the_grid_and_accept_all_never_rejects() {
        let opt = FigOptions {
            full: false,
            seed: 11,
        };
        let f = &run(&opt)[0];
        // 3 load multipliers × 3 admission policies.
        assert_eq!(f.rows.len(), 9);
        let adm = f.column_values("admission_index").unwrap();
        let q = f.column_values("quality").unwrap();
        let rejected = f.column_values("rejected").unwrap();
        assert!(q.iter().all(|&v| (0.0..=1.0 + 1e-9).contains(&v)));
        for i in 0..f.rows.len() {
            if adm[i] == 0.0 {
                assert_eq!(rejected[i], 0.0, "accept-all rejected a job (row {i})");
            }
        }
        // The active policies must actually turn arrivals away somewhere
        // on the grid — otherwise the sweep never exercises admission.
        let shed: f64 = rejected.iter().sum();
        assert!(shed > 0.0, "no admission policy ever rejected a job");
    }

    #[test]
    fn admission_beats_accept_all_at_two_x_overload() {
        // The ISSUE acceptance bar: at ≥2x offered load both active
        // policies must retain strictly more delivered quality than the
        // open system, with the default figure seed.
        let f = &run(&FigOptions::default())[0];
        let mult = f.column_values("load_mult").unwrap();
        let adm = f.column_values("admission_index").unwrap();
        let q = f.column_values("quality").unwrap();
        for &m in &[2.0, 3.0] {
            let at = |a: f64| {
                (0..f.rows.len())
                    .find(|&i| mult[i] == m && adm[i] == a)
                    .map(|i| q[i])
                    .unwrap()
            };
            let (open, slack, bp) = (at(0.0), at(1.0), at(2.0));
            assert!(
                slack > open,
                "slack-floor {slack} ≤ accept-all {open} at {m}x"
            );
            assert!(bp > open, "backpressure {bp} ≤ accept-all {open} at {m}x");
        }
    }

    #[test]
    fn overload_figure_is_deterministic_per_seed() {
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
