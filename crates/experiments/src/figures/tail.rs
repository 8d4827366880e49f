//! Tail-quality study (extension; not a paper figure).
//!
//! The paper reports *total* quality; a service operator also cares about
//! the tail — how badly the worst-served requests fare. Concavity implies
//! equal sharing lifts the tail: DES's d-mean equalization should show a
//! markedly better p5/p25 per-job quality than the one-job-at-a-time
//! baselines, whose losers get nothing at all.

use rayon::prelude::*;

use qes_core::obs::NoopObserver;
use qes_core::quality::ExpQuality;
use qes_core::time::{SimDuration, SimTime};
use qes_sim::engine::{SimConfig, Simulator};

use crate::config::{ExperimentConfig, PolicyKind};
use crate::figures::FigOptions;
use crate::report::FigureReport;

/// Per-job quality quantiles per policy at one load.
pub fn run(opt: &FigOptions) -> Vec<FigureReport> {
    let rate = 180.0; // the paper's heavy-load threshold
    let cfg = ExperimentConfig::paper_default()
        .with_arrival_rate(rate)
        .with_sim_seconds(if opt.full { 600.0 } else { 30.0 });
    let kinds = [
        PolicyKind::Des,
        PolicyKind::Fcfs,
        PolicyKind::FcfsWf,
        PolicyKind::Sjf,
    ];
    let jobs = cfg.workload().generate(opt.seed).expect("valid workload");
    let quality = ExpQuality::new(cfg.quality_c);

    let rows: Vec<(usize, Vec<f64>)> = kinds
        .par_iter()
        .enumerate()
        .map(|(i, &k)| {
            let sim_cfg = SimConfig {
                num_cores: cfg.num_cores,
                budget: cfg.budget,
                model: &cfg.power,
                quality: &quality,
                end: SimTime::from_secs_f64(cfg.sim_seconds),
                record_trace: false,
                overhead: SimDuration::ZERO,
            };
            let mut policy = k.build(&cfg.power);
            let (_, _, stats) = Simulator::run_detailed_observed(
                &sim_cfg,
                policy.as_mut(),
                &jobs,
                &mut NoopObserver,
            );
            // One sort answers all five quantiles (the per-quantile
            // getters would re-sort the outcomes on every call).
            let qs: Vec<f64> = stats
                .completion_quantiles(&[0.05, 0.25, 0.50, 0.75, 0.95])
                .unwrap_or_else(|| vec![0.0; 5]);
            let spread = stats.utilization_spread();
            let mut cells = vec![i as f64];
            cells.extend(qs);
            cells.push(spread);
            (i, cells)
        })
        .collect();

    let mut f = FigureReport::new(
        "tail",
        &format!("Per-job completion quantiles at {rate} req/s (heavy load)"),
        vec![
            "policy_index".into(),
            "p05".into(),
            "p25".into(),
            "p50".into(),
            "p75".into(),
            "p95".into(),
            "util_spread".into(),
        ],
    );
    let mut sorted = rows;
    sorted.sort_by_key(|&(i, _)| i);
    for (_, cells) in &sorted {
        f.push_row(cells.clone());
    }
    for (i, k) in kinds.iter().enumerate() {
        f.note(format!("policy {i} = {}", k.name()));
    }
    f.note(
        "p05/p25: how the worst-served jobs fare — DES's d-mean equalization \
         lifts the tail; SJF zeroes it (long jobs never run). util_spread: \
         max−min per-core busy fraction (C-RR balance).",
    );
    vec![f]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn des_lifts_the_tail_over_sjf() {
        let opt = FigOptions {
            full: false,
            seed: 19,
        };
        let f = &run(&opt)[0];
        let p25 = f.column_values("p25").unwrap();
        // Row 0 = DES, row 3 = SJF.
        assert!(
            p25[0] > p25[3] + 0.1,
            "DES p25 {} should clearly beat SJF p25 {}",
            p25[0],
            p25[3]
        );
    }

    #[test]
    fn utilization_spread_is_small_for_des() {
        let opt = FigOptions {
            full: false,
            seed: 19,
        };
        let f = &run(&opt)[0];
        let spread = f.column_values("util_spread").unwrap();
        assert!(
            spread[0] < 0.2,
            "DES per-core utilization spread {}",
            spread[0]
        );
    }
}
