//! Tail-quality study (extension; not a paper figure).
//!
//! The paper reports *total* quality; a service operator also cares about
//! the tail — how badly the worst-served requests fare. Concavity implies
//! equal sharing lifts the tail: DES's d-mean equalization should show a
//! markedly better p5/p25 per-job quality than the one-job-at-a-time
//! baselines, whose losers get nothing at all.

use std::collections::HashMap;

use rayon::prelude::*;

use qes_core::job::JobId;
use qes_core::obs::{Event, Observer};
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
    let demand: HashMap<JobId, f64> = jobs.iter().map(|j| (j.id, j.demand)).collect();

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
                record_trace: true,
                overhead: SimDuration::ZERO,
            };
            let mut policy = k.build(&cfg.power);
            let mut completions = Completions {
                demand: &demand,
                fractions: Vec::new(),
            };
            let (_, trace) =
                Simulator::run_observed(&sim_cfg, policy.as_mut(), &jobs, &mut completions);
            let qs = quantiles(completions.fractions, &[0.05, 0.25, 0.50, 0.75, 0.95])
                .unwrap_or_else(|| vec![0.0; 5]);
            // Per-core busy fraction of the horizon, from whole-µs sums.
            let horizon = sim_cfg.end.as_micros().max(1) as f64;
            let util: Vec<f64> = trace
                .busy_micros(cfg.num_cores)
                .iter()
                .map(|&b| b as f64 / horizon)
                .collect();
            let lo = util.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = util.iter().copied().fold(0.0, f64::max);
            let spread = hi - lo;
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

/// Collects every settled job's completion fraction (processed volume
/// over demand, capped at 1; 1 for a zero-demand job) from the engine's
/// settle events.
struct Completions<'a> {
    demand: &'a HashMap<JobId, f64>,
    fractions: Vec<f64>,
}

impl Observer for Completions<'_> {
    const ENABLED: bool = true;

    fn record(&mut self, _: SimTime, event: Event) {
        if let Event::JobSettle { job, processed, .. } = event {
            let demand = self.demand[&job];
            self.fractions.push(if demand > 0.0 {
                (processed / demand).min(1.0)
            } else {
                1.0
            });
        }
    }
}

/// Every `p`-quantile (`0 ≤ p ≤ 1`, clamped) of `values`, by linear
/// interpolation after one sort; `None` when there are no values.
///
/// A quantile landing on a sample, or between two bitwise-equal
/// neighbours, returns that sample bit for bit. Interpolating a value
/// with itself is not the identity in f64: `inf + 0.0 * (inf - inf)` is
/// NaN and `-0.0 + 0.0 * 0.0` is `+0.0`.
pub fn quantiles(mut values: Vec<f64>, ps: &[f64]) -> Option<Vec<f64>> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let v = &values;
    let at = |p: f64| {
        let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        if lo == hi || frac == 0.0 || v[lo].to_bits() == v[hi].to_bits() {
            v[lo]
        } else {
            v[lo] + frac * (v[hi] - v[lo])
        }
    };
    Some(ps.iter().map(|&p| at(p)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let q = quantiles(vec![0.9, 0.1, 0.5], &[0.0, 0.25, 0.5, 1.0]).unwrap();
        assert_eq!(q[0], 0.1);
        assert!((q[1] - 0.3).abs() < 1e-12);
        assert_eq!(q[2], 0.5);
        assert_eq!(q[3], 0.9);
        assert!(quantiles(Vec::new(), &[0.5]).is_none());
        assert!(quantiles(vec![1.0], &[]).unwrap().is_empty());
    }

    #[test]
    fn degenerate_populations_return_the_sample_bitwise() {
        let ps = [0.0, 0.1, 0.25, 0.37, 0.5, 0.75, 0.99, 1.0];
        // n = 1 and all-equal populations, including ones where naive
        // interpolation would produce NaN (inf - inf) or flip the sign
        // of zero.
        for &x in &[0.0, -0.0, 1.5, 7.25, f64::INFINITY, f64::NEG_INFINITY] {
            for n in [1, 5] {
                for q in quantiles(vec![x; n], &ps).unwrap() {
                    assert_eq!(q.to_bits(), x.to_bits(), "n={n}, x={x}");
                }
            }
        }
        // A quantile landing between two equal neighbours returns that
        // value exactly (pos = 1.5, between the 2.0s).
        let q = quantiles(vec![1.0, 2.0, 2.0, 3.0], &[0.5]).unwrap();
        assert_eq!(q[0].to_bits(), 2.0f64.to_bits());
    }

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
