//! The parallel-execution determinism contract (DESIGN.md §"Parallel
//! execution and determinism").
//!
//! Every evaluation artifact in the repo — figure sweeps, the scorecard,
//! golden traces, EXPERIMENTS.md numbers — is produced through the
//! rayon shim's parallel iterators. The contract is that thread count is
//! *unobservable* in the results: the rate sweep every figure runs
//! ([`measure`]) under `QES_THREADS=1` and the same sweep fanned out
//! across a pool must produce bitwise-equal ⟨quality, energy⟩ per point.
//! `rayon::with_threads(1|n)` drives the exact code paths the environment
//! variable selects, so the equality is checked in-process here; CI
//! additionally diffs the CSVs of two whole figure runs byte-for-byte
//! across processes.

use qes_experiments::config::{ExperimentConfig, PolicyKind};
use qes_experiments::figures::common::{measure, PanelData, Series};

const KINDS: [PolicyKind; 4] = [
    PolicyKind::Des,
    PolicyKind::Fcfs,
    PolicyKind::FcfsWf,
    PolicyKind::Sjf,
];
const RATES: [f64; 5] = [40.0, 80.0, 120.0, 160.0, 200.0];

fn run_sweep_with_threads(threads: usize) -> PanelData {
    let base = ExperimentConfig::quick().with_sim_seconds(5.0);
    let series: Vec<Series> = KINDS
        .iter()
        .map(|&kind| Series::new(format!("{kind:?}"), base.clone(), kind))
        .collect();
    rayon::with_threads(threads, || measure(&series, &RATES, 42))
}

/// `(quality, energy)` of every ⟨series, rate⟩ point as raw bits —
/// bitwise, not approximate, equality is the contract.
fn bits(d: &PanelData) -> Vec<Vec<(u64, u64)>> {
    d.quality
        .iter()
        .zip(&d.energy)
        .map(|(q, e)| {
            q.iter()
                .zip(e)
                .map(|(q, e)| (q.to_bits(), e.to_bits()))
                .collect()
        })
        .collect()
}

#[test]
fn sequential_and_parallel_sweeps_are_bitwise_equal() {
    let seq = run_sweep_with_threads(1);
    // More lanes than points' natural chunking needs, and more than this
    // host may have cores: oversubscription must not matter either.
    let par = run_sweep_with_threads(4);

    assert_eq!(seq.quality.len(), KINDS.len());
    assert!(seq.quality.iter().all(|q| q.len() == RATES.len()));
    assert_eq!(seq.rates, par.rates);
    assert_eq!(seq.labels, par.labels);
    assert_eq!(
        bits(&seq),
        bits(&par),
        "⟨quality, energy⟩ must be bit-identical per point \
         (seq {:?} / {:?} vs par {:?} / {:?})",
        seq.quality,
        seq.energy,
        par.quality,
        par.energy,
    );
}

#[test]
fn parallel_sweep_is_reproducible_across_runs() {
    // Two parallel runs with racing chunk claims must still agree
    // bit-for-bit: scheduling is unobservable in the output.
    let a = run_sweep_with_threads(3);
    let b = run_sweep_with_threads(3);
    assert_eq!(bits(&a), bits(&b));
}
