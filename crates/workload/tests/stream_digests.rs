//! Pins the exact job streams the figures and the benchmark generate.
//!
//! Each test folds `(id, release µs, deadline µs, demand bits, partial)`
//! of every job into one FNV-1a digest and asserts it at seed 42. Any
//! change to the RNG draw order, the thinning test, the time rounding or
//! the job stamping changes a digest.

use qes_core::job::JobSet;
use qes_core::time::SimTime;
use qes_workload::{
    BoundedPareto, ConstantRate, DemandDistribution, Deterministic, DiurnalWorkload,
    LognormalDemand, UniformDemand, WebSearchWorkload, Workload,
};

/// FNV-1a over the little-endian bytes of each job's fields.
fn digest(jobs: &JobSet) -> (usize, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for j in jobs.iter() {
        eat(&j.id.0.to_le_bytes());
        eat(&j.release.as_micros().to_le_bytes());
        eat(&j.deadline.as_micros().to_le_bytes());
        eat(&j.demand.to_bits().to_le_bytes());
        eat(&[u8::from(j.partial)]);
    }
    (jobs.len(), h)
}

#[test]
fn websearch_stream_is_pinned() {
    let jobs = WebSearchWorkload::new(120.0)
        .with_horizon(SimTime::from_secs(60))
        .with_partial_fraction(0.5)
        .generate(42)
        .unwrap();
    assert_eq!(digest(&jobs), (7170, 0x70a5413d1c1a5db4));
}

#[test]
fn diurnal_stream_is_pinned() {
    let jobs = DiurnalWorkload::new(140.0, 100.0, 30.0)
        .with_horizon(SimTime::from_secs(60))
        .generate(42)
        .unwrap();
    assert_eq!(digest(&jobs), (8352, 0xacdd451cf0febe6c));
}

#[test]
fn millions_of_users_exact_stream_is_pinned() {
    let jobs = DiurnalWorkload::millions_of_users(300.0)
        .generate_exact(20_000, 42)
        .unwrap();
    assert_eq!(digest(&jobs), (20000, 0xb7d496c90980bf3c));
}

#[test]
fn demand_shape_streams_are_pinned() {
    fn at_constant_rate(demand: impl DemandDistribution) -> (usize, u64) {
        let jobs = Workload::of(ConstantRate(170.0), demand)
            .with_horizon(SimTime::from_secs(30))
            .generate(42)
            .unwrap();
        digest(&jobs)
    }
    let got = [
        at_constant_rate(Deterministic { units: 192.0 }),
        at_constant_rate(UniformDemand::new(130.0, 254.0)),
        at_constant_rate(BoundedPareto::paper_default()),
        at_constant_rate(LognormalDemand::paper_like()),
    ];
    assert_eq!(
        got,
        [
            (4995, 0x64d526f42ee995fa),
            (4995, 0xe215352a432284b5),
            (4995, 0xbdbfe08bb41d6ff0),
            (4995, 0xc5093136d558d2e0),
        ]
    );
}
