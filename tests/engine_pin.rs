//! Bit-for-bit pins of `Simulator::run`.
//!
//! Every [`PolicyKind`] runs one small seeded web-search stream at
//! scheduling overhead 0 and 20 ms, and the test asserts the bits of
//! `total_quality`, `energy_joules` and `max_quality` and every
//! [`SimCounters`] field against constants. The 20 ms runs clip and
//! swallow plans in the stall, so they exercise the plan end the engine
//! schedules at the end of the stall and the instant the run drains to.
//! A further No-DVFS run ends on a replaced plan's end that lies after
//! every deadline and after the horizon: the ambient draw up to that
//! instant is part of its energy.
//!
//! An engine change that reorders events, moves the final instant or
//! changes what the policies see moves one of these constants. CI also
//! runs this file under `--profile ci`, so the engine's and DES's debug
//! cross-checks see the same runs.

use qes::core::obs::{Event, Observer};
use qes::core::{ExpQuality, Job, JobSet, SimDuration, SimTime};
use qes::experiments::{ExperimentConfig, PolicyKind};
use qes::sim::{SimConfig, SimCounters, SimReport, Simulator};
use qes::workload::WebSearchWorkload;

const CORES: usize = 4;
const BUDGET: f64 = 80.0;
const END_S: u64 = 3;
const SEED: u64 = 7;

const ALL: [PolicyKind; 10] = [
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

/// `(total_quality, energy_joules, max_quality)` bits, then the
/// [`SimCounters`] fields in declaration order.
type Pin = ([u64; 3], [u64; 9]);

fn pin(r: &SimReport) -> Pin {
    let c: &SimCounters = &r.counters;
    (
        [
            r.total_quality.to_bits(),
            r.energy_joules.to_bits(),
            r.max_quality.to_bits(),
        ],
        [
            c.jobs_total as u64,
            c.jobs_satisfied as u64,
            c.jobs_partial as u64,
            c.jobs_zero as u64,
            c.jobs_discarded as u64,
            c.invocations,
            c.invocations_kept,
            c.plans_installed,
            c.plans_kept,
        ],
    )
}

/// The latest instant any event was stamped with. DES drains its policy
/// counters at the run's final instant, so for DES this is that instant.
#[derive(Default)]
struct LastInstant(SimTime);

impl Observer for LastInstant {
    const ENABLED: bool = true;

    fn record(&mut self, at: SimTime, _event: Event) {
        self.0 = self.0.max(at);
    }
}

fn stream(rate: f64) -> JobSet {
    WebSearchWorkload::new(rate)
        .with_horizon(SimTime::from_secs(END_S))
        .with_partial_fraction(0.5)
        .generate(SEED)
        .expect("valid workload")
}

fn run(
    kind: PolicyKind,
    jobs: &JobSet,
    overhead_ms: u64,
    num_cores: usize,
    budget: f64,
    end: SimTime,
) -> (SimReport, SimTime) {
    let power = ExperimentConfig::paper_default().power;
    let quality = ExpQuality::new(0.003);
    let cfg = SimConfig {
        num_cores,
        budget,
        model: &power,
        quality: &quality,
        end,
        record_trace: false,
        overhead: SimDuration::from_millis(overhead_ms),
    };
    let mut policy = kind.build(&power);
    let mut last = LastInstant::default();
    let (report, _) = Simulator::run_observed(&cfg, policy.as_mut(), jobs, &mut last);
    (report, last.0)
}

fn check(label: &str, got: &SimReport, want: &Pin) {
    let (bits, counters) = pin(got);
    assert_eq!(
        &(bits, counters),
        want,
        "{label}: engine results moved; now ([{:#018x}, {:#018x}, {:#018x}], {counters:?})",
        bits[0],
        bits[1],
        bits[2]
    );
}

/// `(policy, overhead ms, pin)` on `stream(45.0)`.
#[rustfmt::skip]
const PINS: [(PolicyKind, u64, Pin); 20] = [
    (PolicyKind::Des, 0, ([0x4044ed026de83e0b, 0x406490c4b39fa2ca, 0x404e0c84c0515349], [137, 78, 38, 21, 31, 67, 0, 202, 66])),
    (PolicyKind::Des, 20, ([0x4033022872dd5900, 0x405dcce5d5ed9fde, 0x404e0c84c0515349], [137, 2, 116, 19, 46, 69, 1, 244, 36])),
    (PolicyKind::DesSDvfs, 0, ([0x404621a484d21f24, 0x4068ea6e373351d4, 0x404e0c84c0515349], [137, 86, 32, 19, 25, 87, 0, 348, 0])),
    (PolicyKind::DesSDvfs, 20, ([0x403154fc84c1b15c, 0x406c4ed672f81208, 0x404e0c84c0515349], [137, 0, 112, 25, 59, 90, 0, 360, 0])),
    (PolicyKind::DesNoDvfs, 0, ([0x4048a51b96232687, 0x406edaeb1c432cab, 0x404e0c84c0515349], [137, 100, 22, 15, 17, 91, 0, 364, 0])),
    (PolicyKind::DesNoDvfs, 20, ([0x4031aa26b36c87fa, 0x406edaeb1c432cac, 0x404e0c84c0515349], [137, 0, 114, 23, 58, 86, 0, 344, 0])),
    (PolicyKind::DesDiscrete, 0, ([0x4043f6de7877d9cd, 0x4063f8b7ff583a54, 0x404e0c84c0515349], [137, 74, 39, 24, 37, 77, 0, 308, 0])),
    (PolicyKind::DesDiscrete, 20, ([0x4031fcc3d4cf5c11, 0x4057cce2641b328e, 0x404e0c84c0515349], [137, 1, 103, 33, 67, 93, 0, 372, 0])),
    (PolicyKind::Fcfs, 0, ([0x4041c20ac97b3c83, 0x4064b227389d5812, 0x404e0c84c0515349], [137, 65, 72, 0, 0, 137, 137, 137, 459])),
    (PolicyKind::Fcfs, 20, ([0x4030dda6d1c6c68f, 0x405ebd750fee781d, 0x404e0c84c0515349], [137, 0, 135, 2, 0, 137, 137, 137, 459])),
    (PolicyKind::Ljf, 0, ([0x404218d6969df39e, 0x40626cc53a91be1b, 0x404e0c84c0515349], [137, 68, 37, 32, 0, 105, 137, 105, 363])),
    (PolicyKind::Ljf, 20, ([0x403197c86fc440e8, 0x405dabd417064e72, 0x404e0c84c0515349], [137, 0, 101, 36, 0, 104, 135, 104, 360])),
    (PolicyKind::Sjf, 0, ([0x4040d64489ec815c, 0x405d15033b9ca1e3, 0x404e0c84c0515349], [137, 79, 29, 29, 0, 108, 137, 108, 372])),
    (PolicyKind::Sjf, 20, ([0x402d962ed6f6a49f, 0x4057108ffcc89595, 0x404e0c84c0515349], [137, 0, 102, 35, 0, 106, 137, 108, 364])),
    (PolicyKind::FcfsWf, 0, ([0x4043c0deb8345a08, 0x4067b2d3b9581339, 0x404e0c84c0515349], [137, 76, 61, 0, 0, 273, 1, 1066, 30])),
    (PolicyKind::FcfsWf, 20, ([0x40125d1f4ec02795, 0x40420f0961336f11, 0x404e0c84c0515349], [137, 0, 91, 46, 0, 204, 2, 790, 34])),
    (PolicyKind::LjfWf, 0, ([0x4043f7b853c22c1e, 0x4065599042e431b8, 0x404e0c84c0515349], [137, 79, 26, 32, 0, 241, 1, 938, 30])),
    (PolicyKind::LjfWf, 20, ([0x401646065cda2708, 0x4043da62329904cb, 0x404e0c84c0515349], [137, 0, 84, 53, 0, 201, 2, 779, 33])),
    (PolicyKind::SjfWf, 0, ([0x40431b0662d51526, 0x406170f61d71f978, 0x404e0c84c0515349], [137, 92, 16, 29, 0, 244, 1, 950, 30])),
    (PolicyKind::SjfWf, 20, ([0x4013adfbed58ec48, 0x40443805e57d167b, 0x404e0c84c0515349], [137, 0, 87, 50, 0, 196, 2, 760, 32])),
];

#[test]
fn every_policy_is_pinned_at_zero_and_nonzero_overhead() {
    let jobs = stream(45.0);
    for (kind, overhead_ms, want) in &PINS {
        let (report, _) = run(
            *kind,
            &jobs,
            *overhead_ms,
            CORES,
            BUDGET,
            SimTime::from_secs(END_S),
        );
        check(
            &format!("{} @ {overhead_ms} ms", kind.name()),
            &report,
            want,
        );
    }
    // The table covers every policy at both overheads.
    for kind in ALL {
        for ms in [0, 20] {
            assert!(PINS.iter().any(|&(k, o, _)| k == kind && o == ms));
        }
    }
}

#[test]
fn no_dvfs_drains_to_a_replaced_plan_end_past_every_deadline() {
    // One job arrives at 450 ms on an idle 2-core machine with a 100 ms
    // scheduling overhead. Its plan ends before its 480 ms deadline, so
    // the stall swallows it and the plan's end is the end of the stall,
    // 550 ms. The 500 ms quantum tick (the horizon) replans the now
    // empty system, replacing that plan; nothing live happens after
    // 500 ms. The run still drains to 550 ms, and the No-DVFS ambient
    // draw of both cores (20 W each) from 450 ms to 550 ms is the whole
    // 4 J of energy.
    let jobs = JobSet::new(vec![Job::new(
        0,
        SimTime::from_millis(450),
        SimTime::from_millis(480),
        20.0,
    )
    .unwrap()])
    .unwrap();
    let (report, last) = run(
        PolicyKind::DesNoDvfs,
        &jobs,
        100,
        2,
        40.0,
        SimTime::from_millis(500),
    );
    assert_eq!(last, SimTime::from_millis(550));
    check(
        "No-DVFS, replaced plan end past the last deadline",
        &report,
        &(
            [0x0000000000000000, 0x4010000000000000, 0x3faf60fa3a451374],
            [1, 0, 0, 1, 0, 2, 0, 4, 0],
        ),
    );
}
