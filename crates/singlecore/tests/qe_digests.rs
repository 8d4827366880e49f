//! Pins the bits of the Online-QE kernel and of Quality-OPT.
//!
//! Each test runs a seeded corpus through the public entry points and
//! folds every output bit (slice job, start, end and speed bits, discarded
//! ids, per-job volumes) into one FNV-1a digest. Any change to the float
//! operations of the busiest-deprived-interval search, the volume
//! decomposition, the §V-D discard loop or the realization changes a
//! digest; a faster kernel must leave all of them unchanged.
//!
//! The corpus does not depend on the proptest shim's case seeding: it
//! draws straight from a seeded `StdRng`.

use qes_core::job::{Job, JobId, JobSet};
use qes_core::power::{PolynomialPower, PowerModel};
use qes_core::schedule::CoreSchedule;
use qes_core::time::{SimDuration, SimTime};
use qes_singlecore::{quality_opt, OnlineMode, QeSolver, ReadyJob, SpeedCap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MODEL: PolynomialPower = PolynomialPower::PAPER_SIM;

/// FNV-1a over little-endian bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn schedule(&mut self, s: &CoreSchedule) {
        self.eat(&(s.slices().len() as u64).to_le_bytes());
        for sl in s.slices() {
            self.eat(&sl.job.0.to_le_bytes());
            self.eat(&sl.start.as_micros().to_le_bytes());
            self.eat(&sl.end.as_micros().to_le_bytes());
            self.eat(&sl.speed.to_bits().to_le_bytes());
        }
    }
}

/// Uniform integer in `[0, n)`.
fn below(rng: &mut StdRng, n: u64) -> u64 {
    (rng.gen::<f64>() * n as f64) as u64 % n
}

/// One live, strictly (deadline, id)-sorted ready list of `n` jobs at
/// `now`: deadlines 1 µs out, on whole ms (ties), equal to the previous
/// job's or anywhere within 300 ms; half the jobs partial; two thirds
/// carrying prior progress, which rewinds their releases before `now`.
fn ready_list(rng: &mut StdRng, now: SimTime, n: usize) -> Vec<ReadyJob> {
    let mut ready = Vec::with_capacity(n);
    let mut prev_off = 1;
    for i in 0..n {
        let off = match below(rng, 8) {
            0 => 1,
            1 | 2 => (below(rng, 5) + 1) * 1000,
            3 => prev_off,
            _ => 1 + below(rng, 300_000),
        };
        prev_off = off;
        let demand = 0.01 + 400.0 * rng.gen::<f64>();
        let mut job = Job::new(
            i as u32,
            SimTime::ZERO,
            now + SimDuration::from_micros(off),
            demand,
        )
        .unwrap();
        job.partial = rng.gen_bool(0.5);
        let processed = if below(rng, 3) == 0 {
            0.0
        } else {
            demand * 0.999 * rng.gen::<f64>()
        };
        ready.push(ReadyJob { job, processed });
    }
    ready.sort_unstable_by_key(|r| (r.job.deadline, r.job.id));
    ready
}

#[test]
fn online_qe_plans_are_pinned() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0e0e);
    // One warm solver for the whole corpus, as DES keeps one per core.
    let mut solver = QeSolver::default();
    let mut h = Fnv::new();
    // The load factors alone: `powf` is the one library call in the
    // corpus, and a build may round it differently.
    let mut rhos = Fnv::new();
    let (mut solves, mut discards, mut multi_discard, mut satisfied, mut deprived) =
        (0, 0, 0, 0, 0);
    for case in 0..3000u64 {
        let n = 1 + (case % 24) as usize;
        let now = SimTime::from_micros(50_000 + below(&mut rng, 1_000_000));
        let ready = ready_list(&mut rng, now, n);
        // The grant is a load factor ρ ∈ [1/16, 16) over the speed that
        // runs every remainder EDF by its deadline: ρ < 1 leaves the jobs
        // satisfiable, large ρ deprives nearly all of them.
        let (mut cum, mut need) = (0.0, 0.0f64);
        for r in &ready {
            cum += r.remaining();
            let window_ms = r.job.deadline.saturating_since(now).as_micros() as f64 / 1000.0;
            need = need.max(cum / window_ms);
        }
        let remaining = cum;
        let rho = 256f64.powf(rng.gen::<f64>()) / 16.0;
        rhos.eat(&rho.to_bits().to_le_bytes());
        let cap = SpeedCap::new(&MODEL, MODEL.dynamic_power(need / rho));
        for mode in [OnlineMode::Eager, OnlineMode::Efficient] {
            let (schedule, discarded) = solver.solve_sorted(now, &ready, cap, mode);
            h.schedule(&schedule);
            h.eat(&(discarded.len() as u64).to_le_bytes());
            for id in discarded {
                h.eat(&id.0.to_le_bytes());
            }
            solves += 1;
            discards += discarded.len();
            multi_discard += usize::from(discarded.len() >= 2);
            let realized: f64 = schedule.slices().iter().map(|s| s.volume()).sum();
            if discarded.is_empty() && realized >= remaining - 1e-3 {
                satisfied += 1;
            }
            if realized < 0.5 * remaining {
                deprived += 1;
            }
        }
    }
    // The corpus must reach every regime it claims to cover.
    assert!(discards > 300, "{discards} discards");
    assert!(multi_discard > 50, "{multi_discard} multi-discard solves");
    assert!(satisfied > 100, "{satisfied} fully satisfied solves");
    assert!(deprived > 100, "{deprived} deeply deprived solves");
    assert_eq!(
        rhos.0, 0xd234_149a_6bd8_6573,
        "the corpus generator's load factors `256f64.powf(u) / 16.0` differ in this \
         build, so the corpus is not the pinned one; the plan digest below cannot match"
    );
    assert_eq!((solves, h.0), (6000, 0x078e_fedf_1933_2050));
}

/// One live, strictly (deadline, id)-sorted ready list of `n ≤ 4` jobs at
/// `now` for a core whose grant runs at `speed` GHz, built from the edge
/// cases that the sizes DES solves most often meet: rewound releases
/// equal to the previous job's or 1 µs before it (sunk work of exactly
/// one µs of `speed` more), deadline ties, 1 µs windows, and demands
/// sized against the window's capacity at `speed`.
fn small_list(rng: &mut StdRng, now: SimTime, n: usize, speed: f64, rigid: u64) -> Vec<ReadyJob> {
    let unit_us = speed / 1000.0;
    let mut ready = Vec::with_capacity(n);
    let (mut prev_off, mut prev_done) = (1, 0.0);
    for i in 0..n {
        let off = match below(rng, 6) {
            0 => 1,
            1 => prev_off,
            2 => (below(rng, 4) + 1) * 1000,
            _ => 1 + below(rng, 200_000),
        };
        prev_off = off;
        let done = match below(rng, 5) {
            0 => 0.0,
            1 => prev_done,
            2 => prev_done + unit_us,
            3 => (1 + below(rng, 3)) as f64 * unit_us,
            _ => 300.0 * rng.gen::<f64>(),
        };
        prev_done = done;
        // Against the future capacity up to the deadline: far under it,
        // near it, or far over it. (Plain arithmetic: a `powf` with a
        // power-of-two base rounds differently between optimization
        // levels.)
        let cap = off as f64 * unit_us;
        let scale = [0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0][below(rng, 7) as usize];
        let demand = done + 1e-6 + cap * scale * (0.5 + rng.gen::<f64>());
        let mut job = Job::new(
            i as u32,
            SimTime::ZERO,
            now + SimDuration::from_micros(off),
            demand,
        )
        .unwrap();
        // `rigid`: 0 all partial, 1 all non-partial, else mixed.
        job.partial = match rigid {
            0 => true,
            1 => false,
            _ => rng.gen_bool(0.5),
        };
        ready.push(ReadyJob {
            job,
            processed: done,
        });
    }
    ready.sort_unstable_by_key(|r| (r.job.deadline, r.job.id));
    ready
}

#[test]
fn small_set_plans_are_pinned() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0404);
    let mut solver = QeSolver::default();
    let mut h = Fnv::new();
    let mut solves = [0u32; 4];
    let (mut discards, mut satisfied, mut deprived, mut empty) = (0, 0, 0, 0);
    for case in 0..8000u64 {
        let n = 1 + (case % 4) as usize;
        let now = SimTime::from_micros(50_000 + below(&mut rng, 1_000_000));
        let u = rng.gen::<f64>();
        let speed = 0.05 + 7.95 * u * u * u;
        let ready = small_list(&mut rng, now, n, speed, (case / 4) % 3);
        let remaining: f64 = ready.iter().map(|r| r.remaining()).sum();
        let cap = SpeedCap::new(&MODEL, MODEL.dynamic_power(speed));
        for mode in [OnlineMode::Eager, OnlineMode::Efficient] {
            let (schedule, discarded) = solver.solve_sorted(now, &ready, cap, mode);
            h.schedule(&schedule);
            h.eat(&(discarded.len() as u64).to_le_bytes());
            for id in discarded {
                h.eat(&id.0.to_le_bytes());
            }
            solves[n - 1] += 1;
            discards += discarded.len();
            let realized: f64 = schedule.slices().iter().map(|s| s.volume()).sum();
            if discarded.is_empty() && realized >= remaining - 1e-3 {
                satisfied += 1;
            }
            if realized < 0.5 * remaining {
                deprived += 1;
            }
            empty += usize::from(schedule.is_empty());
        }
    }
    // The corpus must reach every regime it claims to cover.
    assert!(discards > 1000, "{discards} discards");
    assert!(satisfied > 1000, "{satisfied} fully satisfied solves");
    assert!(deprived > 1000, "{deprived} deeply deprived solves");
    assert!(empty > 100, "{empty} empty plans");
    assert_eq!((solves, h.0), ([4000; 4], 0xc4dc_6347_ed77_21f2));
}

#[test]
fn quality_opt_volumes_and_schedules_are_pinned() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0a0a);
    let mut h = Fnv::new();
    for case in 0..1500u64 {
        let n = 1 + (case % 24) as usize;
        // Agreeable jobs: releases ascending, deadlines non-decreasing.
        let mut jobs = Vec::with_capacity(n);
        let (mut r, mut d) = (0u64, 0u64);
        for i in 0..n {
            r += below(&mut rng, 40_000);
            d = d.max(r + 1 + below(&mut rng, 200_000));
            let demand = 0.01 + 300.0 * rng.gen::<f64>();
            jobs.push(
                Job::new(
                    i as u32,
                    SimTime::from_micros(r),
                    SimTime::from_micros(d),
                    demand,
                )
                .unwrap(),
            );
        }
        let speed = 0.05 * 100f64.powf(rng.gen::<f64>());
        let out = quality_opt(&JobSet::new(jobs).unwrap(), speed);
        for i in 0..n as u32 {
            h.eat(&out.volume(JobId(i)).to_bits().to_le_bytes());
        }
        h.schedule(&out.schedule);
    }
    assert_eq!(h.0, 0x8495_f5fb_5e68_071b);
}
