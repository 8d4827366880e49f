//! **Energy-OPT** — the YDS minimum-energy algorithm (paper §III-A).
//!
//! Given a job set with agreeable deadlines on a single DVFS core with *no*
//! power budget, Energy-OPT completes every job by its deadline with the
//! minimum possible energy under a convex power function. It repeatedly:
//!
//! 1. finds the **critical interval** `I* = [z, z′)` maximizing the
//!    intensity `g(I) = Σ w_j / |I|` over jobs whose whole window lies in
//!    `I` (the *critical group*);
//! 2. schedules the critical group EDF at the constant speed `g(I*)`
//!    inside `I*`;
//! 3. removes `I*` from the timeline (remaining job windows compress) and
//!    recurses.
//!
//! Convexity of the power function makes running each critical group at
//! its average speed optimal; critical speeds are non-increasing across
//! rounds (a property [`EnergyOptResult::round_speeds`] exposes and the
//! tests verify).
//!
//! Two entry points share that algorithm:
//!
//! * [`energy_opt`] is the general solver for arbitrary releases
//!   (QE-OPT). It is the reference oracle: debug builds of DES re-solve
//!   every budget-free plan with it.
//! * [`energy_opt_common_release`] is the allocation-free special case
//!   for jobs that all release at one instant, which is what DES's
//!   budget-free step and Online-QE's `Efficient` step solve on every
//!   invocation. With one release every candidate interval starts at
//!   the release, so each round is a critical *prefix* of the
//!   deadline-ordered jobs and removing it is a pure shift. The fast
//!   path repeats the general solver's float operations in the same
//!   order, so its schedule is bit-identical (DESIGN.md §"The one-index
//!   contract"; pinned by a property test below and, in debug builds, by
//!   a cross-check inside DES).

use std::collections::BTreeSet;

use qes_core::job::{JobId, JobSet};
use qes_core::schedule::{CoreSchedule, Slice};
use qes_core::time::SimTime;

use crate::timeline::{compress_point, edf_pack, materialize, VJob, VirtualMap};

/// Output of [`energy_opt`].
#[derive(Clone, Debug)]
pub struct EnergyOptResult {
    /// The single-core schedule; every job is fully processed by its
    /// deadline.
    pub schedule: CoreSchedule,
    /// Speed of each extraction round, in order. Non-increasing.
    pub round_speeds: Vec<f64>,
}

impl EnergyOptResult {
    /// Speed of the first (fastest) critical round; 0 for an empty input.
    ///
    /// With all jobs released at a common instant `t`, the YDS speed
    /// profile is non-increasing in time, so this is also the speed — and
    /// hence, through the power model, the power `P_i(t)` — that DES's
    /// budget-free probe reads at `t` (paper §IV-D step 2).
    pub fn initial_speed(&self) -> f64 {
        self.round_speeds.first().copied().unwrap_or(0.0)
    }
}

/// Run Energy-OPT (YDS) on `jobs`.
///
/// Zero-demand jobs are trivially satisfied and receive no slices.
pub fn energy_opt(jobs: &JobSet) -> EnergyOptResult {
    let mut vjobs: Vec<VJob> = Vec::with_capacity(jobs.len());
    let (origin, horizon) = match (jobs.first_release(), jobs.last_deadline()) {
        (Some(r), Some(d)) => (r.as_micros(), d.as_micros() - r.as_micros()),
        _ => {
            return EnergyOptResult {
                schedule: CoreSchedule::default(),
                round_speeds: vec![],
            }
        }
    };
    for j in jobs.iter().filter(|j| j.demand > 0.0) {
        vjobs.push(VJob {
            id: j.id,
            r: j.release.as_micros() - origin,
            d: j.deadline.as_micros() - origin,
            w: j.demand,
        });
    }
    let mut map = VirtualMap::identity(origin, horizon);
    let mut slices: Vec<Slice> = Vec::with_capacity(vjobs.len());
    let mut round_speeds = Vec::new();

    while !vjobs.is_empty() {
        let (a, b, speed) = critical_interval(&vjobs);
        round_speeds.push(speed);
        // Partition the critical group out of the remaining jobs.
        let (mut group, rest): (Vec<VJob>, Vec<VJob>) =
            vjobs.into_iter().partition(|j| j.r >= a && j.d <= b);
        vjobs = rest;
        // EDF within the interval at the critical speed.
        group.sort_by_key(|x| (x.d, x.r, x.id));
        let volumes: Vec<(VJob, f64)> = group.iter().map(|&j| (j, j.w)).collect();
        let vslices = edf_pack(&volumes, speed, a);
        for (id, ra, rb) in materialize(&map, &vslices) {
            slices.push(Slice {
                job: id,
                start: SimTime::from_micros(ra),
                end: SimTime::from_micros(rb),
                speed,
            });
        }
        // Remove the interval; compress remaining windows.
        map.cut(a, b);
        for j in &mut vjobs {
            j.r = compress_point(j.r, a, b);
            j.d = compress_point(j.d, a, b);
        }
    }

    EnergyOptResult {
        schedule: CoreSchedule::new(slices),
        round_speeds,
    }
}

/// Energy-OPT over jobs that all release at `now`, bit-identical to
/// [`energy_opt`] on the same jobs but without building a [`JobSet`],
/// virtual jobs or a virtual map.
///
/// `jobs` must be in (deadline, id) order with distinct ids, and `job`
/// must map each entry to `(id, deadline, work)` with `work > 0` and
/// `now < deadline < now + 2^52 µs` (about 142 years). The accessor lets
/// callers pass their own job records (DES's ready index, Online-QE's
/// trimmed list) without copying them.
pub fn energy_opt_common_release<T>(
    now: SimTime,
    jobs: &[T],
    job: impl Fn(&T) -> (JobId, SimTime, f64),
) -> CoreSchedule {
    let mut slices: Vec<Slice> = Vec::with_capacity(jobs.len());
    // Real µs where the remaining virtual timeline starts: every round
    // cuts `[0, b)` off the front, which leaves a pure shift.
    let mut base = now.as_micros();
    let mut first = 0;
    while first < jobs.len() {
        // Critical prefix. The work is summed afresh from the round's
        // first job, as the general search sums its candidate's members,
        // and `>=` keeps the last maximum: the general search scans
        // deadlines in reverse with a strict `>`.
        let (mut w, mut best) = (0.0, (first, 0u64, -1.0f64));
        for i in first..jobs.len() {
            let (_, d, wi) = job(&jobs[i]);
            w += wi;
            if jobs.get(i + 1).is_some_and(|n| job(n).1 == d) {
                continue;
            }
            let dv = d.as_micros() - base;
            debug_assert!(dv < 1 << 52, "deadline {d:?} too far after {now:?}");
            let speed = w * 1000.0 / dv as f64;
            if speed >= best.2 {
                best = (i + 1, dv, speed);
            }
        }
        let (last, cut, speed) = best;
        // EDF-pack the group from virtual 0 with `edf_pack`'s float
        // sequence. Every job is released, so nothing preempts, and
        // below 2^52 µs one step leaves `edf_pack` at most 0.5 µs of a
        // job, which it counts as finished: one step, one slice per job.
        let us_per_unit = 1000.0 / speed;
        let mut cur = 0.0f64;
        for jj in &jobs[first..last] {
            let (id, d, wi) = job(jj);
            let dv = d.as_micros() - base;
            let run_us = wi * us_per_unit;
            let end = (cur + run_us).min(dv as f64);
            debug_assert!(
                cur + run_us - end <= 2.0,
                "EDF pack drops volume at deadline: job {id:?}"
            );
            let (si, ei) = (cur.round() as u64, (end.round() as u64).min(dv));
            if ei > si {
                slices.push(Slice {
                    job: id,
                    start: SimTime::from_micros(base + si),
                    end: SimTime::from_micros(base + ei),
                    speed,
                });
            }
            cur = end;
        }
        base += cut;
        first = last;
    }
    CoreSchedule::new(slices)
}

/// Find the critical interval of `vjobs`: the candidate `[a, b)` (built
/// from release/deadline endpoints) maximizing intensity. Returns
/// `(a, b, speed_ghz)`.
fn critical_interval(vjobs: &[VJob]) -> (u64, u64, f64) {
    let releases: BTreeSet<u64> = vjobs.iter().map(|j| j.r).collect();
    let deadlines: BTreeSet<u64> = vjobs.iter().map(|j| j.d).collect();
    let mut best = (0u64, 0u64, -1.0f64);
    for &a in &releases {
        for &b in deadlines.iter().rev() {
            if b <= a {
                break;
            }
            let w: f64 = vjobs
                .iter()
                .filter(|j| j.r >= a && j.d <= b)
                .map(|j| j.w)
                .sum();
            if w <= 0.0 {
                continue;
            }
            // speed (GHz) to do `w` units in (b−a) µs: 1 unit = 1 GHz·ms.
            let speed = w * 1000.0 / (b - a) as f64;
            if speed > best.2 {
                best = (a, b, speed);
            }
        }
    }
    debug_assert!(
        best.2 > 0.0,
        "critical interval must exist for non-empty job set"
    );
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qes_core::job::Job;
    use qes_core::power::{PolynomialPower, PowerModel};
    use qes_core::schedule::Schedule;

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    fn js(jobs: Vec<Job>) -> JobSet {
        JobSet::new(jobs).unwrap()
    }

    #[test]
    fn empty_set_yields_empty_schedule() {
        let r = energy_opt(&js(vec![]));
        assert!(r.schedule.is_empty());
        assert_eq!(r.initial_speed(), 0.0);
    }

    #[test]
    fn single_job_runs_at_its_average_speed() {
        // 100 units over a 100 ms window → 1 GHz, exactly filling the window.
        let jobs = js(vec![Job::new(0, ms(0), ms(100), 100.0).unwrap()]);
        let r = energy_opt(&jobs);
        assert_eq!(r.round_speeds.len(), 1);
        assert!((r.round_speeds[0] - 1.0).abs() < 1e-9);
        let vols = r.schedule.volumes();
        assert!((vols[&JobId(0)] - 100.0).abs() < 1e-3);
    }

    #[test]
    fn all_jobs_fully_processed() {
        let jobs = js(vec![
            Job::new(0, ms(0), ms(150), 120.0).unwrap(),
            Job::new(1, ms(20), ms(170), 60.0).unwrap(),
            Job::new(2, ms(40), ms(190), 200.0).unwrap(),
            Job::new(3, ms(90), ms(240), 80.0).unwrap(),
        ]);
        let r = energy_opt(&jobs);
        let vols = r.schedule.volumes();
        for j in jobs.iter() {
            let v = vols.get(&j.id).copied().unwrap_or(0.0);
            assert!(
                (v - j.demand).abs() < 0.01,
                "{:?}: {v} vs {}",
                j.id,
                j.demand
            );
        }
        // Schedule is feasible (unbounded budget).
        let m = PolynomialPower::PAPER_SIM;
        Schedule::single(r.schedule.clone())
            .validate_with_tolerance(&jobs, &m, f64::INFINITY, 0.05, 1e-6)
            .unwrap();
    }

    #[test]
    fn critical_speeds_are_non_increasing() {
        let jobs = js(vec![
            Job::new(0, ms(0), ms(50), 100.0).unwrap(), // dense: 2 GHz
            Job::new(1, ms(0), ms(200), 50.0).unwrap(),
            Job::new(2, ms(60), ms(260), 30.0).unwrap(),
            Job::new(3, ms(120), ms(320), 10.0).unwrap(),
        ]);
        let r = energy_opt(&jobs);
        for w in r.round_speeds.windows(2) {
            assert!(
                w[0] >= w[1] - 1e-9,
                "round speeds increased: {:?}",
                r.round_speeds
            );
        }
        assert!((r.initial_speed() - r.round_speeds[0]).abs() < 1e-12);
    }

    #[test]
    fn common_release_gives_non_increasing_speed_profile() {
        // DES's step-2 probe relies on this (§IV-D).
        let jobs = js(vec![
            Job::new(0, ms(0), ms(30), 90.0).unwrap(),
            Job::new(1, ms(0), ms(100), 50.0).unwrap(),
            Job::new(2, ms(0), ms(300), 20.0).unwrap(),
        ]);
        let r = energy_opt(&jobs);
        let plan = r.schedule.speed_plan();
        let mut prev = f64::INFINITY;
        for seg in plan.segments() {
            assert!(seg.speed <= prev + 1e-9);
            prev = seg.speed;
        }
        assert!((plan.speed_at(ms(0)) - r.initial_speed()).abs() < 1e-9);
    }

    #[test]
    fn energy_beats_constant_full_speed() {
        // Running everything at the max needed speed wastes energy; YDS
        // must do no worse than the single-speed alternative.
        let jobs = js(vec![
            Job::new(0, ms(0), ms(50), 80.0).unwrap(),
            Job::new(1, ms(50), ms(300), 40.0).unwrap(),
        ]);
        let m = PolynomialPower::PAPER_SIM;
        let r = energy_opt(&jobs);
        let yds_energy = r.schedule.energy(&m);
        // Constant-speed alternative: run both jobs back-to-back at the
        // speed the denser job needs (80 units / 50 ms = 1.6 GHz).
        let s = 1.6;
        let secs = (80.0 + 40.0) / (s * 1000.0);
        let const_energy = m.dynamic_power(s) * secs;
        assert!(
            yds_energy <= const_energy + 1e-9,
            "YDS {yds_energy} > constant {const_energy}"
        );
    }

    #[test]
    fn zero_demand_jobs_are_skipped() {
        let jobs = js(vec![
            Job::new(0, ms(0), ms(100), 0.0).unwrap(),
            Job::new(1, ms(0), ms(100), 50.0).unwrap(),
        ]);
        let r = energy_opt(&jobs);
        let vols = r.schedule.volumes();
        assert!(!vols.contains_key(&JobId(0)));
        assert!((vols[&JobId(1)] - 50.0).abs() < 0.01);
    }

    #[test]
    fn disjoint_clusters_get_their_own_speeds() {
        // Two well-separated bursts: each is its own critical interval.
        let jobs = js(vec![
            Job::new(0, ms(0), ms(50), 100.0).unwrap(),     // 2 GHz
            Job::new(1, ms(1000), ms(1100), 50.0).unwrap(), // 0.5 GHz
        ]);
        let r = energy_opt(&jobs);
        assert_eq!(r.round_speeds.len(), 2);
        assert!((r.round_speeds[0] - 2.0).abs() < 1e-9);
        assert!((r.round_speeds[1] - 0.5).abs() < 1e-9);
        // Each job runs inside its own window.
        for s in r.schedule.slices() {
            let j = jobs.get(s.job).unwrap();
            assert!(s.start >= j.release && s.end <= j.deadline);
        }
    }

    #[test]
    fn nested_windows_fold_into_one_critical_interval() {
        // A tight job inside a loose job's window: the loose job's work
        // flows around the extracted critical interval. (Not agreeable —
        // YDS itself handles general instances, so bypass the check.)
        let jobs = JobSet::new_unchecked(vec![
            Job::new(0, ms(0), ms(200), 60.0).unwrap(),
            Job::new(1, ms(50), ms(100), 100.0).unwrap(), // 2 GHz critical
        ]);
        let r = energy_opt(&jobs);
        assert!((r.round_speeds[0] - 2.0).abs() < 1e-9);
        let vols = r.schedule.volumes();
        assert!((vols[&JobId(0)] - 60.0).abs() < 0.01);
        assert!((vols[&JobId(1)] - 100.0).abs() < 0.01);
        // Job 1 occupies exactly [50,100); job 0's slices avoid it.
        for s in r.schedule.slices() {
            if s.job == JobId(0) {
                assert!(s.end <= ms(50) || s.start >= ms(100));
            }
        }
    }

    /// Every slice's job, bounds and speed bits, for bitwise comparison.
    fn bits(s: &CoreSchedule) -> Vec<(JobId, SimTime, SimTime, u64)> {
        s.slices()
            .iter()
            .map(|s| (s.job, s.start, s.end, s.speed.to_bits()))
            .collect()
    }

    #[test]
    fn common_release_handles_the_empty_set() {
        let none: [Job; 0] = [];
        let s = energy_opt_common_release(ms(5), &none, |j| (j.id, j.deadline, j.demand));
        assert!(s.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The common-release fast path is the general solver, bit for
        /// bit, on the inputs DES and Online-QE hand it.
        #[test]
        fn prop_common_release_matches_general_solver(
            raw in proptest::collection::vec(
                // (deadline kind, deadline µs, work draw)
                (0u8..5, 1u64..400_000, 0.0f64..1.0),
                1..12,
            ),
            now_kind in 0u8..3,
            now_draw in 0u64..1_000_000,
            // Works at one common density `rho`, so the prefix densities
            // tie up to float rounding.
            equal_density in proptest::bool::ANY,
            rho_draw in 0.0f64..1.0,
        ) {
            let now_us = match now_kind {
                0 => 0,
                1 => now_draw,
                _ => (1u64 << 50) - now_draw,
            };
            let now = SimTime::from_micros(now_us);
            // Deadlines as offsets from `now`: 1 µs of slack, a few
            // whole ms (frequent duplicates), anything, the previous
            // job's deadline again, or days away.
            let mut offsets: Vec<u64> = Vec::with_capacity(raw.len());
            for &(kind, d, _) in &raw {
                let off = match (kind, offsets.last()) {
                    (0, _) => 1,
                    (1, _) => (d % 4 + 1) * 1000,
                    (3, Some(&prev)) => prev,
                    (4, _) => d << 20,
                    _ => d,
                };
                offsets.push(off);
            }
            let mut order: Vec<(u64, u32)> =
                offsets.iter().enumerate().map(|(i, &o)| (o, i as u32)).collect();
            order.sort_unstable();
            let rho = 10f64.powf(-3.0 + 6.0 * rho_draw);
            let mut prev_off = 0;
            let jobs: Vec<Job> = order
                .iter()
                .map(|&(off, id)| {
                    let u = raw[id as usize].2;
                    let w = if equal_density && off > prev_off {
                        rho * (off - prev_off) as f64 / 1000.0
                    } else {
                        10f64.powf(-9.0 + 13.0 * u)
                    };
                    prev_off = off;
                    Job::new(id, now, SimTime::from_micros(now_us + off), w).unwrap()
                })
                .collect();
            let fast = energy_opt_common_release(now, &jobs, |j| (j.id, j.deadline, j.demand));
            let general = energy_opt(&JobSet::new_unchecked(jobs.clone()));
            prop_assert_eq!(bits(&fast), bits(&general.schedule));
        }
    }
}
