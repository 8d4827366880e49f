//! **Online-QE** — myopic optimal online scheduling (paper §III-B).
//!
//! Online-QE recomputes a QE-OPT schedule over the *currently ready* jobs
//! whenever a triggering event fires. The subtlety is work already
//! performed: a job with processed volume `p̄` must have that sunk work
//! accounted for when Quality-OPT equalizes volumes. The paper's trick is
//! to rewind the job's release time to `t − p̄/s*` before step 1 — giving
//! the job phantom capacity exactly equal to its sunk work — and then,
//! after step 1 fixes the total volume `p`, trim the demand to the
//! *remainder* `p − p̄` and re-release at `t` for the Energy-OPT step. The
//! emitted schedule therefore lives entirely in the future.
//!
//! The paper rewinds only the one currently running job; we generalize the
//! same rewind to every ready job with prior progress, since under grouped
//! scheduling (§IV-E) a previously deprived job can remain ready with
//! partial progress. With a single in-progress job this reduces exactly to
//! the paper's construction. The feasibility argument survives: for any
//! deadline `d`, Quality-OPT bounds the allocated volume of jobs due by
//! `d` to the capacity of `[min adjusted release, d]`, which exceeds the
//! true future capacity by at most `max_j p̄_j / s*` — less than the total
//! sunk volume — so remaining demands always fit after `t`.
//!
//! Non-partial jobs (§V-D): if the myopic plan cannot complete such a job
//! in full, it is discarded and the plan recomputed without it, iterating
//! until stable.
//!
//! Each invocation may use a different power budget — required when DES's
//! water-filling hands each core a new power share (§IV-C).

use std::collections::HashMap;

use qes_core::job::{Job, JobId};
use qes_core::power::PowerModel;
use qes_core::schedule::{CoreSchedule, Slice};
use qes_core::time::SimTime;

use crate::energy_opt::energy_opt_common_release;
use crate::quality_opt::VolumeDecomposition;
use crate::timeline::VJob;

/// A job visible to the scheduler at invocation time, with its progress.
#[derive(Clone, Copy, Debug)]
pub struct ReadyJob {
    /// The job (original release, deadline, full demand).
    pub job: Job,
    /// Volume already processed before this invocation.
    pub processed: f64,
}

impl ReadyJob {
    /// A job with no prior progress.
    pub fn fresh(job: Job) -> Self {
        ReadyJob {
            job,
            processed: 0.0,
        }
    }

    /// Remaining demand.
    pub fn remaining(&self) -> f64 {
        (self.job.demand - self.processed).max(0.0)
    }
}

/// Output of one [`online_qe`] invocation.
#[derive(Clone, Debug)]
pub struct OnlineQeOutcome {
    /// Slices from `now` onward realizing the myopic plan.
    pub schedule: CoreSchedule,
    /// Planned *total* volume per job (sunk + future), one entry per
    /// ready job in the caller's order.
    pub planned_total: Vec<(JobId, f64)>,
    /// Non-partial jobs discarded because the plan cannot finish them.
    pub discarded: Vec<JobId>,
    /// The maximum speed `s*` implied by this invocation's budget.
    pub max_speed: f64,
}

impl OnlineQeOutcome {
    /// Planned total volume for `id` (its sunk volume if no future work).
    pub fn planned(&self, id: JobId) -> f64 {
        self.planned_total
            .iter()
            .find(|(i, _)| *i == id)
            .map(|&(_, v)| v)
            .unwrap_or(0.0)
    }
}

/// How the budget-bounded step realizes the myopic volumes in time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum OnlineMode {
    /// The §III-B construction: Energy-OPT reshapes the remainders to the
    /// slowest feasible speeds. Myopically optimal for ⟨quality, energy⟩
    /// — the right choice when no further arrivals will contend (light
    /// load, or a closed job set).
    #[default]
    Efficient,
    /// Spend the whole grant now: run the remainders EDF at `s_max`.
    /// Under sustained overload the stretched slack of `Efficient` is
    /// immediately re-consumed by new arrivals, losing quality for an
    /// energy saving the lexicographic metric does not want; DES uses
    /// this mode whenever water-filling is engaged, which reproduces the
    /// paper's measured behaviour (C-DVFS quality ≥ S-DVFS at all loads,
    /// equal energy under overload — Fig. 3).
    Eager,
}

/// [`QeSolver::solve`] on a fresh solver in [`OnlineMode::Efficient`]
/// mode.
pub fn online_qe(
    now: SimTime,
    ready: &[ReadyJob],
    model: &dyn PowerModel,
    budget: f64,
) -> OnlineQeOutcome {
    QeSolver::default().solve(now, ready, model, budget, OnlineMode::Efficient)
}

/// Reusable Online-QE solver state: scratch buffers plus the most recent
/// volume decomposition (resumed by the §V-D discard loop).
///
/// Every solve is bitwise independent of prior solves — the buffers only
/// amortize allocations — so callers may share one solver across cores,
/// invocations, and [`crate::online_qe::OnlineMode`]s without affecting
/// results. DES keeps one per core, warm across invocations, and solves
/// off its ready index with [`QeSolver::solve_sorted`].
#[derive(Clone, Debug, Default)]
pub struct QeSolver {
    /// [`QeSolver::solve`]'s live, canonically ordered copy of its input.
    active: Vec<ReadyJob>,
    scratch: QeScratch,
}

/// Scratch for the solve body, kept apart from `active` so the body can
/// read either `active` or a caller's slice.
#[derive(Clone, Debug, Default)]
struct QeScratch {
    alive: Vec<bool>,
    /// Rewound (possibly negative) f64 µs release per active job; fixed
    /// for the whole invocation since `now`, `processed`, and `s_max`
    /// don't change across discard rounds.
    adj: Vec<f64>,
    vjobs: Vec<VJob>,
    vols: Vec<f64>,
    decomp: VolumeDecomposition,
    trimmed: Vec<Job>,
}

impl QeSolver {
    /// Run one Online-QE invocation at time `now` over `ready` jobs, in
    /// any order, with dynamic power budget `budget` (W) and realization
    /// `mode`.
    ///
    /// Jobs whose deadline is not after `now`, or that are already
    /// complete, are ignored (their `planned_total` reports the sunk
    /// volume).
    pub fn solve(
        &mut self,
        now: SimTime,
        ready: &[ReadyJob],
        model: &dyn PowerModel,
        budget: f64,
        mode: OnlineMode,
    ) -> OnlineQeOutcome {
        let mut planned_total: Vec<(JobId, f64)> = ready
            .iter()
            .map(|r| (r.job.id, r.processed.min(r.job.demand)))
            .collect();
        let s_max = model.speed_for_dynamic_power(budget);
        if s_max <= 0.0 {
            return OnlineQeOutcome {
                schedule: CoreSchedule::default(),
                planned_total,
                discarded: vec![],
                max_speed: 0.0,
            };
        }

        self.active.clear();
        self.active.extend(
            ready
                .iter()
                .filter(|r| r.job.deadline > now && r.remaining() > 1e-9)
                .copied(),
        );
        // Canonical order. The caller's slice order is arbitrary (the
        // engine's per-core lists are permuted by `swap_remove`), and the
        // float summations downstream are order-sensitive; sorting makes
        // the outcome a function of the job *set* (`prop_order_insensitive`
        // checks this).
        self.active
            .sort_unstable_by_key(|r| (r.job.deadline, r.job.id));
        let (schedule, discarded) = self.scratch.plan(now, &self.active, s_max, mode);
        // Planned totals: sunk work plus what the schedule will run.
        for s in schedule.slices() {
            if let Some(t) = planned_total.iter_mut().find(|(id, _)| *id == s.job) {
                t.1 += s.volume();
            }
        }
        OnlineQeOutcome {
            schedule,
            planned_total,
            discarded,
            max_speed: s_max,
        }
    }

    /// [`QeSolver::solve`] for input that is already live (deadline after
    /// `now`, remaining demand above 1e-9) and strictly (deadline,
    /// id)-sorted — the list `solve` builds before planning, so the
    /// schedule and the discarded ids are bit-identical to its. The slice
    /// is read in place, and no planned totals are built. Debug builds
    /// check the precondition.
    pub fn solve_sorted(
        &mut self,
        now: SimTime,
        jobs: &[ReadyJob],
        model: &dyn PowerModel,
        budget: f64,
        mode: OnlineMode,
    ) -> (CoreSchedule, Vec<JobId>) {
        debug_assert!(
            jobs.iter()
                .all(|r| r.job.deadline > now && r.remaining() > 1e-9),
            "solve_sorted input holds a job that is not live"
        );
        debug_assert!(
            jobs.windows(2)
                .all(|w| (w[0].job.deadline, w[0].job.id) < (w[1].job.deadline, w[1].job.id)),
            "solve_sorted input is not strictly (deadline, id)-sorted"
        );
        let s_max = model.speed_for_dynamic_power(budget);
        if s_max <= 0.0 {
            return (CoreSchedule::default(), Vec::new());
        }
        self.scratch.plan(now, jobs, s_max, mode)
    }
}

impl QeScratch {
    /// The solve body over `active` — live, (deadline, id)-sorted jobs —
    /// at speed cap `s_max > 0`: the myopic volumes, the §V-D discard
    /// loop, then the realization `mode` asks for. Returns the schedule
    /// and the discarded ids.
    fn plan(
        &mut self,
        now: SimTime,
        active: &[ReadyJob],
        s_max: f64,
        mode: OnlineMode,
    ) -> (CoreSchedule, Vec<JobId>) {
        let n = active.len();
        let mut discarded = Vec::new();

        let us_per_unit = 1000.0 / s_max;
        let units_per_us = s_max / 1000.0;
        let now_f = now.as_micros() as f64;
        self.alive.clear();
        self.alive.resize(n, true);
        self.adj.clear();
        self.adj
            .extend(active.iter().map(|r| now_f - r.processed * us_per_unit));
        self.vols.clear();
        self.vols.resize(n, 0.0);

        if n > 0 {
            // Step 1: the myopic volumes, then the §V-D discard loop for
            // non-partial jobs. Snapshots are recorded only when a
            // discard can actually happen.
            let record = active.iter().any(|r| !r.job.partial);
            let mut shift_us = rewound_vjobs(active, &self.alive, &self.adj, &mut self.vjobs);
            self.decomp
                .solve(&self.vjobs, units_per_us, record, &mut self.vols);
            loop {
                // Discard at most one unfinishable non-partial job per
                // round (the one with the largest shortfall), then
                // recompute: discarding frees capacity that may rescue
                // the others.
                let worst = active
                    .iter()
                    .enumerate()
                    .filter(|&(i, r)| {
                        self.alive[i] && !r.job.partial && r.job.demand - self.vols[i] > 1e-6
                    })
                    .map(|(i, r)| (i, r.job.demand - self.vols[i]))
                    .max_by(|a, b| a.1.total_cmp(&b.1));
                let Some((x, _)) = worst else { break };
                discarded.push(active[x].job.id);
                self.alive[x] = false;
                self.vols[x] = 0.0;
                // Removing a job can change the rewind shift (if it held
                // the minimum adjusted release) and thereby every other
                // job's rounded virtual window — the virtual geometry
                // moves, so the recorded decomposition is useless. Resume
                // only when the shift is unchanged *and* the earlier
                // rounds' chosen intervals survive the removal; otherwise
                // rebuild and re-solve from scratch (the invalidation
                // contract — DESIGN.md §"Interval reuse").
                let new_shift = rewind_shift_us(&self.alive, &self.adj);
                if new_shift == shift_us && self.decomp.can_resume_without(x as u32, &self.alive) {
                    self.decomp
                        .resume_without(x as u32, &self.alive, units_per_us, &mut self.vols);
                } else {
                    shift_us = rewound_vjobs(active, &self.alive, &self.adj, &mut self.vjobs);
                    self.decomp
                        .solve(&self.vjobs, units_per_us, true, &mut self.vols);
                }
                #[cfg(debug_assertions)]
                {
                    // The resume contract, enforced: identical bits to a
                    // from-scratch solve over the surviving jobs.
                    let mut ref_vjobs = Vec::new();
                    let mut ref_vols = vec![0.0; n];
                    rewound_vjobs(active, &self.alive, &self.adj, &mut ref_vjobs);
                    let mut ref_decomp = VolumeDecomposition::default();
                    ref_decomp.solve(&ref_vjobs, units_per_us, false, &mut ref_vols);
                    for (i, (v, rv)) in self.vols.iter().zip(&ref_vols).enumerate() {
                        debug_assert!(
                            !self.alive[i] || v.to_bits() == rv.to_bits(),
                            "discard resume diverged from a full re-solve at job {i}"
                        );
                    }
                }
            }
        }

        // Trim to the future remainder and re-release at `now`. The myopic
        // volumes are feasible at `s_max` up to µs rounding of the rewound
        // releases; clamp the remainders to *exact* EDF feasibility at
        // `s_max` so the Energy-OPT step can never exceed the budget.
        // `active` is (deadline, id)-sorted and the filter preserves
        // order, so `trimmed` is already in EDF order.
        self.trimmed.clear();
        for (i, r) in active.iter().enumerate() {
            if !self.alive[i] {
                continue;
            }
            let future = self.vols[i] - r.processed;
            if future > 1e-9 {
                self.trimmed.push(Job {
                    release: now,
                    demand: future,
                    ..r.job
                });
            }
        }
        let mut cum = 0.0;
        for j in &mut self.trimmed {
            let cap = j.deadline.saturating_since(now).as_micros() as f64 * units_per_us;
            let excess = (cum + j.demand - cap).max(0.0);
            j.demand = (j.demand - excess).max(0.0);
            cum += j.demand;
        }
        self.trimmed.retain(|j| j.demand > 1e-9);
        let schedule = match mode {
            OnlineMode::Efficient => {
                // `trimmed` is released at `now`, EDF-ordered and
                // positive: exactly the common-release fast path's input.
                let schedule =
                    energy_opt_common_release(now, &self.trimmed, |j| (j.id, j.deadline, j.demand));
                // The first slice runs at the first (fastest) round's speed.
                let initial_speed = schedule.slices().first().map_or(0.0, |s| s.speed);
                debug_assert!(
                    initial_speed <= s_max + 1e-3,
                    "budget violated by Online-QE: {initial_speed} > {s_max}"
                );
                schedule
            }
            OnlineMode::Eager => {
                // Run the remainders back-to-back at `s_max` (EDF order —
                // the sort above). The grant is fully spent on quality
                // now; the slack Energy-OPT would have created is
                // worthless under sustained arrivals, which is exactly
                // when the budget binds.
                let mut slices = Vec::with_capacity(self.trimmed.len());
                let mut cur = now.as_micros() as f64;
                for j in &self.trimmed {
                    let start = cur;
                    let dl = j.deadline.as_micros();
                    // The trim loop caps every EDF prefix at its deadline
                    // capacity, so the unclamped end can overshoot `dl`
                    // only by float rounding — but the cursor must still
                    // advance from the *clamped* end, or the clamped
                    // volume is silently dropped and dead time opens up
                    // before the next slice.
                    let end = (start + j.demand * us_per_unit).min(dl as f64);
                    cur = end;
                    let si = SimTime::from_micros(start.round() as u64);
                    let ei = SimTime::from_micros((end.round() as u64).min(dl));
                    if ei > si {
                        slices.push(Slice {
                            job: j.id,
                            start: si,
                            end: ei,
                            speed: s_max,
                        });
                    }
                }
                let schedule = CoreSchedule::new(slices);
                #[cfg(debug_assertions)]
                {
                    let planned: f64 = self.trimmed.iter().map(|j| j.demand).sum();
                    let realized: f64 = schedule.slices().iter().map(|s| s.volume()).sum();
                    // Each slice boundary moves ≤ 0.5 µs when rounded.
                    let tol = (self.trimmed.len() as f64 + 1.0) * units_per_us + 1e-6;
                    debug_assert!(
                        (planned - realized).abs() <= tol,
                        "Eager dropped volume: planned {planned}, realized {realized}"
                    );
                }
                schedule
            }
        };
        (schedule, discarded)
    }
}

/// The integral µs shift making every *alive* rewound release land ≥ 0.
fn rewind_shift_us(alive: &[bool], adj: &[f64]) -> u64 {
    let min_adj = adj
        .iter()
        .zip(alive)
        .filter(|&(_, &a)| a)
        .map(|(&x, _)| x)
        .fold(f64::INFINITY, f64::min);
    (-min_adj).max(0.0).ceil() as u64
}

/// Build the rewound virtual jobs over the alive subset of `active`,
/// shifting releases *and* deadlines by the same integral µs amount
/// ([`rewind_shift_us`]) so a fractional rewind cannot skew any job's
/// window length. `VJob::id` carries the job's index in `active`. Returns
/// the shift applied.
fn rewound_vjobs(active: &[ReadyJob], alive: &[bool], adj: &[f64], out: &mut Vec<VJob>) -> u64 {
    let shift_us = rewind_shift_us(alive, adj);
    let shift = shift_us as f64;
    out.clear();
    for (i, r) in active.iter().enumerate() {
        if !alive[i] || r.job.demand <= 0.0 {
            continue;
        }
        out.push(VJob {
            id: JobId(i as u32),
            r: (adj[i] + shift).round() as u64,
            d: r.job.deadline.as_micros() + shift_us,
            w: r.job.demand,
        });
    }
    shift_us
}

/// Step 1 of Online-QE: Quality-OPT at `s_max` over the ready jobs with
/// rewound releases; returns planned *total* volumes (sunk + future).
///
/// Public because the No-DVFS / S-DVFS architecture models (§V-A) reuse
/// exactly this quality step at a fixed speed, skipping the Energy-OPT
/// step.
pub fn myopic_volumes(now: SimTime, active: &[ReadyJob], s_max: f64) -> HashMap<JobId, f64> {
    let us_per_unit = 1000.0 / s_max;
    let now_f = now.as_micros() as f64;
    let adj: Vec<f64> = active
        .iter()
        .map(|r| now_f - r.processed * us_per_unit)
        .collect();
    let alive = vec![true; active.len()];
    let mut vjobs = Vec::new();
    rewound_vjobs(active, &alive, &adj, &mut vjobs);
    let mut vols = vec![0.0; active.len()];
    let mut decomp = VolumeDecomposition::default();
    decomp.solve(&vjobs, s_max / 1000.0, false, &mut vols);
    active
        .iter()
        .zip(&vols)
        .map(|(r, &v)| (r.job.id, v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qes_core::job::JobSet;
    use qes_core::power::PolynomialPower;
    use qes_core::schedule::Schedule;
    use qes_core::time::SimDuration;

    const MODEL: PolynomialPower = PolynomialPower::PAPER_SIM;

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    fn rj(id: u32, r: u64, d: u64, w: f64, done: f64) -> ReadyJob {
        ReadyJob {
            job: Job::new(id, ms(r), ms(d), w).unwrap(),
            processed: done,
        }
    }

    #[test]
    fn fresh_invocation_matches_qe_opt() {
        // With no progress and all jobs ready now, Online-QE = QE-OPT.
        let ready = vec![rj(0, 0, 150, 200.0, 0.0), rj(1, 0, 160, 150.0, 0.0)];
        let out = online_qe(ms(0), &ready, &MODEL, 20.0);
        let jobs = JobSet::new(ready.iter().map(|r| r.job).collect()).unwrap();
        let qe = crate::qe_opt::qe_opt(&jobs, &MODEL, 20.0);
        for r in &ready {
            assert!(
                (out.planned(r.job.id) - qe.volume(r.job.id)).abs() < 0.05,
                "{:?}",
                r.job.id
            );
        }
    }

    #[test]
    fn schedule_lives_in_the_future() {
        let now = ms(50);
        let ready = vec![rj(0, 0, 150, 200.0, 60.0), rj(1, 40, 190, 100.0, 0.0)];
        let out = online_qe(now, &ready, &MODEL, 20.0);
        for s in out.schedule.slices() {
            assert!(s.start >= now, "slice starts in the past: {:?}", s);
        }
    }

    #[test]
    fn sunk_work_counts_toward_equalization() {
        // Two identical overloaded jobs, one with half its work already
        // done: the plan should spend remaining capacity on the other job
        // first (equalizing totals), not split evenly.
        let now = ms(0);
        let ready = vec![
            rj(0, 0, 100, 200.0, 80.0), // 80 units sunk
            rj(1, 0, 100, 200.0, 0.0),
        ];
        // Budget 5 W → s* = 1 GHz → 100 units of future capacity.
        let out = online_qe(now, &ready, &MODEL, 5.0);
        let t0 = out.planned(JobId(0));
        let t1 = out.planned(JobId(1));
        // Totals should equalize: 80 sunk + 100 future = 180 → 90 each.
        assert!((t0 - 90.0).abs() < 1.0, "t0 = {t0}");
        assert!((t1 - 90.0).abs() < 1.0, "t1 = {t1}");
        // Future work: 10 for job 0, 90 for job 1.
        let vols = out.schedule.volumes();
        assert!((vols.get(&JobId(1)).copied().unwrap_or(0.0) - 90.0).abs() < 1.0);
    }

    #[test]
    fn planned_never_below_sunk() {
        let now = ms(80);
        let ready = vec![rj(0, 0, 100, 500.0, 450.0), rj(1, 0, 100, 500.0, 0.0)];
        let out = online_qe(now, &ready, &MODEL, 5.0);
        assert!(out.planned(JobId(0)) >= 450.0 - 1e-6);
    }

    #[test]
    fn respects_budget_and_windows() {
        let now = ms(30);
        let ready = vec![
            rj(0, 0, 150, 250.0, 40.0),
            rj(1, 10, 160, 200.0, 0.0),
            rj(2, 25, 175, 300.0, 0.0),
        ];
        let budget = 20.0;
        let out = online_qe(now, &ready, &MODEL, budget);
        let jobs = JobSet::new(ready.iter().map(|r| r.job).collect()).unwrap();
        Schedule::single(out.schedule.clone())
            .validate_with_tolerance(&jobs, &MODEL, budget, 0.05, 1e-6)
            .unwrap();
        // Future volume per job never exceeds remaining demand.
        let vols = out.schedule.volumes();
        for r in &ready {
            let v = vols.get(&r.job.id).copied().unwrap_or(0.0);
            assert!(v <= r.remaining() + 0.05, "{:?}", r.job.id);
        }
    }

    #[test]
    fn expired_and_complete_jobs_are_ignored() {
        let now = ms(100);
        let ready = vec![
            rj(0, 0, 100, 100.0, 10.0),  // deadline == now → expired
            rj(1, 0, 200, 100.0, 100.0), // complete
            rj(2, 0, 200, 100.0, 0.0),
        ];
        let out = online_qe(now, &ready, &MODEL, 20.0);
        let vols = out.schedule.volumes();
        assert!(!vols.contains_key(&JobId(0)));
        assert!(!vols.contains_key(&JobId(1)));
        assert!((out.planned(JobId(1)) - 100.0).abs() < 1e-9);
        assert!(vols.contains_key(&JobId(2)));
    }

    #[test]
    fn non_partial_jobs_discarded_when_unfinishable() {
        let now = ms(0);
        // 1 GHz budget (5 W), 100 ms window → 100 units capacity; two
        // non-partial jobs of 80 each cannot both finish.
        let mut a = rj(0, 0, 100, 80.0, 0.0);
        let mut b = rj(1, 0, 100, 80.0, 0.0);
        a.job.partial = false;
        b.job.partial = false;
        let out = online_qe(now, &[a, b], &MODEL, 5.0);
        // One is discarded, the other completes in full.
        assert_eq!(out.discarded.len(), 1);
        let kept = if out.discarded[0] == JobId(0) {
            JobId(1)
        } else {
            JobId(0)
        };
        let vols = out.schedule.volumes();
        assert!((vols[&kept] - 80.0).abs() < 0.05);
    }

    #[test]
    fn partial_jobs_not_discarded() {
        let now = ms(0);
        let ready = vec![rj(0, 0, 100, 80.0, 0.0), rj(1, 0, 100, 80.0, 0.0)];
        let out = online_qe(now, &ready, &MODEL, 5.0);
        assert!(out.discarded.is_empty());
        // Both get half of the 100-unit capacity.
        assert!((out.planned(JobId(0)) - 50.0).abs() < 1.0);
        assert!((out.planned(JobId(1)) - 50.0).abs() < 1.0);
    }

    #[test]
    fn zero_budget_plans_nothing() {
        let ready = vec![rj(0, 0, 100, 50.0, 10.0)];
        let out = online_qe(ms(0), &ready, &MODEL, 0.0);
        assert!(out.schedule.is_empty());
        assert!((out.planned(JobId(0)) - 10.0).abs() < 1e-9);
    }

    /// Deterministic Fisher–Yates from a seed (the proptest shim has no
    /// shuffle strategy; an LCG is plenty for permutation coverage).
    fn shuffled(mut v: Vec<ReadyJob>, mut seed: u64) -> Vec<ReadyJob> {
        for i in (1..v.len()).rev() {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (seed >> 33) as usize % (i + 1);
            v.swap(i, j);
        }
        v
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_order_insensitive(
            raw in proptest::collection::vec(
                // (deadline ms beyond now, demand, processed fraction)
                (1u64..400, 1.0f64..300.0, 0.0f64..1.0),
                1..8,
            ),
            budget in 0.5f64..40.0,
            eager in proptest::bool::ANY,
            seed in 1u64..u64::MAX,
        ) {
            let now = ms(50);
            let ready: Vec<ReadyJob> = raw
                .iter()
                .enumerate()
                .map(|(i, &(d, w, frac))| ReadyJob {
                    job: Job::new(i as u32, ms(0), now + qes_core::time::SimDuration::from_millis(d), w)
                        .unwrap(),
                    processed: w * frac,
                })
                .collect();
            let mode = if eager { OnlineMode::Eager } else { OnlineMode::Efficient };
            let mut solver = QeSolver::default();
            let a = solver.solve(now, &ready, &MODEL, budget, mode);
            let b = solver.solve(now, &shuffled(ready.clone(), seed), &MODEL, budget, mode);
            prop_assert_eq!(a.schedule.slices(), b.schedule.slices());
            prop_assert_eq!(a.discarded, b.discarded);
            prop_assert_eq!(a.max_speed.to_bits(), b.max_speed.to_bits());
            for r in &ready {
                prop_assert_eq!(
                    a.planned(r.job.id).to_bits(),
                    b.planned(r.job.id).to_bits(),
                    "planned volume diverged for {:?}", r.job.id
                );
            }
        }
    }

    #[test]
    fn prop_sorted_entry_matches_solve() {
        // `solve_sorted` over the live, (deadline, id)-sorted jobs must
        // give `solve`'s schedule and discards bit for bit, whatever
        // state the warm solver carries over from earlier cases. `solve`
        // gets the same set shuffled and padded with expired and
        // finished jobs, which its filter drops.
        let runner = proptest::TestRunner::new(
            ProptestConfig::with_cases(512),
            "prop_sorted_entry_matches_solve",
        );
        let jobs_strategy = proptest::collection::vec(
            // (deadline kind, deadline µs, demand draw, processed kind,
            // processed fraction, partial)
            (
                0u8..5,
                1u64..300_000,
                0.0f64..1.0,
                0u8..3,
                0.0f64..0.999,
                proptest::bool::ANY,
            ),
            1..9,
        );
        let case_strategy = (
            0u64..1_000_000,
            0u8..4,
            0.0f64..1.0,
            proptest::bool::ANY,
            1u64..u64::MAX,
        );
        let bits = |p: &CoreSchedule| -> Vec<(JobId, SimTime, SimTime, u64)> {
            p.slices()
                .iter()
                .map(|s| (s.job, s.start, s.end, s.speed.to_bits()))
                .collect()
        };
        let mut warm = QeSolver::default();
        let mut discard_rounds = 0;
        for case in 0..runner.cases() {
            let mut rng = runner.rng_for_case(case);
            let raw = jobs_strategy.generate(&mut rng);
            let (now_draw, budget_kind, budget_draw, all_rigid, seed) =
                case_strategy.generate(&mut rng);
            let now = SimTime::from_micros(50_000 + now_draw);
            let mut ready: Vec<ReadyJob> = Vec::with_capacity(raw.len() + 2);
            let mut prev_off = 1;
            for (i, &(d_kind, d_us, w_draw, p_kind, frac, partial)) in raw.iter().enumerate() {
                // Deadlines 1 µs out, on whole ms (ties), anywhere, or
                // equal to the previous job's.
                let off = match d_kind {
                    0 => 1,
                    1 => (d_us % 5 + 1) * 1000,
                    2 => prev_off,
                    _ => d_us,
                };
                prev_off = off;
                let demand = 0.01 + 400.0 * w_draw;
                let mut job = Job::new(
                    i as u32,
                    SimTime::ZERO,
                    now + SimDuration::from_micros(off),
                    demand,
                )
                .unwrap();
                job.partial = partial && !all_rigid;
                // Sunk work rewinds the release before `now`.
                let processed = if p_kind == 0 { 0.0 } else { demand * frac };
                ready.push(ReadyJob { job, processed });
            }
            let n = ready.len() as u32;
            // Not live: expired at `now`, and finished.
            ready.push(ReadyJob::fresh(
                Job::new(n, SimTime::ZERO, now, 5.0).unwrap(),
            ));
            let done =
                Job::new(n + 1, SimTime::ZERO, now + SimDuration::from_millis(9), 5.0).unwrap();
            ready.push(ReadyJob {
                job: done,
                processed: 5.0,
            });
            let budget = match budget_kind {
                // A positive grant whose `s_max` rounds to 0.
                0 => f64::from_bits(1),
                1 => 1e-4 + budget_draw,
                2 => 0.5 + 40.0 * budget_draw,
                _ => 40.0 + 400.0 * budget_draw,
            };
            let mut sorted: Vec<ReadyJob> = ready
                .iter()
                .filter(|r| r.job.deadline > now && r.remaining() > 1e-9)
                .copied()
                .collect();
            sorted.sort_unstable_by_key(|r| (r.job.deadline, r.job.id));
            for mode in [OnlineMode::Eager, OnlineMode::Efficient] {
                let reference = QeSolver::default().solve(
                    now,
                    &shuffled(ready.clone(), seed),
                    &MODEL,
                    budget,
                    mode,
                );
                let (schedule, discarded) = warm.solve_sorted(now, &sorted, &MODEL, budget, mode);
                assert_eq!(
                    bits(&schedule),
                    bits(&reference.schedule),
                    "case {case} {mode:?}: schedules diverge"
                );
                assert_eq!(discarded, reference.discarded, "case {case} {mode:?}");
                discard_rounds += discarded.len();
            }
        }
        // The generator must reach the §V-D discard loop.
        assert!(discard_rounds > 100, "{discard_rounds} discards");
    }

    #[test]
    fn fractional_rewind_shifts_both_window_endpoints() {
        // A rewound release landing between µs ticks (processed ·
        // µs/unit fractional): the virtual instance must equal the
        // hand-shifted one — releases *and* deadlines moved by the same
        // integral µs amount. A skewed shift would change window lengths
        // and with them the volumes, so bitwise equality against
        // Quality-OPT over the hand-shifted jobs pins the construction.
        let now = SimTime::from_micros(1_000);
        let s_max = 1.0; // 1 unit per ms ⇒ µs/unit = 1000
        let mk = |id: u32, d_us: u64, w: f64, done: f64| ReadyJob {
            job: Job::new(id, SimTime::ZERO, SimTime::from_micros(d_us), w).unwrap(),
            processed: done,
        };
        // adj₀ = 1000 − 1250.25 = −250.25 (fractional, negative: sets the
        // shift); adj₁ = 1000 − 500.1 = 499.9 (fractional, positive).
        let active = vec![
            mk(0, 150_000, 200.0, 1.25025),
            mk(1, 160_000, 100.0, 0.5001),
        ];
        let got = myopic_volumes(now, &active, s_max);

        // Hand-shifted instance: S = ⌈250.25⌉ = 251 µs applied to both
        // endpoints, releases rounded after the shift.
        let shift = 251u64;
        let hand = JobSet::new(
            active
                .iter()
                .map(|r| {
                    let adj = now.as_micros() as f64 - r.processed * 1000.0 / s_max;
                    Job {
                        release: SimTime::from_micros((adj + shift as f64).round() as u64),
                        deadline: SimTime::from_micros(r.job.deadline.as_micros() + shift),
                        ..r.job
                    }
                })
                .collect(),
        )
        .unwrap();
        let qo = crate::quality_opt::quality_opt(&hand, s_max);
        for r in &active {
            assert_eq!(
                got[&r.job.id].to_bits(),
                qo.volume(r.job.id).to_bits(),
                "{:?}: rewound volumes diverged from the hand-shifted instance",
                r.job.id
            );
        }
    }

    #[test]
    fn discard_loop_stays_exact_when_rewind_shift_moves() {
        // Three unfinishable non-partial jobs, one carrying the prior
        // progress that defines the rewind shift. The §V-D loop crosses
        // both the resume path and the rebuild fallback (discarding the
        // shift-defining job changes the virtual geometry); the
        // debug_assertions cross-check in `solve` compares every round
        // against a from-scratch solve, so this test failing — or
        // panicking — means the invalidation contract broke.
        let now = ms(100);
        let mut a = rj(0, 0, 200, 120.0, 90.0);
        let mut b = rj(1, 0, 200, 120.0, 0.0);
        let mut c = rj(2, 0, 210, 120.0, 0.0);
        a.job.partial = false;
        b.job.partial = false;
        c.job.partial = false;
        let out = online_qe(now, &[a, b, c], &MODEL, 5.0); // 1 GHz
        assert!(!out.discarded.is_empty());
        // Whatever survives as non-partial is planned in full.
        for r in [a, b, c] {
            if !out.discarded.contains(&r.job.id) {
                assert!(
                    out.planned(r.job.id) >= r.job.demand - 1e-6,
                    "{:?} kept but unfinished: {}",
                    r.job.id,
                    out.planned(r.job.id)
                );
            }
        }
    }

    #[test]
    fn second_discard_does_not_resurrect_the_first() {
        // Regression (caught by the debug cross-check on a live sim):
        // with two discards in one invocation, resuming the decomposition
        // from a round recorded *before* the first discard must not
        // re-admit the already-discarded job — it lingers in early
        // snapshots as an unfixed participant and must be filtered by the
        // alive set. Pre-fix, the resurrected job depressed the
        // survivor's volume below its demand, cascading into a third
        // (wrong) discard.
        let now = SimTime::from_micros(148_242);
        let mk = |id, r_us: u64, d_us: u64, w: f64, done: f64| {
            let mut j = Job::new(
                id,
                SimTime::from_micros(r_us),
                SimTime::from_micros(d_us),
                w,
            )
            .unwrap();
            j.partial = false;
            ReadyJob {
                job: j,
                processed: done,
            }
        };
        let ready = vec![
            mk(
                0,
                0,
                150_000,
                130.413_085_928_557_14,
                126.038_570_647_654_17,
            ),
            mk(1, 74_993, 224_993, 152.765_002_805_252_75, 0.0),
            mk(2, 124_422, 274_422, 256.164_825_893_611, 0.0),
        ];
        let budget = MODEL.dynamic_power(2.391_620_727_883_861);
        let out = online_qe(now, &ready, &MODEL, budget);
        assert_eq!(out.discarded.len(), 2, "discarded: {:?}", out.discarded);
        let kept = ready
            .iter()
            .find(|r| !out.discarded.contains(&r.job.id))
            .unwrap();
        assert!(
            out.planned(kept.job.id) >= kept.job.demand - 1e-6,
            "{:?} kept but unfinished: {}",
            kept.job.id,
            out.planned(kept.job.id)
        );
    }

    #[test]
    fn changing_budget_between_invocations_is_sound() {
        // First invocation at high budget, second at low: the second plan
        // still respects its (smaller) budget.
        let ready = vec![rj(0, 0, 150, 300.0, 0.0), rj(1, 0, 150, 300.0, 0.0)];
        let out1 = online_qe(ms(0), &ready, &MODEL, 45.0); // 3 GHz
        assert!(out1.max_speed > 2.9);
        // Pretend 50 units of job 0 ran, then budget drops.
        let ready2 = vec![rj(0, 0, 150, 300.0, 50.0), rj(1, 0, 150, 300.0, 0.0)];
        let out2 = online_qe(ms(20), &ready2, &MODEL, 5.0); // 1 GHz
        let jobs = JobSet::new(ready2.iter().map(|r| r.job).collect()).unwrap();
        Schedule::single(out2.schedule.clone())
            .validate_with_tolerance(&jobs, &MODEL, 5.0, 0.05, 1e-6)
            .unwrap();
        assert!(out2.schedule.speed_plan().max_speed() <= 1.0 + 1e-9);
    }
}
