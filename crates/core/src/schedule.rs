//! Multicore schedules and feasibility validation (paper §II-B/§II-C).
//!
//! A [`Schedule`] is a set of per-core [`Slice`]s: job `j` runs on core `i`
//! at speed `s` over `[start, end)`. The model is non-migratory — once a
//! job has a slice on a core, all its slices are on that core. Validation
//! checks every constraint the paper imposes: windows, non-overlap,
//! non-migration, the instantaneous power budget, and no over-processing.
//!
//! A plan's slice vector is recycled rather than freed: the simulation
//! engine owns each installed plan's vector and hands the one a new plan
//! replaces to [`recycle_slices`], and the online planners build their
//! plans in vectors from [`slice_vec`]. The free list behind the two is
//! per thread and holds at most [`FREE_SLICE_VECS`] vectors.

use std::cell::RefCell;
use std::collections::HashMap;

use crate::error::QesError;
use crate::job::{JobId, JobSet};
use crate::power::PowerModel;
use crate::speed::{SpeedPlan, SpeedSegment};
use crate::time::SimTime;
use crate::volume;

/// One contiguous execution of a job on a core at a constant speed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Slice {
    /// Which job runs.
    pub job: JobId,
    /// Start instant (inclusive).
    pub start: SimTime,
    /// End instant (exclusive).
    pub end: SimTime,
    /// Core speed in GHz during the slice.
    pub speed: f64,
}

impl Slice {
    /// Work volume processed by this slice.
    #[inline]
    pub fn volume(&self) -> f64 {
        volume(self.speed, self.end.saturating_since(self.start))
    }
}

/// The most slice vectors a thread's free list keeps; a vector returned
/// to a full list is freed. A run replaces at most one plan per core per
/// invocation, so this covers a 32-core machine's whole batch.
pub const FREE_SLICE_VECS: usize = 32;

thread_local! {
    static FREE: RefCell<Vec<Vec<Slice>>> = const { RefCell::new(Vec::new()) };
}

/// An empty slice vector for a new plan: a recycled one from this
/// thread's free list (keeping its capacity), or a new, unallocated one.
#[inline]
pub fn slice_vec() -> Vec<Slice> {
    FREE.with(|f| f.borrow_mut().pop()).unwrap_or_default()
}

/// Clear `slices` and keep it on this thread's free list for
/// [`slice_vec`]; a vector that never allocated, or one that finds the
/// list full, is dropped.
#[inline]
pub fn recycle_slices(mut slices: Vec<Slice>) {
    if slices.capacity() == 0 {
        return;
    }
    slices.clear();
    FREE.with(|f| {
        let mut free = f.borrow_mut();
        if free.len() < FREE_SLICE_VECS {
            free.push(slices);
        }
    });
}

/// The slices of a single core, kept in start order.
#[derive(Clone, Debug, Default)]
pub struct CoreSchedule {
    slices: Vec<Slice>,
}

impl CoreSchedule {
    /// Build from slices (sorted by start; empty slices dropped).
    pub fn new(mut slices: Vec<Slice>) -> Self {
        slices.retain(|s| s.end > s.start && s.speed > 0.0);
        slices.sort_by_key(|s| (s.start, s.end));
        CoreSchedule { slices }
    }

    /// Build from slices that [`Self::new`] would keep as they are: each
    /// non-empty at a positive speed, already in `(start, end)` order.
    /// Debug builds check the precondition.
    pub fn from_sorted(slices: Vec<Slice>) -> Self {
        debug_assert!(
            slices.iter().all(|s| s.end > s.start && s.speed > 0.0),
            "from_sorted given an empty slice or a non-positive speed"
        );
        debug_assert!(
            slices
                .windows(2)
                .all(|w| (w[0].start, w[0].end) <= (w[1].start, w[1].end)),
            "from_sorted given slices out of time order"
        );
        CoreSchedule { slices }
    }

    /// The slices in time order.
    #[inline]
    pub fn slices(&self) -> &[Slice] {
        &self.slices
    }

    /// The slice vector, in time order, by value.
    #[inline]
    pub fn into_slices(self) -> Vec<Slice> {
        self.slices
    }

    /// True if the core never runs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }

    /// The speed profile implied by the slices.
    pub fn speed_plan(&self) -> SpeedPlan {
        SpeedPlan::new(
            self.slices
                .iter()
                .map(|s| SpeedSegment {
                    start: s.start,
                    end: s.end,
                    speed: s.speed,
                })
                .collect(),
        )
    }

    /// Volume processed per job on this core.
    pub fn volumes(&self) -> HashMap<JobId, f64> {
        let mut m = HashMap::new();
        for s in &self.slices {
            *m.entry(s.job).or_insert(0.0) += s.volume();
        }
        m
    }

    /// Dynamic energy of the core's plan.
    pub fn energy(&self, model: &dyn PowerModel) -> f64 {
        self.speed_plan().total_energy(model)
    }
}

/// A complete multicore schedule.
#[derive(Clone, Debug, Default)]
pub struct Schedule {
    cores: Vec<CoreSchedule>,
}

impl Schedule {
    /// A schedule with `m` idle cores.
    pub fn idle(m: usize) -> Self {
        Schedule {
            cores: vec![CoreSchedule::default(); m],
        }
    }

    /// Build from per-core schedules.
    pub fn new(cores: Vec<CoreSchedule>) -> Self {
        Schedule { cores }
    }

    /// Build a single-core schedule.
    pub fn single(core: CoreSchedule) -> Self {
        Schedule { cores: vec![core] }
    }

    /// Per-core schedules.
    #[inline]
    pub fn cores(&self) -> &[CoreSchedule] {
        &self.cores
    }

    /// Number of cores.
    #[inline]
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// All slices, tagged with their core index.
    pub fn all_slices(&self) -> impl Iterator<Item = (usize, &Slice)> {
        self.cores
            .iter()
            .enumerate()
            .flat_map(|(i, c)| c.slices().iter().map(move |s| (i, s)))
    }

    /// Volume processed per job across all cores.
    pub fn volumes(&self) -> HashMap<JobId, f64> {
        let mut m = HashMap::new();
        for c in &self.cores {
            for (id, v) in c.volumes() {
                *m.entry(id).or_insert(0.0) += v;
            }
        }
        m
    }

    /// Total dynamic energy (J) of the schedule.
    pub fn total_energy(&self, model: &dyn PowerModel) -> f64 {
        self.cores.iter().map(|c| c.energy(model)).sum()
    }

    /// Instantaneous total dynamic power at `t`.
    pub fn power_at(&self, t: SimTime, model: &dyn PowerModel) -> f64 {
        self.cores
            .iter()
            .map(|c| c.speed_plan().power_at(t, model))
            .sum()
    }

    /// Validate every model constraint against `jobs`:
    ///
    /// 1. every slice's job exists;
    /// 2. slices stay within their job's `[release, deadline]` window;
    /// 3. slices on one core do not overlap;
    /// 4. no job migrates between cores;
    /// 5. no job is processed beyond its demand (+`vol_eps` units);
    /// 6. total power never exceeds `budget` (+`power_eps` W), checked at
    ///    every slice boundary (power is piecewise constant, so boundaries
    ///    suffice).
    pub fn validate(
        &self,
        jobs: &JobSet,
        model: &dyn PowerModel,
        budget: f64,
    ) -> Result<(), QesError> {
        self.validate_with_tolerance(jobs, model, budget, 1e-6, 1e-6)
    }

    /// [`Schedule::validate`] with explicit tolerances.
    pub fn validate_with_tolerance(
        &self,
        jobs: &JobSet,
        model: &dyn PowerModel,
        budget: f64,
        vol_eps: f64,
        power_eps: f64,
    ) -> Result<(), QesError> {
        let mut home: HashMap<JobId, usize> = HashMap::new();
        for (core_idx, core) in self.cores.iter().enumerate() {
            // (3) non-overlap within a core (slices are start-sorted).
            for w in core.slices().windows(2) {
                if w[1].start < w[0].end {
                    return Err(QesError::OverlappingSlices {
                        core: core_idx,
                        at: w[1].start,
                    });
                }
            }
            for s in core.slices() {
                // (1) known job; (2) window containment.
                let job = jobs.get(s.job).ok_or(QesError::UnknownJob { job: s.job })?;
                if s.start < job.release || s.end > job.deadline {
                    return Err(QesError::SliceOutsideWindow {
                        job: s.job,
                        core: core_idx,
                    });
                }
                // (4) non-migration.
                match home.get(&s.job) {
                    Some(&c0) if c0 != core_idx => {
                        return Err(QesError::Migration {
                            job: s.job,
                            first_core: c0,
                            second_core: core_idx,
                        })
                    }
                    None => {
                        home.insert(s.job, core_idx);
                    }
                    _ => {}
                }
            }
        }
        // (5) processed volume within demand.
        for (id, v) in self.volumes() {
            let job = jobs.get(id).expect("checked above");
            if v > job.demand + vol_eps {
                return Err(QesError::OverProcessed {
                    job: id,
                    processed: v,
                    demand: job.demand,
                });
            }
        }
        // (6) power budget at every boundary instant.
        let mut instants: Vec<SimTime> = self
            .all_slices()
            .flat_map(|(_, s)| [s.start, s.end])
            .collect();
        instants.sort();
        instants.dedup();
        for &t in &instants {
            let p = self.power_at(t, model);
            if p > budget + power_eps {
                return Err(QesError::PowerBudgetExceeded {
                    at: t,
                    power: p,
                    budget,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use crate::power::PolynomialPower;

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    fn jobset() -> JobSet {
        JobSet::new(vec![
            Job::new(0, ms(0), ms(150), 200.0).unwrap(),
            Job::new(1, ms(10), ms(160), 100.0).unwrap(),
        ])
        .unwrap()
    }

    fn slice(j: u32, a: u64, b: u64, s: f64) -> Slice {
        Slice {
            job: JobId(j),
            start: ms(a),
            end: ms(b),
            speed: s,
        }
    }

    #[test]
    fn valid_schedule_passes() {
        let jobs = jobset();
        let sched = Schedule::new(vec![
            CoreSchedule::new(vec![slice(0, 0, 100, 2.0)]), // 200 units
            CoreSchedule::new(vec![slice(1, 10, 110, 1.0)]), // 100 units
        ]);
        let m = PolynomialPower::PAPER_SIM;
        sched.validate(&jobs, &m, 320.0).unwrap();
        let vols = sched.volumes();
        assert!((vols[&JobId(0)] - 200.0).abs() < 1e-9);
        assert!((vols[&JobId(1)] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_window_violation() {
        let jobs = jobset();
        let sched = Schedule::single(CoreSchedule::new(vec![slice(1, 0, 50, 1.0)])); // starts before release
        let m = PolynomialPower::PAPER_SIM;
        assert!(matches!(
            sched.validate(&jobs, &m, 320.0),
            Err(QesError::SliceOutsideWindow { .. })
        ));
    }

    #[test]
    fn rejects_overlap() {
        let jobs = jobset();
        let sched = Schedule::single(CoreSchedule::new(vec![
            slice(0, 0, 50, 1.0),
            slice(1, 40, 90, 1.0),
        ]));
        let m = PolynomialPower::PAPER_SIM;
        assert!(matches!(
            sched.validate(&jobs, &m, 320.0),
            Err(QesError::OverlappingSlices { .. })
        ));
    }

    #[test]
    fn rejects_migration() {
        let jobs = jobset();
        let sched = Schedule::new(vec![
            CoreSchedule::new(vec![slice(0, 0, 50, 1.0)]),
            CoreSchedule::new(vec![slice(0, 60, 100, 1.0)]),
        ]);
        let m = PolynomialPower::PAPER_SIM;
        assert!(matches!(
            sched.validate(&jobs, &m, 320.0),
            Err(QesError::Migration { .. })
        ));
    }

    #[test]
    fn rejects_power_budget_violation() {
        let jobs = jobset();
        // Two cores at 2 GHz = 40 W > 30 W budget.
        let sched = Schedule::new(vec![
            CoreSchedule::new(vec![slice(0, 0, 100, 2.0)]),
            CoreSchedule::new(vec![slice(1, 10, 60, 2.0)]),
        ]);
        let m = PolynomialPower::PAPER_SIM;
        assert!(matches!(
            sched.validate(&jobs, &m, 30.0),
            Err(QesError::PowerBudgetExceeded { .. })
        ));
        // But it passes a 40 W budget.
        sched.validate(&jobs, &m, 40.0).unwrap();
    }

    #[test]
    fn rejects_over_processing() {
        let jobs = jobset();
        // Job 1 demands 100 units; 2 GHz × 100 ms = 200 units.
        let sched = Schedule::single(CoreSchedule::new(vec![slice(1, 10, 110, 2.0)]));
        let m = PolynomialPower::PAPER_SIM;
        assert!(matches!(
            sched.validate(&jobs, &m, 320.0),
            Err(QesError::OverProcessed { .. })
        ));
    }

    #[test]
    fn rejects_unknown_job() {
        let jobs = jobset();
        let sched = Schedule::single(CoreSchedule::new(vec![slice(7, 0, 10, 1.0)]));
        let m = PolynomialPower::PAPER_SIM;
        assert!(matches!(
            sched.validate(&jobs, &m, 320.0),
            Err(QesError::UnknownJob { .. })
        ));
    }

    #[test]
    fn energy_aggregates() {
        let sched = Schedule::new(vec![
            CoreSchedule::new(vec![slice(0, 0, 100, 2.0)]),
            CoreSchedule::new(vec![slice(1, 10, 110, 1.0)]),
        ]);
        let m = PolynomialPower::PAPER_SIM;
        // Energy: 20 W × 0.1 s + 5 W × 0.1 s = 2.5 J.
        assert!((sched.total_energy(&m) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn free_list_reuses_vectors_up_to_its_bound() {
        let drain = || {
            std::iter::from_fn(|| Some(slice_vec()))
                .take_while(|v| v.capacity() > 0)
                .count()
        };
        drain();
        recycle_slices(Vec::new());
        assert_eq!(
            slice_vec().capacity(),
            0,
            "an unallocated vector is not kept"
        );
        let mut v = vec![slice(0, 0, 10, 1.0); 5];
        let ptr = v.as_ptr();
        v.truncate(2);
        recycle_slices(v);
        let reused = slice_vec();
        assert!(reused.is_empty());
        assert_eq!(reused.as_ptr(), ptr, "the recycled allocation comes back");
        for _ in 0..FREE_SLICE_VECS + 3 {
            recycle_slices(Vec::with_capacity(1));
        }
        assert_eq!(drain(), FREE_SLICE_VECS);
    }

    #[test]
    fn idle_schedule_is_valid_and_free() {
        let jobs = jobset();
        let sched = Schedule::idle(4);
        let m = PolynomialPower::PAPER_SIM;
        sched.validate(&jobs, &m, 0.0).unwrap();
        assert_eq!(sched.total_energy(&m), 0.0);
        assert_eq!(sched.num_cores(), 4);
    }
}
