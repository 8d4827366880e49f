//! The contract between scheduling policies and the simulation engine.
//!
//! The engine owns all state (waiting queue, per-core job sets, progress,
//! energy accounting). On every triggering event (§IV-E) it builds a
//! read-only [`SystemView`] and asks the policy for a [`PolicyDecision`]:
//! which queued jobs move to which cores, which per-core plans replace the
//! current ones, and which jobs are abandoned.

use qes_core::job::JobId;
use qes_core::power::PowerModel;
use qes_core::schedule::CoreSchedule;
use qes_core::time::{SimDuration, SimTime};
use qes_singlecore::online_qe::ReadyJob;

/// What one core looks like at a trigger instant.
///
/// The view *borrows* the engine's per-core job list — building a
/// [`SystemView`] is allocation-free, so policies with cheap decisions
/// (the one-job-at-a-time baselines) are not taxed by snapshot copies on
/// every trigger.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoreView<'a> {
    /// Unfinished, unexpired jobs assigned to this core (non-migratory),
    /// with their processed volumes. Includes the running job, if any.
    ///
    /// The engine keeps this list in strictly increasing (deadline, id)
    /// order, the core's EDF order, so a policy can read it as sorted
    /// without copying it. Views built by hand (tests) need not follow
    /// that order; a policy that relies on it checks it first.
    pub jobs: &'a [ReadyJob],
    /// True if the core still has planned work from the previous decision.
    pub busy: bool,
}

impl CoreView<'_> {
    /// Jobs still live at `now` with remaining work.
    pub fn live_jobs(&self, now: SimTime) -> impl Iterator<Item = ReadyJob> + '_ {
        self.jobs.iter().filter(move |r| r.is_live(now)).copied()
    }
}

/// Read-only snapshot handed to the policy at each trigger.
pub struct SystemView<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// Arrived, not-yet-assigned jobs, in arrival order.
    pub queue: &'a [ReadyJob],
    /// Per-core state.
    pub cores: &'a [CoreView<'a>],
    /// Total dynamic power budget `H` (W).
    pub budget: f64,
    /// The per-core power model.
    pub model: &'a dyn PowerModel,
}

impl SystemView<'_> {
    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }
}

/// What the policy wants done.
#[derive(Clone, Debug, Default)]
pub struct PolicyDecision {
    /// Queued jobs to move onto cores: `(job, core index)`. A job may be
    /// assigned at most once and stays on its core forever (non-migratory).
    pub assignments: Vec<(JobId, usize)>,
    /// Replacement plan per core, with slices starting at or after the
    /// trigger instant. `None` keeps the core's current plan; a vector
    /// shorter than the core count keeps the plans of the missing tail
    /// (so an empty vector keeps every core's plan).
    ///
    /// The engine takes each plan's slice vector by value and keeps it as
    /// the core's plan, trimmed in place to the scheduling stall; it
    /// copies no slices. The vector a new plan replaces goes to the
    /// per-thread free list of `qes_core::schedule`
    /// ([`recycle_slices`](qes_core::schedule::recycle_slices)), so a
    /// policy that builds its plans in vectors from
    /// [`slice_vec`](qes_core::schedule::slice_vec) installs them without
    /// allocating.
    pub plans: Vec<Option<CoreSchedule>>,
    /// Jobs abandoned now (engine stops tracking them; their quality is
    /// settled from whatever volume they already processed).
    pub discarded: Vec<JobId>,
    /// Speed each core runs at while *not* executing a slice, until the
    /// next decision. Empty leaves the previous ambient speeds in place;
    /// they start at zero (cores gate off when idle — the C-DVFS
    /// behaviour). No-DVFS cores cannot scale down and spin at their
    /// fixed speed; S-DVFS cores are locked to the shared clock (§V-A),
    /// so both report nonzero ambient speeds here.
    ///
    /// **Length contract:** either empty or exactly one entry per core.
    /// Any other length is a policy bug: the engine rejects it with a
    /// `debug_assert!` and ignores the vector in release builds rather
    /// than misattributing speeds to the wrong cores.
    pub ambient_speeds: Vec<f64>,
}

impl PolicyDecision {
    /// A decision that keeps every core's current plan. Allocation-free:
    /// an empty `plans` vector means "no replacements", whatever the core
    /// count.
    pub fn keep_all(_num_cores: usize) -> Self {
        PolicyDecision::default()
    }
}

/// Which of the §IV-E triggering events a policy wants.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TriggerRequest {
    /// Quantum trigger: invoke every `Some(q)` of simulated time.
    pub quantum: Option<SimDuration>,
    /// Counter trigger: invoke when this many jobs are waiting.
    pub counter: Option<usize>,
    /// Idle-core trigger: invoke when a core runs out of planned work.
    pub on_idle: bool,
    /// Gate the idle-core trigger on waiting work: a core running out of
    /// planned work (`PlanEnd`) only re-invokes the policy when at least
    /// one live job is waiting in the queue. §IV-E's idle trigger exists
    /// "to start assigning more jobs" — with nothing to assign, the
    /// invocation can only re-derive the plans it already produced, so
    /// grouped scheduling skips it. A job arriving while a core sits idle
    /// still fires immediately (the arrival itself is the waiting work).
    pub idle_requires_work: bool,
    /// Invoke on every job arrival (used by the one-job-at-a-time
    /// baselines, which otherwise would never see a job that arrives
    /// while cores sit idle).
    pub on_arrival: bool,
}

impl TriggerRequest {
    /// The paper's DES defaults (§V-B): 500 ms quantum, counter of 8,
    /// idle-core trigger on — grouped scheduling, so the idle trigger
    /// only fires when there is waiting work to assign.
    pub fn paper_default() -> Self {
        TriggerRequest {
            quantum: Some(SimDuration::from_millis(500)),
            counter: Some(8),
            on_idle: true,
            idle_requires_work: true,
            on_arrival: false,
        }
    }

    /// §IV-E "Immediate Scheduling": invoke on every arrival and on
    /// every plan end, no batching. The strawman grouped scheduling is
    /// measured against (and the differential suite's reference).
    pub fn per_event() -> Self {
        TriggerRequest {
            quantum: None,
            counter: None,
            on_idle: true,
            idle_requires_work: false,
            on_arrival: true,
        }
    }

    /// Baseline schedulers: react to idle cores and arrivals only. The
    /// idle trigger stays ungated — the +WF baselines re-level power on
    /// every plan end even with an empty queue.
    pub fn baseline() -> Self {
        TriggerRequest {
            quantum: None,
            counter: None,
            on_idle: true,
            idle_requires_work: false,
            on_arrival: true,
        }
    }
}

/// A multicore scheduling policy driven by the simulation engine.
pub trait SchedulingPolicy {
    /// Human-readable name used in reports.
    fn name(&self) -> String;

    /// The triggering events this policy wants.
    fn triggers(&self) -> TriggerRequest;

    /// Produce a decision for the current system state. Called on every
    /// trigger; the engine has already advanced all progress to
    /// `view.now`.
    fn on_trigger(&mut self, view: &SystemView<'_>) -> PolicyDecision;

    /// Drain policy-internal observability counters into `sink` as
    /// `(name, monotonic value)` pairs. The engine calls this once at the
    /// end of an observed run and forwards each pair as a
    /// `PolicyCounter` event (`qes_core::obs`); unobserved runs never
    /// call it. Names should be stable, dot-separated, and prefixed with
    /// the policy family (e.g. `des.qe_solve`). The default reports
    /// nothing.
    fn metrics(&self, _sink: &mut dyn FnMut(&'static str, u64)) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use qes_core::job::Job;

    #[test]
    fn live_jobs_filters_expired_and_finished() {
        let ms = SimTime::from_millis;
        let mk = |id, d, w, done| ReadyJob {
            job: Job::new(id, ms(0), ms(d), w).unwrap(),
            processed: done,
        };
        let jobs = [
            mk(0, 100, 50.0, 0.0),
            mk(1, 100, 50.0, 50.0),
            mk(2, 10, 50.0, 0.0),
        ];
        let core = CoreView {
            jobs: &jobs,
            busy: true,
        };
        let live: Vec<_> = core.live_jobs(ms(50)).collect();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].job.id.0, 0);
    }

    #[test]
    fn default_trigger_profiles() {
        let d = TriggerRequest::paper_default();
        assert_eq!(d.quantum, Some(SimDuration::from_millis(500)));
        assert_eq!(d.counter, Some(8));
        assert!(d.on_idle);
        assert!(d.idle_requires_work);
        assert!(!d.on_arrival);
        let b = TriggerRequest::baseline();
        assert!(b.on_idle && b.on_arrival);
        assert!(!b.idle_requires_work);
        assert!(b.quantum.is_none() && b.counter.is_none());
        let p = TriggerRequest::per_event();
        assert!(p.on_idle && p.on_arrival && !p.idle_requires_work);
        assert!(p.quantum.is_none() && p.counter.is_none());
    }

    #[test]
    fn keep_all_preserves_plans() {
        let d = PolicyDecision::keep_all(3);
        assert!(d.plans.iter().all(|p| p.is_none()));
        assert!(d.assignments.is_empty());
        assert!(d.discarded.is_empty());
        assert!(d.ambient_speeds.is_empty());
    }
}
