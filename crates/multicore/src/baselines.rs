//! Baseline schedulers: FCFS, LJF, SJF, each ± WF (paper §V-A, §V-E).
//!
//! The comparison policies are classic one-job-per-core schedulers:
//! whenever a core becomes idle, one job is taken from the ready queue —
//! the earliest-released (FCFS, equivalent to EDF under agreeable
//! deadlines), the largest (LJF) or the smallest (SJF) — and executed at
//! the *slowest* speed that finishes it before its deadline, to save
//! energy. If the core's power share cannot fund that speed, the job runs
//! at the share's maximum speed until its deadline (a partial result).
//!
//! Power sharing is *static equal* by default (every core owns `H/m`,
//! like S-DVFS hardware would enforce); the `+WF` variants redistribute
//! the budget dynamically over the cores' current speed requests with the
//! same water-filling policy DES uses, re-scaling running jobs at every
//! trigger.

use qes_core::schedule::{slice_vec, CoreSchedule, Slice};
use qes_core::speed_for_volume;
use qes_core::time::{SimDuration, SimTime};
use qes_singlecore::online_qe::ReadyJob;

use crate::policy::{PolicyDecision, SchedulingPolicy, SystemView, TriggerRequest};
use crate::water_filling::water_filling_with_rounds;

/// Queue discipline of a baseline scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BaselineOrder {
    /// First-come first-served (≡ EDF for agreeable deadlines).
    Fcfs,
    /// Longest job first (largest service demand).
    Ljf,
    /// Shortest job first (smallest service demand).
    Sjf,
}

impl BaselineOrder {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            BaselineOrder::Fcfs => "FCFS",
            BaselineOrder::Ljf => "LJF",
            BaselineOrder::Sjf => "SJF",
        }
    }

    /// Sort the waiting queue according to the discipline. Every key
    /// ends in the job id, so the order is total and an unstable sort
    /// (which allocates nothing) gives the stable sort's order.
    fn sort(self, queue: &mut [ReadyJob]) {
        match self {
            BaselineOrder::Fcfs => queue.sort_unstable_by_key(|a| (a.job.release, a.job.id)),
            BaselineOrder::Ljf => queue.sort_unstable_by(|a, b| {
                b.job
                    .demand
                    .total_cmp(&a.job.demand)
                    .then(a.job.id.cmp(&b.job.id))
            }),
            BaselineOrder::Sjf => queue.sort_unstable_by(|a, b| {
                a.job
                    .demand
                    .total_cmp(&b.job.demand)
                    .then(a.job.id.cmp(&b.job.id))
            }),
        }
    }
}

/// A baseline scheduling policy.
#[derive(Clone, Debug)]
pub struct BaselinePolicy {
    order: BaselineOrder,
    use_wf: bool,
    scratch: Scratch,
}

/// A trigger's working vectors, kept across triggers so that a trigger
/// allocates only the decision it returns.
#[derive(Clone, Debug, Default)]
struct Scratch {
    /// Current occupant (live, unfinished job) per core.
    occupant: Vec<Option<ReadyJob>>,
    /// Whether the core's occupant was assigned by this trigger.
    newly_assigned: Vec<bool>,
    /// The live waiting jobs in the discipline's order.
    queue: Vec<ReadyJob>,
    /// Slowest deadline-meeting speed per core.
    desired: Vec<f64>,
    /// Water-filling's requests, grants and outstanding requests.
    requests: Vec<f64>,
    grants: Vec<f64>,
    rest: Vec<(usize, f64)>,
}

impl BaselinePolicy {
    /// Baseline with static equal power sharing (the paper's default).
    pub fn new(order: BaselineOrder) -> Self {
        BaselinePolicy {
            order,
            use_wf: false,
            scratch: Scratch::default(),
        }
    }

    /// Baseline enhanced with dynamic WF power distribution (§V-E Fig. 6).
    pub fn with_wf(order: BaselineOrder) -> Self {
        BaselinePolicy {
            order,
            use_wf: true,
            scratch: Scratch::default(),
        }
    }

    /// The queue discipline.
    pub fn order(&self) -> BaselineOrder {
        self.order
    }
}

/// One slice running `job` from `now`: at `speed`, until it completes or
/// hits its deadline.
fn run_slice(now: SimTime, r: &ReadyJob, speed: f64) -> Option<Slice> {
    if speed <= 0.0 {
        return None;
    }
    let us = r.remaining() * 1000.0 / speed;
    // A tiny speed makes `us` huge: the cast saturates, and so does the
    // add, so the slice then runs to the deadline.
    let end = (now + SimDuration::from_micros(us.round() as u64)).min(r.job.deadline);
    (end > now).then_some(Slice {
        job: r.job.id,
        start: now,
        end,
        speed,
    })
}

impl SchedulingPolicy for BaselinePolicy {
    fn name(&self) -> String {
        if self.use_wf {
            format!("{}+WF", self.order.name())
        } else {
            self.order.name().to_string()
        }
    }

    fn triggers(&self) -> TriggerRequest {
        TriggerRequest::baseline()
    }

    fn on_trigger(&mut self, view: &SystemView<'_>) -> PolicyDecision {
        let m = view.num_cores();
        let now = view.now;

        // Fast path: static sharing with every core occupied. Nothing can
        // be assigned and no running slice changes, so skip the queue
        // sort and plan construction entirely — on a loaded server most
        // arrival triggers land here.
        if !self.use_wf && view.cores.iter().all(|c| c.live_jobs(now).next().is_some()) {
            return PolicyDecision::keep_all(m);
        }

        let s = &mut self.scratch;
        s.occupant.clear();
        s.occupant
            .extend(view.cores.iter().map(|c| c.live_jobs(now).next()));

        // Fill idle cores from the ordered queue.
        s.queue.clear();
        s.queue
            .extend(view.queue.iter().filter(|r| r.is_live(now)).copied());
        self.order.sort(&mut s.queue);
        let mut waiting = s.queue.iter();
        let mut assignments = Vec::new();
        s.newly_assigned.clear();
        s.newly_assigned.resize(m, false);
        for (core, occ) in s.occupant.iter_mut().enumerate() {
            if occ.is_none() {
                if let Some(&job) = waiting.next() {
                    assignments.push((job.job.id, core));
                    *occ = Some(job);
                    s.newly_assigned[core] = true;
                }
            }
        }

        // Desired (slowest deadline-meeting) speed per core.
        s.desired.clear();
        s.desired.extend(s.occupant.iter().map(|occ| {
            occ.map(|r| speed_for_volume(r.remaining(), r.job.deadline.saturating_since(now)))
                .unwrap_or(0.0)
        }));

        // Power caps: static equal share, or water-filled over requests.
        if self.use_wf {
            s.requests.clear();
            s.requests
                .extend(s.desired.iter().map(|&x| view.model.dynamic_power(x)));
            water_filling_with_rounds(&s.requests, view.budget, &mut s.grants, &mut s.rest);
        }
        let share = view.budget / m as f64;

        // Plans: replan a core when its job is new, or (under WF) whenever
        // it has a job at all — the cap may have moved.
        let mut plans: Vec<Option<CoreSchedule>> = vec![None; m];
        for (core, slot) in plans.iter_mut().enumerate() {
            let Some(r) = s.occupant[core] else {
                // An occupant-less core keeps its (empty) plan.
                continue;
            };
            if !self.use_wf && !s.newly_assigned[core] {
                continue; // static sharing: the running slice is unchanged
            }
            let cap = if self.use_wf { s.grants[core] } else { share };
            let cap_speed = view.model.speed_for_dynamic_power(cap);
            let speed = s.desired[core].min(cap_speed);
            let plan = run_slice(now, &r, speed)
                .map(|s| {
                    let mut slices = slice_vec();
                    slices.push(s);
                    CoreSchedule::new(slices)
                })
                .unwrap_or_default();
            *slot = Some(plan);
        }

        PolicyDecision {
            assignments,
            plans,
            discarded: Vec::new(),
            ambient_speeds: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::CoreView;
    use qes_core::job::{Job, JobId};
    use qes_core::power::{PolynomialPower, PowerModel};

    const MODEL: PolynomialPower = PolynomialPower::PAPER_SIM;

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    fn rj(id: u32, r: u64, d: u64, w: f64) -> ReadyJob {
        ReadyJob {
            job: Job::new(id, ms(r), ms(d), w).unwrap(),
            processed: 0.0,
        }
    }

    fn view<'a>(
        now: SimTime,
        queue: &'a [ReadyJob],
        cores: &'a [CoreView<'a>],
        budget: f64,
    ) -> SystemView<'a> {
        SystemView {
            now,
            queue,
            cores,
            budget,
            model: &MODEL,
        }
    }

    #[test]
    fn names() {
        assert_eq!(BaselinePolicy::new(BaselineOrder::Fcfs).name(), "FCFS");
        assert_eq!(BaselinePolicy::with_wf(BaselineOrder::Sjf).name(), "SJF+WF");
        assert_eq!(BaselinePolicy::new(BaselineOrder::Ljf).name(), "LJF");
    }

    #[test]
    fn fcfs_picks_earliest_release() {
        let mut p = BaselinePolicy::new(BaselineOrder::Fcfs);
        let queue = vec![
            rj(0, 20, 170, 50.0),
            rj(1, 5, 155, 90.0),
            rj(2, 10, 160, 10.0),
        ];
        let cores = vec![CoreView::default()];
        let d = p.on_trigger(&view(ms(30), &queue, &cores, 20.0));
        assert_eq!(d.assignments, vec![(JobId(1), 0)]);
    }

    #[test]
    fn ljf_picks_largest_sjf_smallest() {
        let queue = vec![
            rj(0, 0, 150, 50.0),
            rj(1, 0, 150, 90.0),
            rj(2, 0, 150, 10.0),
        ];
        let cores = vec![CoreView::default()];
        let mut ljf = BaselinePolicy::new(BaselineOrder::Ljf);
        let d = ljf.on_trigger(&view(ms(0), &queue, &cores, 20.0));
        assert_eq!(d.assignments[0].0, JobId(1));
        let mut sjf = BaselinePolicy::new(BaselineOrder::Sjf);
        let d = sjf.on_trigger(&view(ms(0), &queue, &cores, 20.0));
        assert_eq!(d.assignments[0].0, JobId(2));
    }

    #[test]
    fn runs_at_slowest_deadline_meeting_speed() {
        let mut p = BaselinePolicy::new(BaselineOrder::Fcfs);
        // 100 units, 200 ms window → 0.5 GHz, well under the 2 GHz cap.
        let queue = vec![rj(0, 0, 200, 100.0)];
        let cores = vec![CoreView::default()];
        let d = p.on_trigger(&view(ms(0), &queue, &cores, 20.0));
        let plan = d.plans[0].as_ref().unwrap();
        let s = &plan.slices()[0];
        assert!((s.speed - 0.5).abs() < 1e-9);
        assert_eq!(s.end, ms(200)); // finishes exactly at the deadline
    }

    #[test]
    fn tiny_speed_runs_to_the_deadline_without_overflow() {
        // A vanishing budget funds a speed so low that the job's run time
        // exceeds the µs range: the slice must still be [now, deadline).
        let mut p = BaselinePolicy::new(BaselineOrder::Fcfs);
        let queue = vec![rj(0, 0, 150, 50.0)];
        let cores = vec![CoreView::default()];
        let d = p.on_trigger(&view(ms(10), &queue, &cores, 1e-300));
        let s = d.plans[0].as_ref().unwrap().slices();
        assert_eq!(s.len(), 1);
        assert_eq!((s[0].start, s[0].end), (ms(10), ms(150)));
    }

    #[test]
    fn clamps_at_share_speed_and_runs_to_deadline() {
        let mut p = BaselinePolicy::new(BaselineOrder::Fcfs);
        // 400 units in 100 ms needs 4 GHz; share 20 W allows 2 GHz.
        let queue = vec![rj(0, 0, 100, 400.0)];
        let cores = vec![CoreView::default()];
        let d = p.on_trigger(&view(ms(0), &queue, &cores, 20.0));
        let s = &d.plans[0].as_ref().unwrap().slices()[0];
        assert!((s.speed - 2.0).abs() < 1e-9);
        assert_eq!(s.end, ms(100)); // till deadline, partial result
    }

    #[test]
    fn one_job_per_core_at_a_time() {
        let mut p = BaselinePolicy::new(BaselineOrder::Fcfs);
        let queue = vec![
            rj(0, 0, 150, 50.0),
            rj(1, 0, 150, 50.0),
            rj(2, 0, 150, 50.0),
        ];
        let cores = vec![CoreView::default(), CoreView::default()];
        let d = p.on_trigger(&view(ms(0), &queue, &cores, 20.0));
        assert_eq!(d.assignments.len(), 2); // third job waits
    }

    #[test]
    fn busy_core_not_reassigned_under_static_sharing() {
        let mut p = BaselinePolicy::new(BaselineOrder::Fcfs);
        let running = [rj(9, 0, 150, 100.0)];
        let occupied = CoreView {
            jobs: &running,
            busy: true,
        };
        let queue = vec![rj(0, 10, 160, 50.0)];
        let d = p.on_trigger(&view(ms(20), &queue, &[occupied], 20.0));
        assert!(d.assignments.is_empty());
        // Running slice untouched: either an explicit None or the
        // allocation-free keep-all (empty plans vector).
        assert!(d.plans.first().is_none_or(|p| p.is_none()));
    }

    #[test]
    fn wf_borrows_power_for_the_hot_core() {
        let mut p = BaselinePolicy::with_wf(BaselineOrder::Fcfs);
        // Core 0 busy with a hot job needing 3 GHz (45 W); core 1 idle
        // takes a cold job needing 0.5 GHz (1.25 W). Budget 40 W: static
        // sharing would cap the hot job at 2 GHz, WF grants it 38.75 W.
        let hot_jobs = [rj(0, 0, 100, 300.0)];
        let hot = CoreView {
            jobs: &hot_jobs,
            busy: true,
        };
        let cold = CoreView::default();
        let queue = vec![rj(1, 0, 200, 100.0)];
        let d = p.on_trigger(&view(ms(0), &queue, &[hot, cold], 40.0));
        let hot_speed = d.plans[0].as_ref().unwrap().slices()[0].speed;
        let cold_speed = d.plans[1].as_ref().unwrap().slices()[0].speed;
        assert!((cold_speed - 0.5).abs() < 1e-9);
        // WF grant = min(45, 40 − 1.25) = 38.75 W → 2.78 GHz > 2 GHz.
        assert!(hot_speed > 2.0, "hot speed {hot_speed}");
        let total = MODEL.dynamic_power(hot_speed) + MODEL.dynamic_power(cold_speed);
        assert!(total <= 40.0 + 1e-6);
    }

    #[test]
    fn wf_replans_running_jobs() {
        let mut p = BaselinePolicy::with_wf(BaselineOrder::Fcfs);
        let running = [rj(0, 0, 100, 300.0)];
        let busy = CoreView {
            jobs: &running,
            busy: true,
        };
        let d = p.on_trigger(&view(ms(10), &[], &[busy], 40.0));
        // Even with nothing to assign, the busy core gets a fresh plan.
        assert!(d.plans[0].is_some());
    }

    #[test]
    fn expired_queue_jobs_skipped() {
        let mut p = BaselinePolicy::new(BaselineOrder::Fcfs);
        let queue = vec![rj(0, 0, 50, 30.0), rj(1, 0, 150, 30.0)];
        let cores = vec![CoreView::default()];
        let d = p.on_trigger(&view(ms(100), &queue, &cores, 20.0));
        assert_eq!(d.assignments, vec![(JobId(1), 0)]);
    }
}
