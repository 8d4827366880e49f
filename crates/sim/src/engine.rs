//! The discrete-event simulation engine.
//!
//! # Per-event complexity
//!
//! The engine tracks every live job's location in a `JobId → Loc` index,
//! so settling, assignment and completion checks are O(1) instead of
//! scans over the queue and every core. Settling removes the job's
//! entry, so the index holds only the in-flight window (tens of jobs),
//! never the whole trace; an id with no entry is not live, and events or
//! decisions naming it are no-ops. Queue removals tombstone in
//! place (the queue compacts lazily before each policy invocation,
//! preserving arrival order). Each core's job list is kept in
//! (deadline, id) order: an assignment inserts at its place and a
//! settle removes in order, so policies read the list as the core's
//! EDF order without sorting it. The index hashes each `u32` id with
//! one multiply (`IdHasher`) instead of SipHash.
//!
//! There is no general event heap. Arrivals come from the release-sorted
//! job list through a cursor, and a job's deadline event is only
//! scheduled when it actually arrives, so the pending deadlines are
//! proportional to the in-flight window rather than the whole trace.
//! Deadlines wait in a `DeadlineQueue`: a FIFO while they are pushed
//! in order, which every agreeable (`JobSet::new`) stream does, and a
//! small heap for the pushes that are not. Plan ends are timers: each
//! core holds one for its *current* plan, overwritten whenever a plan is
//! installed, so a replaced plan leaves nothing behind to pop; the
//! pending quantum tick is one more timer. The main loop takes the
//! earliest of the next arrival, the next deadline, the earliest plan
//! end (found by scanning the cores after each install batch and each
//! fired timer) and the quantum tick.
//!
//! Installing a plan neither allocates nor copies: the core keeps the
//! policy's slice vector as its plan, read through a cursor, and the
//! vector the new plan replaces goes back to `qes_core::schedule`'s
//! per-thread free list, from which the planners build the next plans.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use qes_core::job::{Job, JobId, JobSet};
use qes_core::obs::{
    DequeueKind, Event as ObsEvent, NoopObserver, Observer, SettleOutcome, TriggerCause,
};
use qes_core::power::PowerModel;
use qes_core::quality::QualityFunction;
use qes_core::rate_units_per_us;
use qes_core::schedule::{recycle_slices, Slice};
use qes_core::time::{SimDuration, SimTime};
use qes_multicore::{CoreView, SchedulingPolicy, SystemView};
use qes_singlecore::online_qe::ReadyJob;

use crate::report::SimReport;
use crate::trace::{SimTrace, TraceSlice};

/// Configuration of one simulation run.
pub struct SimConfig<'a> {
    /// Number of cores `m`.
    pub num_cores: usize,
    /// Total dynamic power budget `H` (W).
    pub budget: f64,
    /// Per-core power model.
    pub model: &'a dyn PowerModel,
    /// Quality function shared by every job (§II-A).
    pub quality: &'a dyn QualityFunction,
    /// Simulation horizon; arrivals beyond it are ignored and all jobs are
    /// settled here at the latest.
    pub end: SimTime,
    /// Record every executed slice (needed for §V-G trace replay).
    pub record_trace: bool,
    /// Scheduling overhead charged per policy invocation: installed plans
    /// only take effect this long after the trigger (the cores finish
    /// whatever they were doing, then idle through the stall). Zero by
    /// default; used by the §IV-E grouped-vs-immediate scheduling study.
    pub overhead: SimDuration,
}

impl SimConfig<'_> {
    /// Check that the engine can run `jobs` under this configuration.
    /// Every [`Simulator`] and cluster run calls it on entry.
    ///
    /// # Panics
    ///
    /// If `num_cores` is zero, `budget` is NaN, or a job's deadline lies
    /// 2^52 µs or more after its release: the planners turn µs spans
    /// into exact f64 values, and beyond 2^52 they round. Infinite and
    /// negative budgets are accepted.
    pub fn assert_valid(&self, jobs: &JobSet) {
        assert!(self.num_cores > 0, "a machine needs at least one core");
        assert!(!self.budget.is_nan(), "the power budget is NaN");
        assert!(
            jobs.iter()
                .all(|j| j.deadline.saturating_since(j.release).as_micros() < 1 << 52),
            "a job's deadline lies 2^52 µs or more after its release"
        );
    }
}

/// The simulator. Construct one per run via [`Simulator::run`].
pub struct Simulator;

impl Simulator {
    /// Simulate `policy` over `jobs`, returning the aggregate report and
    /// (if requested) the execution trace.
    ///
    /// # Panics
    ///
    /// As [`SimConfig::assert_valid`] on `cfg` and `jobs`.
    pub fn run(
        cfg: &SimConfig<'_>,
        policy: &mut dyn SchedulingPolicy,
        jobs: &JobSet,
    ) -> (SimReport, SimTrace) {
        Self::run_observed(cfg, policy, jobs, &mut NoopObserver)
    }

    /// [`Simulator::run`] with an [`Observer`] receiving the event stream
    /// (`qes_core::obs`). Observers are passive: the run's outcome is
    /// bitwise-identical with any observer, including none. Per-job
    /// outcomes (class, processed volume, quality) leave the engine only
    /// as [`JobSettle`](ObsEvent::JobSettle) events.
    ///
    /// # Panics
    ///
    /// As [`SimConfig::assert_valid`] on `cfg` and `jobs`.
    pub fn run_observed<O: Observer>(
        cfg: &SimConfig<'_>,
        policy: &mut dyn SchedulingPolicy,
        jobs: &JobSet,
        obs: &mut O,
    ) -> (SimReport, SimTrace) {
        cfg.assert_valid(jobs);
        Engine::new(cfg, jobs, obs).run(policy)
    }
}

/// `(instant, priority, sequence)`: the engine processes the smallest key
/// next. The sequence number orders same-priority events at one instant
/// by the order they were scheduled.
type Key = (SimTime, u8, u64);

/// Same-instant processing order of the four event sources: deadlines,
/// then arrivals, then plan ends, then quantum ticks.
const DEADLINE_PRIO: u8 = 0;
const ARRIVAL_PRIO: u8 = 1;
const PLAN_END_PRIO: u8 = 2;
const QUANTUM_PRIO: u8 = 3;

/// Hashes a [`JobId`] with one multiply by 2⁶⁴/φ (Fibonacci hashing).
/// The live ids are a dense window of `u32`s, which the odd multiplier
/// maps to distinct low (bucket) bits and well-mixed high (tag) bits.
/// The ids come from the program's own workload generators, not from
/// outside input, so SipHash's resistance to crafted collisions buys
/// nothing here.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u32(&mut self, x: u32) {
        self.0 = u64::from(x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("a JobId hashes as a single u32");
    }
}

/// Pending deadline events, popped in `(instant, sequence)` order.
///
/// A push that comes no earlier than the last one in the FIFO is
/// appended to it, so the FIFO stays sorted; any other push goes to a
/// binary heap. The earlier of the two fronts is the earliest event.
/// An agreeable stream pushes its deadlines in order, so each push and
/// pop costs O(1); the heap takes what cluster retries and
/// `JobSet::new_unchecked` streams push out of order, at O(log n) each.
#[derive(Default)]
struct DeadlineQueue {
    fifo: VecDeque<(SimTime, u64, JobId)>,
    late: BinaryHeap<Reverse<(SimTime, u64, JobId)>>,
}

impl DeadlineQueue {
    fn push(&mut self, t: SimTime, seq: u64, id: JobId) {
        if self
            .fifo
            .back()
            .is_none_or(|&(bt, bs, _)| (bt, bs) <= (t, seq))
        {
            self.fifo.push_back((t, seq, id));
        } else {
            self.late.push(Reverse((t, seq, id)));
        }
    }

    /// The `(instant, sequence)` of the earliest event.
    fn peek(&self) -> Option<(SimTime, u64)> {
        match (self.fifo.front(), self.late.peek()) {
            (Some(&(t, s, _)), Some(&Reverse((u, r, _)))) => Some((t, s).min((u, r))),
            (Some(&(t, s, _)), None) | (None, Some(&Reverse((t, s, _)))) => Some((t, s)),
            (None, None) => None,
        }
    }

    fn pop(&mut self) -> Option<(SimTime, u64, JobId)> {
        let from_fifo = match (self.fifo.front(), self.late.peek()) {
            (Some(f), Some(Reverse(h))) => f < h,
            (f, _) => f.is_some(),
        };
        if from_fifo {
            self.fifo.pop_front()
        } else {
            self.late.pop().map(|Reverse(e)| e)
        }
    }
}

/// Relative satisfaction tolerance: a job counts as fully processed when
/// its volume is within this fraction of its demand. Slice endpoints are
/// quantized to whole microseconds, so a plan that nominally completes a
/// job can under-deliver by up to ~half a microsecond of work; a
/// *relative* tolerance absorbs that for realistic demands without (as
/// the old absolute `1e-3`-unit epsilon did) forgiving a fixed chunk of
/// work regardless of job size.
const REL_EPS: f64 = 1e-4;

/// Whether `processed` volume satisfies `demand` within the engine's
/// relative tolerance (`REL_EPS`, 1e-4).
fn demand_met(processed: f64, demand: f64) -> bool {
    demand <= 1e-12 || processed >= demand * (1.0 - REL_EPS)
}

/// An emptied `v` re-typed to borrow for another lifetime. The in-place
/// `collect` keeps `v`'s allocation (same element layout), so a buffer of
/// borrowing views can outlive each borrow without reallocating.
fn recycle<'b>(mut v: Vec<CoreView<'_>>) -> Vec<CoreView<'b>> {
    v.clear();
    v.into_iter().map(|_| unreachable!()).collect()
}

/// Where a live job currently lives.
#[derive(Clone, Copy, Debug)]
enum Loc {
    /// Waiting in the ready queue at this slot (may be tombstoned only
    /// by transitioning away — a live slot always matches its index).
    Queue(u32),
    /// Assigned to `core`.
    Core(u32),
}

struct CoreState {
    /// The core's live jobs in strictly increasing (deadline, id) order.
    jobs: Vec<ReadyJob>,
    /// The installed plan's slice vector, taken over from the policy's
    /// `CoreSchedule`; `plan[next..]` is the part not yet run out.
    plan: Vec<Slice>,
    next: usize,
    /// When the current plan runs out, keyed `(instant, sequence)` like a
    /// heap event; `None` when the current plan schedules no end.
    plan_end: Option<(SimTime, u64)>,
    ambient: f64,
    advanced_to: SimTime,
}

struct Engine<'a, O: Observer> {
    cfg: &'a SimConfig<'a>,
    /// The caller's jobs with `release <= end`, borrowed (a run keeps no
    /// copy of the trace) and already in release order; consumed through
    /// `next_arrival`.
    arrivals: &'a [Job],
    next_arrival: usize,
    deadlines: DeadlineQueue,
    /// The pending quantum tick, if any.
    next_quantum: Option<SimTime>,
    seq: u64,
    /// The earliest core timer, `(instant, sequence, core)`.
    next_plan_end: Option<(SimTime, u64, usize)>,
    /// The latest plan end ever scheduled, replaced plans included: the
    /// run drains to it (see `run`).
    last_plan_end: SimTime,
    now: SimTime,
    /// Ready queue in arrival order. Settled/assigned entries are
    /// tombstoned via `queue_dead` and compacted before each invoke.
    queue: Vec<ReadyJob>,
    queue_dead: Vec<bool>,
    queue_holes: usize,
    cores: Vec<CoreState>,
    /// O(1) location of every live job (arrived, not yet settled).
    loc: HashMap<JobId, Loc, BuildHasherDefault<IdHasher>>,
    /// The policy's core views, empty between invocations; kept only for
    /// its allocation (see [`recycle`]).
    views: Vec<CoreView<'static>>,
    /// Jobs `advance_core` saw complete, empty between calls.
    completions: Vec<JobId>,
    trace: SimTrace,
    report: SimReport,
    /// Observability sink. Hooks are guarded by `O::ENABLED`, so with
    /// [`NoopObserver`] every hook (and the event construction feeding
    /// it) is statically dead code.
    obs: &'a mut O,
}

impl CoreState {
    /// The slices of the current plan not yet run out.
    fn pending(&self) -> &[Slice] {
        &self.plan[self.next..]
    }
}

impl<'a, O: Observer> Engine<'a, O> {
    fn new(cfg: &'a SimConfig<'a>, jobs: &'a JobSet, obs: &'a mut O) -> Self {
        // Arrivals beyond the horizon are ignored. (Their deadlines may
        // still fall past the cutoff: the engine drains in-flight jobs so
        // late arrivals are not unfairly truncated — windows extend at
        // most one relative deadline beyond `end`.) A `JobSet` is sorted
        // by `(release, deadline, id)`, so those arrivals are a prefix.
        let all_jobs = jobs.jobs();
        let arrivals = &all_jobs[..all_jobs.partition_point(|j| j.release <= cfg.end)];
        Engine {
            cfg,
            arrivals,
            next_arrival: 0,
            deadlines: DeadlineQueue::default(),
            next_quantum: None,
            seq: 0,
            next_plan_end: None,
            last_plan_end: SimTime::ZERO,
            now: SimTime::ZERO,
            queue: Vec::new(),
            queue_dead: Vec::new(),
            queue_holes: 0,
            cores: (0..cfg.num_cores)
                .map(|_| CoreState {
                    jobs: Vec::new(),
                    plan: Vec::new(),
                    next: 0,
                    plan_end: None,
                    ambient: 0.0,
                    advanced_to: SimTime::ZERO,
                })
                .collect(),
            loc: HashMap::default(),
            views: Vec::new(),
            completions: Vec::new(),
            trace: SimTrace::default(),
            report: SimReport {
                sim_seconds: cfg.end.as_secs_f64(),
                ..SimReport::default()
            },
            obs,
        }
    }

    /// The key of whatever the engine processes next: the next arrival,
    /// the next deadline, the earliest plan end or the quantum tick.
    /// Priorities differ between the four sources, so keys never tie
    /// across them.
    fn next_key(&self) -> Option<Key> {
        fn earlier(a: Option<Key>, b: Option<Key>) -> Option<Key> {
            match (a, b) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, None) | (None, x) => x,
            }
        }
        let arrival = self
            .arrivals
            .get(self.next_arrival)
            .map(|j| (j.release, ARRIVAL_PRIO, 0));
        let deadline = self.deadlines.peek().map(|(t, s)| (t, DEADLINE_PRIO, s));
        let timer = self.next_plan_end.map(|(t, s, _)| (t, PLAN_END_PRIO, s));
        let quantum = self.next_quantum.map(|t| (t, QUANTUM_PRIO, 0));
        earlier(earlier(arrival, deadline), earlier(timer, quantum))
    }

    /// Rescan the cores for the earliest plan-end timer (m is small).
    fn refresh_next_plan_end(&mut self) {
        self.next_plan_end = self
            .cores
            .iter()
            .enumerate()
            .filter_map(|(c, core)| core.plan_end.map(|(t, s)| (t, s, c)))
            .min();
    }

    fn run(mut self, policy: &mut dyn SchedulingPolicy) -> (SimReport, SimTrace) {
        self.report.policy = policy.name();
        let trig = policy.triggers();
        self.next_quantum = trig
            .quantum
            .filter(|q| !q.is_zero())
            .map(|q| SimTime::ZERO + q);
        // Arrivals stop at `end`; the loop then drains until every job is
        // settled (quantum ticks stop rescheduling past `end`, deadlines
        // run out within one relative deadline, and plan ends fall within
        // their jobs' windows or one overhead after the last invocation).
        // `next_key` merges the four sources.
        while let Some((t, prio, _)) = self.next_key() {
            self.now = t;
            if prio == ARRIVAL_PRIO {
                // Batch all arrivals at the same instant so the policy
                // sees them together (a lone trigger between two
                // simultaneous arrivals is a simulation artifact).
                let mut batch: u32 = 0;
                while let Some(&job) = self.arrivals.get(self.next_arrival) {
                    if job.release != t {
                        break;
                    }
                    self.next_arrival += 1;
                    self.loc.insert(job.id, Loc::Queue(self.queue.len() as u32));
                    self.queue.push(ReadyJob::fresh(job));
                    self.queue_dead.push(false);
                    self.report.counters.jobs_total += 1;
                    self.report.max_quality += self.cfg.quality.max_job_quality(&job);
                    batch += 1;
                    // The deadline event is only scheduled now that the
                    // job exists: the queue never holds the whole trace.
                    self.seq += 1;
                    self.deadlines.push(job.deadline, self.seq, job.id);
                }
                if O::ENABLED {
                    self.obs.record(t, ObsEvent::Arrivals { count: batch });
                }
                let live_waiting = self.queue.len() - self.queue_holes;
                let counter_hit = trig.counter.is_some_and(|c| live_waiting >= c);
                // The idle-core trigger (§IV-E) also covers a job
                // arriving while a core sits idle — "an idle core
                // triggers the scheduler to start assigning more jobs".
                let idle_hit = trig.on_idle && self.any_core_idle();
                if trig.on_arrival || counter_hit || idle_hit {
                    if O::ENABLED {
                        let cause = if trig.on_arrival {
                            TriggerCause::Arrival
                        } else if counter_hit {
                            TriggerCause::Counter
                        } else {
                            TriggerCause::Idle
                        };
                        self.obs.record(t, ObsEvent::Trigger { cause });
                    }
                    self.invoke(policy);
                }
                continue;
            }
            if prio == PLAN_END_PRIO {
                let (_, _, core) = self.next_plan_end.expect("timer checked above");
                self.cores[core].plan_end = None;
                self.refresh_next_plan_end();
                if O::ENABLED {
                    self.obs.record(
                        t,
                        ObsEvent::Dequeue {
                            kind: DequeueKind::PlanEnd,
                        },
                    );
                }
                self.advance_core(core, t);
                // Grouped scheduling (§IV-E): with `idle_requires_work`
                // the idle trigger only fires when there are live jobs
                // to assign — deadline events at this instant ran first
                // (priority 0 < 2), so every surviving queue slot is
                // genuinely assignable.
                let has_work = self.queue.len() > self.queue_holes;
                if trig.on_idle && (has_work || !trig.idle_requires_work) {
                    if O::ENABLED {
                        self.obs.record(
                            t,
                            ObsEvent::Trigger {
                                cause: TriggerCause::PlanEnd,
                            },
                        );
                    }
                    self.invoke(policy);
                }
                continue;
            }
            if prio == DEADLINE_PRIO {
                let (_, _, id) = self.deadlines.pop().expect("deadline checked above");
                if O::ENABLED {
                    self.obs.record(
                        t,
                        ObsEvent::Dequeue {
                            kind: DequeueKind::Deadline,
                        },
                    );
                }
                if let Some(&Loc::Core(core)) = self.loc.get(&id) {
                    self.advance_core(core as usize, t);
                }
                // The job may have completed (and settled) during the
                // advance, or settled earlier; `settle` re-checks its
                // location.
                self.settle(id);
                continue;
            }
            debug_assert_eq!(prio, QUANTUM_PRIO);
            if O::ENABLED {
                self.obs.record(
                    t,
                    ObsEvent::Dequeue {
                        kind: DequeueKind::Quantum,
                    },
                );
                self.obs.record(
                    t,
                    ObsEvent::Trigger {
                        cause: TriggerCause::Quantum,
                    },
                );
            }
            self.invoke(policy);
            // `t + q` saturates at `SimTime::MAX`: a grid that stops
            // advancing must stop ticking.
            self.next_quantum = trig
                .quantum
                .map(|q| t + q)
                .filter(|&next| next > t && next <= self.cfg.end);
        }
        // Horizon reached: integrate the tail and settle everything left.
        // The run drains to the latest plan end ever scheduled, replaced
        // plans included, so ambient draw (No-DVFS, S-DVFS) covers the
        // whole last scheduling stall.
        let final_t = self.now.max(self.cfg.end).max(self.last_plan_end);
        self.now = final_t;
        for c in 0..self.cores.len() {
            self.advance_core(c, final_t);
        }
        let leftovers: Vec<JobId> = self
            .queue
            .iter()
            .zip(&self.queue_dead)
            .filter(|&(_, &dead)| !dead)
            .map(|(r, _)| r.job.id)
            .chain(
                self.cores
                    .iter()
                    .flat_map(|c| c.jobs.iter().map(|r| r.job.id)),
            )
            .collect();
        for id in leftovers {
            self.settle(id);
        }
        // Drain policy-internal counters into the observer, once, at the
        // final instant (a pull: policies keep plain integers, the
        // `dyn SchedulingPolicy` boundary never sees the observer type).
        if O::ENABLED {
            let obs = &mut self.obs;
            policy.metrics(&mut |name, value| {
                obs.record(final_t, ObsEvent::PolicyCounter { name, value });
            });
        }
        (self.report, self.trace)
    }

    /// True if some core has no planned work left at the current instant.
    /// Slices within a plan are time-ordered, so only the last one needs
    /// checking.
    fn any_core_idle(&self) -> bool {
        self.cores
            .iter()
            .any(|c| c.pending().last().is_none_or(|s| s.end <= self.now))
    }

    /// Record a job's final quality and drop it from the live structures
    /// and the location index. Returns whether `id` was live; unknown or
    /// already-settled ids (e.g. a double discard) are a no-op.
    fn settle(&mut self, id: JobId) -> bool {
        let r = match self.loc.remove(&id) {
            Some(Loc::Queue(qi)) => {
                let qi = qi as usize;
                debug_assert!(!self.queue_dead[qi], "live queue slot for {id:?}");
                self.queue_dead[qi] = true;
                self.queue_holes += 1;
                self.queue[qi]
            }
            Some(Loc::Core(core)) => {
                // An ordered remove keeps the list in (deadline, id)
                // order; the list is short, so a linear find beats a
                // search keyed by the deadline.
                let jobs = &mut self.cores[core as usize].jobs;
                let at = jobs
                    .iter()
                    .position(|r| r.job.id == id)
                    .expect("a core job is in its core's list");
                jobs.remove(at)
            }
            None => return false,
        };
        let quality = self.cfg.quality.job_quality(&r.job, r.processed);
        self.report.total_quality += quality;
        let outcome = if demand_met(r.processed, r.job.demand) {
            self.report.counters.jobs_satisfied += 1;
            SettleOutcome::Satisfied
        } else if r.processed > 1e-9 {
            self.report.counters.jobs_partial += 1;
            SettleOutcome::Partial
        } else {
            self.report.counters.jobs_zero += 1;
            SettleOutcome::Zero
        };
        if O::ENABLED {
            self.obs.record(
                self.now,
                ObsEvent::JobSettle {
                    job: id,
                    outcome,
                    processed: r.processed,
                    quality,
                },
            );
        }
        true
    }

    /// Drop tombstoned queue slots, preserving arrival order, and refresh
    /// the index of every slot that shifted.
    fn compact_queue(&mut self) {
        if self.queue_holes == 0 {
            return;
        }
        let mut w = 0;
        for r in 0..self.queue.len() {
            if !self.queue_dead[r] {
                if w != r {
                    self.queue[w] = self.queue[r];
                    self.loc.insert(self.queue[w].job.id, Loc::Queue(w as u32));
                }
                w += 1;
            }
        }
        self.queue.truncate(w);
        self.queue_dead.clear();
        self.queue_dead.resize(w, false);
        self.queue_holes = 0;
    }

    /// Integrate core `c`'s plan (progress, energy, trace, completions)
    /// from its last advance point to `t`.
    fn advance_core(&mut self, c: usize, t: SimTime) {
        let model = self.cfg.model;
        let record_trace = self.cfg.record_trace;
        let core = &mut self.cores[c];
        if t <= core.advanced_to {
            return;
        }
        let completions = &mut self.completions;
        while let Some(front) = core.plan.get_mut(core.next) {
            if front.start >= t {
                break;
            }
            let seg_start = front.start.max(core.advanced_to);
            // Ambient draw over the idle gap before the slice.
            let gap = seg_start.saturating_since(core.advanced_to);
            if !gap.is_zero() && core.ambient > 0.0 {
                self.report.energy_joules += model.dynamic_energy(core.ambient, gap.as_secs_f64());
            }
            let seg_end = front.end.min(t);
            let dur = seg_end.saturating_since(seg_start);
            if !dur.is_zero() {
                self.report.energy_joules += model.dynamic_energy(front.speed, dur.as_secs_f64());
                let vol = rate_units_per_us(front.speed) * dur.as_micros() as f64;
                // Slices for settled (e.g. discarded) jobs still burn
                // energy but no longer make progress — only a live
                // occupant of this core accumulates volume. A linear find
                // beats the location index here: this runs per slice
                // segment and the per-core job list is small, so one or
                // two comparisons are cheaper than a hash.
                if let Some(r) = core.jobs.iter_mut().find(|r| r.job.id == front.job) {
                    r.processed += vol;
                    if demand_met(r.processed, r.job.demand) {
                        completions.push(r.job.id);
                    }
                }
                if record_trace {
                    self.trace.push(TraceSlice {
                        core: c,
                        job: front.job,
                        start: seg_start,
                        end: seg_end,
                        speed: front.speed,
                    });
                }
            }
            if front.end <= t {
                core.advanced_to = front.end;
                core.next += 1;
            } else {
                front.start = t;
                core.advanced_to = t;
                break;
            }
        }
        // Trailing idle stretch up to `t`.
        let gap = t.saturating_since(core.advanced_to);
        if !gap.is_zero() && core.ambient > 0.0 {
            self.report.energy_joules += model.dynamic_energy(core.ambient, gap.as_secs_f64());
        }
        core.advanced_to = t;
        if self.completions.is_empty() {
            return;
        }
        let mut completions = std::mem::take(&mut self.completions);
        for id in completions.drain(..) {
            self.settle(id);
        }
        self.completions = completions;
    }

    /// Invoke the policy and apply its decision.
    fn invoke(&mut self, policy: &mut dyn SchedulingPolicy) {
        let now = self.now;
        for c in 0..self.cores.len() {
            self.advance_core(c, now);
        }
        self.compact_queue();
        // The index holds exactly the live jobs: one entry per queue slot
        // (compacted just above) and per core job.
        debug_assert_eq!(
            self.loc.len(),
            self.queue.len() + self.cores.iter().map(|c| c.jobs.len()).sum::<usize>(),
            "location index out of step with the live queue and cores"
        );
        debug_assert!(
            self.cores
                .iter()
                .all(|c| c.jobs.windows(2).all(|w| w[0].edf_key() < w[1].edf_key())),
            "a core's job list is out of (deadline, id) order"
        );
        let decision = {
            // Views borrow each core's job list directly, in a buffer
            // kept across invocations: building the snapshot neither
            // copies jobs nor allocates.
            let mut views = recycle(std::mem::take(&mut self.views));
            views.extend(self.cores.iter().map(|c| CoreView {
                jobs: &c.jobs,
                busy: !c.pending().is_empty(),
            }));
            let view = SystemView {
                now,
                queue: &self.queue,
                cores: &views,
                budget: self.cfg.budget,
                model: self.cfg.model,
            };
            let decision = policy.on_trigger(&view);
            self.views = recycle(views);
            decision
        };
        // §IV-E audit: a wakeup whose decision keeps everything — no
        // assignments, no discards, every plan entry `None`, ambient
        // speeds absent or bitwise-unchanged — did not *invoke* the
        // scheduler in the paper's sense (gated PlanEnd/quantum events
        // that keep a running plan were previously double-counted here).
        let kept_everything = decision.assignments.is_empty()
            && decision.discarded.is_empty()
            && decision.plans.iter().all(Option::is_none)
            && (decision.ambient_speeds.is_empty()
                || (decision.ambient_speeds.len() == self.cores.len()
                    && decision
                        .ambient_speeds
                        .iter()
                        .zip(&self.cores)
                        .all(|(s, c)| s.to_bits() == c.ambient.to_bits())));
        if kept_everything {
            self.report.counters.invocations_kept += 1;
        } else {
            self.report.counters.invocations += 1;
        }
        if O::ENABLED {
            self.obs.record(
                now,
                ObsEvent::Invoke {
                    kept: kept_everything,
                },
            );
        }

        // Move assigned jobs from the queue onto their cores. Ids that
        // are not waiting (unknown, already assigned, or settled) are
        // ignored; the queue slot is tombstoned to keep arrival order.
        for (id, core) in decision.assignments {
            if core >= self.cores.len() {
                debug_assert!(false, "assignment to nonexistent core {core}");
                continue;
            }
            let Some(loc) = self.loc.get_mut(&id) else {
                continue;
            };
            if let Loc::Queue(qi) = *loc {
                *loc = Loc::Core(core as u32);
                let qi = qi as usize;
                debug_assert!(!self.queue_dead[qi], "live queue slot for {id:?}");
                self.queue_dead[qi] = true;
                self.queue_holes += 1;
                let r = self.queue[qi];
                let jobs = &mut self.cores[core].jobs;
                let at = jobs.partition_point(|x| x.edf_key() < r.edf_key());
                jobs.insert(at, r);
            }
        }

        // Abandon discarded jobs (settled with whatever volume they have).
        // Only live ids count: a discard naming a job that never arrived
        // or has already settled changes nothing.
        for id in decision.discarded {
            if self.settle(id) {
                self.report.counters.jobs_discarded += 1;
                if O::ENABLED {
                    self.obs.record(now, ObsEvent::JobDiscard { job: id });
                }
            }
        }

        // Install replacement plans. With a nonzero scheduling overhead,
        // the new plan only takes effect after the stall: slices are
        // clipped to start at `now + overhead` (work the stall displaces
        // is lost, exactly the §IV-E cost of invoking too often). The
        // core keeps the policy's slice vector, trimmed in place, and the
        // vector it replaces goes back to the free list.
        let effective = now + self.cfg.overhead;
        for (c, plan) in decision.plans.into_iter().enumerate() {
            if c >= self.cores.len() {
                break;
            }
            let Some(plan) = plan else {
                // Explicit keep: the policy saw this core and left its
                // running plan in place.
                self.report.counters.plans_kept += 1;
                if O::ENABLED {
                    self.obs.record(now, ObsEvent::PlanKeep { core: c as u32 });
                }
                continue;
            };
            let mut slices = plan.into_slices();
            let planned_work = !slices.is_empty();
            // A plan's slices are non-empty and start-ordered, so one
            // that starts no earlier than `effective` has nothing to trim.
            if slices.first().is_some_and(|s| s.start < effective) {
                slices.retain_mut(|s| {
                    s.start = s.start.max(effective);
                    s.end > effective
                });
            } else {
                debug_assert!(
                    slices
                        .iter()
                        .all(|s| s.start >= effective && s.end > s.start),
                    "a plan's slices are empty or out of start order"
                );
            }
            let core = &mut self.cores[c];
            recycle_slices(std::mem::replace(&mut core.plan, slices));
            core.next = 0;
            self.report.counters.plans_installed += 1;
            if O::ENABLED {
                let slices = core.plan.len() as u32;
                self.obs.record(
                    now,
                    ObsEvent::PlanInstall {
                        core: c as u32,
                        slices,
                    },
                );
            }
            // The new plan's timer replaces the old plan's. Every kept
            // slice ends after `effective >= now`.
            let end = match core.plan.last() {
                Some(s) => Some(s.end),
                // The stall swallowed the whole plan: the core comes out
                // of the overhead window idle. Without a timer here an
                // on_idle policy would never be re-invoked and the core
                // could sit idle forever.
                None if planned_work && effective > now => Some(effective),
                None => None,
            };
            core.plan_end = end.map(|t| {
                self.seq += 1;
                self.last_plan_end = self.last_plan_end.max(t);
                (t, self.seq)
            });
        }
        self.refresh_next_plan_end();

        // Ambient speeds for the inter-invocation window. Contract (see
        // `PolicyDecision::ambient_speeds`): empty = leave the previous
        // ambient speeds in place; otherwise exactly one entry per core.
        // Any other length is a policy bug and is ignored in release
        // builds.
        debug_assert!(
            decision.ambient_speeds.is_empty() || decision.ambient_speeds.len() == self.cores.len(),
            "ambient_speeds has {} entries for {} cores",
            decision.ambient_speeds.len(),
            self.cores.len()
        );
        if decision.ambient_speeds.len() == self.cores.len() {
            for (core, &s) in self.cores.iter_mut().zip(&decision.ambient_speeds) {
                core.ambient = s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qes_core::power::PolynomialPower;
    use qes_core::quality::ExpQuality;
    use qes_multicore::{BaselineOrder, BaselinePolicy, DesPolicy, PolicyDecision, TriggerRequest};

    const MODEL: PolynomialPower = PolynomialPower::PAPER_SIM;
    const Q: ExpQuality = ExpQuality::PAPER_DEFAULT;

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    fn cfg(end_ms: u64, cores: usize, budget: f64) -> SimConfig<'static> {
        SimConfig {
            num_cores: cores,
            budget,
            model: &MODEL,
            quality: &Q,
            end: ms(end_ms),
            record_trace: true,
            overhead: SimDuration::ZERO,
        }
    }

    fn job(id: u32, r: u64, d: u64, w: f64) -> Job {
        Job::new(id, ms(r), ms(d), w).unwrap()
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_are_rejected_at_entry() {
        let jobs = JobSet::new(vec![job(0, 0, 150, 100.0)]).unwrap();
        Simulator::run(&cfg(1000, 0, 40.0), &mut DesPolicy::new(), &jobs);
    }

    #[test]
    #[should_panic(expected = "2^52 µs or more after its release")]
    fn a_deadline_window_of_2_pow_52_us_is_rejected_at_entry() {
        let long = Job::new(1, ms(10), SimTime::from_micros(10_000 + (1 << 52)), 100.0).unwrap();
        let jobs = JobSet::new(vec![job(0, 0, 150, 100.0), long]).unwrap();
        Simulator::run(&cfg(1000, 2, 40.0), &mut DesPolicy::new(), &jobs);
    }

    #[test]
    fn a_deadline_window_just_under_2_pow_52_us_runs() {
        let long = Job::new(
            1,
            ms(10),
            SimTime::from_micros(10_000 + (1 << 52) - 1),
            100.0,
        )
        .unwrap();
        let jobs = JobSet::new(vec![job(0, 0, 150, 100.0), long]).unwrap();
        // Debug builds check every planned span against 2^52 µs. The
        // engine drains in-flight jobs past `end`, so both are served.
        let report = Simulator::run(&cfg(1000, 2, 40.0), &mut DesPolicy::new(), &jobs).0;
        assert_eq!(report.jobs_satisfied(), 2);
    }

    #[test]
    #[should_panic(expected = "budget is NaN")]
    fn a_nan_budget_is_rejected_at_entry() {
        let jobs = JobSet::new(vec![job(0, 0, 150, 100.0)]).unwrap();
        Simulator::run(&cfg(1000, 2, f64::NAN), &mut DesPolicy::new(), &jobs);
    }

    #[test]
    fn infinite_and_negative_budgets_still_run() {
        let jobs = JobSet::new(vec![job(0, 0, 150, 100.0), job(1, 10, 160, 50.0)]).unwrap();
        let run = |budget| Simulator::run(&cfg(1000, 2, budget), &mut DesPolicy::new(), &jobs).0;
        // Unbounded power serves both jobs in full; a negative budget,
        // like a zero one, grants none.
        assert_eq!(run(f64::INFINITY).jobs_satisfied(), 2);
        let (negative, zero) = (run(-5.0), run(0.0));
        assert_eq!(
            negative.total_quality.to_bits(),
            zero.total_quality.to_bits()
        );
        assert_eq!(
            negative.energy_joules.to_bits(),
            zero.energy_joules.to_bits()
        );
        assert_eq!((zero.total_quality, zero.energy_joules), (0.0, 0.0));
    }

    #[test]
    fn single_light_job_completes_under_des() {
        let jobs = JobSet::new(vec![job(0, 0, 150, 100.0)]).unwrap();
        let c = cfg(1000, 2, 40.0);
        let mut p = DesPolicy::new();
        let (report, trace) = Simulator::run(&c, &mut p, &jobs);
        assert_eq!(report.jobs_total(), 1);
        assert_eq!(report.jobs_satisfied(), 1);
        assert!((report.normalized_quality() - 1.0).abs() < 1e-6);
        assert!(report.energy_joules > 0.0);
        assert!((trace.total_volume() - 100.0).abs() < 0.1);
    }

    #[test]
    fn overload_yields_partial_quality() {
        // One core, 5 W (1 GHz), two 200-unit jobs in a 100 ms window:
        // capacity 100 units → each gets ~50.
        let jobs = JobSet::new(vec![job(0, 0, 100, 200.0), job(1, 0, 100, 200.0)]).unwrap();
        let c = cfg(500, 1, 5.0);
        let mut p = DesPolicy::new();
        let (report, trace) = Simulator::run(&c, &mut p, &jobs);
        assert_eq!(report.jobs_total(), 2);
        assert_eq!(report.jobs_satisfied(), 0);
        assert_eq!(report.jobs_partial(), 2);
        assert!((trace.total_volume() - 100.0).abs() < 1.0);
        let expect = 2.0 * Q.value(50.0) / (2.0 * Q.value(200.0));
        assert!((report.normalized_quality() - expect).abs() < 0.02);
    }

    #[test]
    fn energy_matches_trace_for_gating_policies() {
        let jobs = JobSet::new(vec![
            job(0, 0, 150, 120.0),
            job(1, 40, 190, 80.0),
            job(2, 90, 240, 150.0),
        ])
        .unwrap();
        let c = cfg(1000, 2, 40.0);
        let mut p = DesPolicy::new();
        let (report, trace) = Simulator::run(&c, &mut p, &jobs);
        // C-DVFS has zero ambient draw: report energy == trace energy.
        assert!((report.energy_joules - trace.dynamic_energy(&MODEL)).abs() < 1e-6);
    }

    #[test]
    fn no_dvfs_burns_ambient_power() {
        let jobs = JobSet::new(vec![job(0, 0, 150, 100.0)]).unwrap();
        let c = cfg(1000, 2, 40.0);
        let mut p = DesPolicy::on_arch(qes_multicore::ArchKind::NoDvfs);
        let (report, trace) = Simulator::run(&c, &mut p, &jobs);
        // Ambient draw makes total energy exceed the executed slices'.
        assert!(report.energy_joules > trace.dynamic_energy(&MODEL) + 1.0);
        // From the first invocation (t=0 arrival is not a DES trigger; the
        // counter is 8, so the first trigger is... the idle/quantum path).
        // Regardless: by t=1 s both cores have burned ≈ 20 W each for most
        // of the second.
        assert!(report.energy_joules < 40.0 * 1.0 + 1e-6);
    }

    #[test]
    fn fcfs_runs_jobs_one_at_a_time() {
        let jobs = JobSet::new(vec![
            job(0, 0, 150, 100.0),
            job(1, 0, 150, 100.0),
            job(2, 0, 150, 100.0),
        ])
        .unwrap();
        let c = cfg(1000, 1, 20.0);
        let mut p = BaselinePolicy::new(BaselineOrder::Fcfs);
        let (report, _) = Simulator::run(&c, &mut p, &jobs);
        // 1 core at ≤2 GHz, 150 ms: at most 300 units — two jobs max, and
        // FCFS runs at the slowest finishing speed, so job 0 takes
        // 150 ms at 2/3 GHz... then jobs 1,2 expire: exactly 1 satisfied.
        assert_eq!(report.jobs_total(), 3);
        assert_eq!(report.jobs_satisfied(), 1);
        assert_eq!(report.jobs_zero(), 2);
    }

    #[test]
    fn deadline_settles_waiting_jobs_with_zero_quality() {
        // A policy that never assigns anything.
        struct Lazy;
        impl SchedulingPolicy for Lazy {
            fn name(&self) -> String {
                "lazy".into()
            }
            fn triggers(&self) -> TriggerRequest {
                TriggerRequest {
                    quantum: None,
                    counter: None,
                    on_idle: false,
                    idle_requires_work: false,
                    on_arrival: false,
                }
            }
            fn on_trigger(&mut self, v: &SystemView<'_>) -> PolicyDecision {
                PolicyDecision::keep_all(v.num_cores())
            }
        }
        let jobs = JobSet::new(vec![job(0, 0, 100, 50.0)]).unwrap();
        let c = cfg(500, 1, 20.0);
        let (report, _) = Simulator::run(&c, &mut Lazy, &jobs);
        assert_eq!(report.jobs_total(), 1);
        assert_eq!(report.jobs_zero(), 1);
        assert_eq!(report.total_quality, 0.0);
        assert_eq!(report.energy_joules, 0.0);
    }

    #[test]
    fn arrivals_beyond_horizon_are_ignored() {
        let jobs = JobSet::new(vec![job(0, 0, 150, 50.0), job(1, 2000, 2150, 50.0)]).unwrap();
        let c = cfg(1000, 1, 20.0);
        let mut p = DesPolicy::new();
        let (report, _) = Simulator::run(&c, &mut p, &jobs);
        assert_eq!(report.jobs_total(), 1);
    }

    #[test]
    fn horizon_settles_in_flight_jobs() {
        // Deadline beyond the horizon: settled at the horizon with partial
        // progress.
        let jobs = JobSet::new(vec![job(0, 0, 5000, 2000.0)]).unwrap();
        let c = cfg(1000, 1, 20.0); // 2 GHz max → ≤ 2000 units in 1 s
        let mut p = DesPolicy::new();
        let (report, _) = Simulator::run(&c, &mut p, &jobs);
        assert_eq!(report.jobs_total(), 1);
        assert_eq!(report.jobs_satisfied() + report.jobs_partial(), 1);
        assert!(report.total_quality > 0.0);
    }

    #[test]
    fn quantum_trigger_fires_repeatedly() {
        let jobs = JobSet::new(vec![job(0, 0, 900, 10.0)]).unwrap();
        let c = cfg(2000, 1, 20.0);
        let mut p = DesPolicy::new(); // 500 ms quantum
        let (report, _) = Simulator::run(&c, &mut p, &jobs);
        // Quantum fires at 500/1000/1500/2000 ms; idle triggers add more.
        assert!(report.invocations() >= 4, "{}", report.invocations());
        assert_eq!(report.jobs_satisfied(), 1);
    }

    #[test]
    fn quantum_ticks_stop_when_the_grid_saturates_at_simtime_max() {
        // The second tick lands on `2^64 µs`, which saturates to
        // `SimTime::MAX`; the tick after it would saturate there again.
        struct Ticker;
        impl SchedulingPolicy for Ticker {
            fn name(&self) -> String {
                "ticker".into()
            }
            fn triggers(&self) -> TriggerRequest {
                TriggerRequest {
                    quantum: Some(SimDuration::from_micros(1 << 63)),
                    counter: None,
                    on_idle: false,
                    idle_requires_work: false,
                    on_arrival: false,
                }
            }
            fn on_trigger(&mut self, v: &SystemView<'_>) -> PolicyDecision {
                PolicyDecision::keep_all(v.num_cores())
            }
        }
        let c = SimConfig {
            end: SimTime::MAX,
            ..cfg(0, 1, 20.0)
        };
        let (report, _) = Simulator::run(&c, &mut Ticker, &JobSet::new(Vec::new()).unwrap());
        assert_eq!(report.counters.wakeups(), 2);
    }

    #[test]
    fn kept_plan_wakeups_are_not_policy_invocations() {
        // §IV-E audit (regression): one 100-unit job spanning the whole
        // 2 s horizon on one budget-free core. The t=0 idle trigger
        // assigns and installs a plan (counted). The quantum ticks at
        // 500/1000/1500 ms find a busy core on a free streak with no new
        // work — DES keeps the plan, so these wakeups must NOT count as
        // policy invocations. At 2000 ms the job has settled and the tick
        // replans the empty system (counted). The old accounting reported
        // 5 invocations here; the §IV-E taxonomy says 2.
        let jobs = JobSet::new(vec![job(0, 0, 2000, 100.0)]).unwrap();
        let c = cfg(2000, 1, 20.0);
        let mut p = DesPolicy::new();
        let (report, _) = Simulator::run(&c, &mut p, &jobs);
        assert_eq!(report.jobs_satisfied(), 1);
        assert_eq!(report.invocations(), 2, "{report}");
        assert_eq!(report.invocations_kept(), 3, "{report}");
        assert_eq!(report.counters.wakeups(), 5);
    }

    #[test]
    fn observed_run_is_bitwise_identical_and_consistent() {
        let v: Vec<Job> = (0..30)
            .map(|i| job(i, (i as u64) * 13, (i as u64) * 13 + 150, 40.0))
            .collect();
        let jobs = JobSet::new(v).unwrap();
        let c = cfg(1000, 2, 20.0);
        let (plain, _) = Simulator::run(&c, &mut DesPolicy::new(), &jobs);
        let mut reg = qes_core::MetricsRegistry::new();
        let (observed, _) = Simulator::run_observed(&c, &mut DesPolicy::new(), &jobs, &mut reg);
        assert_eq!(
            plain.total_quality.to_bits(),
            observed.total_quality.to_bits()
        );
        assert_eq!(
            plain.energy_joules.to_bits(),
            observed.energy_joules.to_bits()
        );
        assert_eq!(plain.counters, observed.counters);
        // The observer's fold agrees with the engine's own counters.
        assert_eq!(reg.counter("engine.invocations"), plain.invocations());
        assert_eq!(
            reg.counter("engine.invocations_kept"),
            plain.invocations_kept()
        );
        assert_eq!(
            reg.counter("engine.settle.satisfied"),
            plain.jobs_satisfied() as u64
        );
        assert_eq!(reg.counter("engine.arrivals"), plain.jobs_total() as u64);
        assert_eq!(
            reg.counter("engine.plan.installed"),
            plain.counters.plans_installed
        );
        // DES contributed policy counters through the end-of-run drain.
        assert!(reg.counter("des.triggers") > 0);
    }

    #[test]
    fn counter_trigger_batches_arrivals() {
        // Jobs 0–3 occupy the 4 cores (idle triggers); jobs 4–11 arrive
        // while every core is busy, so nothing but the counter (8) can
        // fire before their deadlines — and it must, on the 8th waiter.
        let mut v: Vec<Job> = (0..4).map(|i| job(i, 0, 150, 10.0)).collect();
        v.extend((4..12).map(|i| job(i, 10 + (i as u64 - 4), 300, 10.0)));
        let jobs = JobSet::new(v).unwrap();
        let c = cfg(1000, 4, 40.0);
        let mut p = DesPolicy::new();
        let (report, _) = Simulator::run(&c, &mut p, &jobs);
        assert_eq!(report.jobs_satisfied(), 12);
        assert!(report.invocations() >= 2);
    }

    #[test]
    fn energy_never_exceeds_budget_times_time() {
        let jobs = JobSet::new(
            (0..40)
                .map(|i| job(i, (i as u64) * 5, (i as u64) * 5 + 150, 300.0))
                .collect(),
        )
        .unwrap();
        let c = cfg(1000, 4, 40.0);
        let mut p = DesPolicy::new();
        let (report, _) = Simulator::run(&c, &mut p, &jobs);
        assert!(report.energy_joules <= 40.0 * 1.0 + 1e-6);
    }

    /// Assigns the first queued job to core 0 and plans one slice of a
    /// fixed duration at 1 GHz — a scalpel for testing the engine's
    /// completion accounting.
    struct OneSlice {
        us: u64,
    }
    impl SchedulingPolicy for OneSlice {
        fn name(&self) -> String {
            "one-slice".into()
        }
        fn triggers(&self) -> TriggerRequest {
            TriggerRequest {
                quantum: None,
                counter: None,
                on_idle: false,
                idle_requires_work: false,
                on_arrival: true,
            }
        }
        fn on_trigger(&mut self, v: &SystemView<'_>) -> PolicyDecision {
            let Some(r) = v.queue.first() else {
                return PolicyDecision::keep_all(v.num_cores());
            };
            let slice = Slice {
                job: r.job.id,
                start: v.now,
                end: v.now + SimDuration::from_micros(self.us),
                speed: 1.0,
            };
            PolicyDecision {
                assignments: vec![(r.job.id, 0)],
                plans: vec![Some(qes_core::schedule::CoreSchedule::new(vec![slice]))],
                discarded: Vec::new(),
                ambient_speeds: Vec::new(),
            }
        }
    }

    #[test]
    fn satisfaction_tolerance_is_relative_to_demand() {
        // 1000-unit job at 1 GHz needs exactly 1 000 000 µs. A slice
        // 50 µs short under-delivers 0.05 units — 5e-5 of the demand,
        // inside the relative tolerance, so the job counts as satisfied.
        // (The old absolute 1e-3-unit epsilon would have called this
        // partial.)
        let jobs = JobSet::new(vec![job(0, 0, 2000, 1000.0)]).unwrap();
        let c = cfg(2500, 1, 20.0);
        let (report, _) = Simulator::run(&c, &mut OneSlice { us: 999_950 }, &jobs);
        assert_eq!(report.jobs_satisfied(), 1, "5e-5 shortfall must satisfy");
        assert_eq!(report.jobs_partial(), 0);

        // A 1000 µs shortfall (1e-3 of the demand) exceeds the tolerance:
        // genuinely incomplete work is still reported as partial.
        let jobs = JobSet::new(vec![job(0, 0, 2000, 1000.0)]).unwrap();
        let (report, _) = Simulator::run(&c, &mut OneSlice { us: 999_000 }, &jobs);
        assert_eq!(
            report.jobs_satisfied(),
            0,
            "1e-3 shortfall must not satisfy"
        );
        assert_eq!(report.jobs_partial(), 1);
    }

    #[test]
    fn overhead_swallowed_plan_still_reinvokes_idle_policy() {
        // Always plans a 10 ms slice for its job; with a 50 ms scheduling
        // overhead every plan is clipped to nothing. The engine must keep
        // firing the idle trigger through the stall, not leave the core
        // idle until the deadline.
        struct Stubborn;
        impl SchedulingPolicy for Stubborn {
            fn name(&self) -> String {
                "stubborn".into()
            }
            fn triggers(&self) -> TriggerRequest {
                TriggerRequest {
                    quantum: None,
                    counter: None,
                    on_idle: true,
                    idle_requires_work: false,
                    on_arrival: true,
                }
            }
            fn on_trigger(&mut self, v: &SystemView<'_>) -> PolicyDecision {
                let queued = v.queue.first().copied();
                let running = v.cores[0].live_jobs(v.now).next();
                let Some(r) = queued.or(running) else {
                    return PolicyDecision::keep_all(v.num_cores());
                };
                let slice = Slice {
                    job: r.job.id,
                    start: v.now,
                    end: v.now + SimDuration::from_millis(10),
                    speed: 2.0,
                };
                PolicyDecision {
                    assignments: queued.map(|q| (q.job.id, 0)).into_iter().collect(),
                    plans: vec![Some(qes_core::schedule::CoreSchedule::new(vec![slice]))],
                    discarded: Vec::new(),
                    ambient_speeds: Vec::new(),
                }
            }
        }
        let jobs = JobSet::new(vec![job(0, 0, 300, 100.0)]).unwrap();
        let mut c = cfg(500, 1, 20.0);
        c.overhead = SimDuration::from_millis(50);
        let (report, _) = Simulator::run(&c, &mut Stubborn, &jobs);
        // Re-invoked roughly every overhead window until the deadline;
        // without the clipped-plan event it would stall after the first.
        assert!(
            report.invocations() >= 3,
            "{} invocations",
            report.invocations()
        );
        assert_eq!(report.jobs_total(), 1);
    }

    #[test]
    fn overhead_stall_trims_the_installed_plan() {
        // At the 10 ms arrival the policy installs three slices for its
        // job under a 20 ms overhead, so the plan takes effect at 30 ms:
        // [10, 20) ends inside the stall and is dropped, [20, 40) is
        // clipped to [30, 40), and [50, 60) is kept whole.
        struct ThreeSlices;
        impl SchedulingPolicy for ThreeSlices {
            fn name(&self) -> String {
                "three-slices".into()
            }
            fn triggers(&self) -> TriggerRequest {
                TriggerRequest {
                    quantum: None,
                    counter: None,
                    on_idle: false,
                    idle_requires_work: false,
                    on_arrival: true,
                }
            }
            fn on_trigger(&mut self, v: &SystemView<'_>) -> PolicyDecision {
                let Some(r) = v.queue.first() else {
                    return PolicyDecision::keep_all(v.num_cores());
                };
                let slice = |a, b| Slice {
                    job: r.job.id,
                    start: ms(a),
                    end: ms(b),
                    speed: 1.0,
                };
                PolicyDecision {
                    assignments: vec![(r.job.id, 0)],
                    plans: vec![Some(qes_core::schedule::CoreSchedule::new(vec![
                        slice(10, 20),
                        slice(20, 40),
                        slice(50, 60),
                    ]))],
                    discarded: Vec::new(),
                    ambient_speeds: Vec::new(),
                }
            }
        }
        let jobs = JobSet::new(vec![job(0, 10, 200, 100.0)]).unwrap();
        let mut c = cfg(300, 1, 20.0);
        c.overhead = SimDuration::from_millis(20);
        let mut rec = Recorder::default();
        let (report, trace) = Simulator::run_observed(&c, &mut ThreeSlices, &jobs, &mut rec);

        let ran: Vec<_> = trace
            .slices()
            .iter()
            .map(|s| (s.core, s.job, s.start, s.end, s.speed.to_bits()))
            .collect();
        let one = 1.0f64.to_bits();
        assert_eq!(
            ran,
            vec![
                (0, JobId(0), ms(30), ms(40), one),
                (0, JobId(0), ms(50), ms(60), one),
            ]
        );
        let ten_ms = MODEL.dynamic_energy(1.0, 0.010);
        assert_eq!(report.energy_joules.to_bits(), (ten_ms + ten_ms).to_bits());
        let installs: Vec<_> = rec
            .0
            .iter()
            .filter_map(|&(t, e)| match e {
                ObsEvent::PlanInstall { core, slices } => Some((t, core, slices)),
                _ => None,
            })
            .collect();
        assert_eq!(installs, vec![(ms(10), 0, 2)]);
        // The plan-end timer fires once, at the end of the last kept
        // slice.
        let plan_ends: Vec<SimTime> = rec
            .0
            .iter()
            .filter(|(_, e)| {
                matches!(
                    e,
                    ObsEvent::Dequeue {
                        kind: DequeueKind::PlanEnd
                    }
                )
            })
            .map(|&(t, _)| t)
            .collect();
        assert_eq!(plan_ends, vec![ms(60)]);
    }

    #[test]
    fn queue_keeps_arrival_order_across_expiries() {
        // Records the queue ids the policy observes at each trigger.
        struct Snoop {
            seen: Vec<Vec<u32>>,
        }
        impl SchedulingPolicy for Snoop {
            fn name(&self) -> String {
                "snoop".into()
            }
            fn triggers(&self) -> TriggerRequest {
                TriggerRequest {
                    quantum: Some(SimDuration::from_millis(100)),
                    counter: None,
                    on_idle: false,
                    idle_requires_work: false,
                    on_arrival: false,
                }
            }
            fn on_trigger(&mut self, v: &SystemView<'_>) -> PolicyDecision {
                self.seen.push(v.queue.iter().map(|r| r.job.id.0).collect());
                PolicyDecision::keep_all(v.num_cores())
            }
        }
        // Job 0 expires at 50 ms; jobs 1–3 live on. The 100 ms quantum
        // view must list the survivors in arrival order — settling from
        // the middle of the queue must not reorder it.
        let jobs = JobSet::new(vec![
            job(0, 0, 50, 10.0),
            job(1, 10, 300, 10.0),
            job(2, 10, 300, 10.0),
            job(3, 20, 300, 10.0),
        ])
        .unwrap();
        let c = cfg(400, 1, 20.0);
        let mut snoop = Snoop { seen: Vec::new() };
        let _ = Simulator::run(&c, &mut snoop, &jobs);
        assert!(
            snoop.seen.contains(&vec![1, 2, 3]),
            "expected an in-order view of the survivors, saw {:?}",
            snoop.seen
        );
    }

    #[test]
    fn discards_of_non_live_ids_are_not_counted() {
        // Never assigns; from 100 ms on it discards an id that never
        // arrived and job 0, which its 50 ms deadline already settled.
        // Neither is live, so neither may count as a discard, emit a
        // `JobDiscard` event or touch the settle counters.
        struct Phantom {
            discard: bool,
        }
        impl SchedulingPolicy for Phantom {
            fn name(&self) -> String {
                "phantom".into()
            }
            fn triggers(&self) -> TriggerRequest {
                TriggerRequest {
                    quantum: None,
                    counter: None,
                    on_idle: false,
                    idle_requires_work: false,
                    on_arrival: true,
                }
            }
            fn on_trigger(&mut self, v: &SystemView<'_>) -> PolicyDecision {
                let mut d = PolicyDecision::keep_all(v.num_cores());
                if self.discard && v.now >= ms(100) {
                    d.discarded = vec![JobId(999), JobId(0)];
                }
                d
            }
        }
        let jobs = JobSet::new(vec![job(0, 0, 50, 10.0), job(1, 100, 200, 10.0)]).unwrap();
        let c = cfg(500, 1, 20.0);
        let (quiet, _) = Simulator::run(&c, &mut Phantom { discard: false }, &jobs);
        let mut reg = qes_core::MetricsRegistry::new();
        let (report, _) =
            Simulator::run_observed(&c, &mut Phantom { discard: true }, &jobs, &mut reg);
        assert_eq!(report.counters.jobs_discarded, 0);
        assert_eq!(reg.counter("engine.discard"), 0);
        let settles = |r: &SimReport| {
            let k = &r.counters;
            (k.jobs_total, k.jobs_satisfied, k.jobs_partial, k.jobs_zero)
        };
        assert_eq!(settles(&report), settles(&quiet));
        assert_eq!(report.jobs_zero(), 2);
        assert_eq!(
            report.total_quality.to_bits(),
            quiet.total_quality.to_bits()
        );
    }

    #[test]
    fn non_partial_jobs_all_or_nothing() {
        // Overloaded core with non-partial jobs: quality comes only from
        // fully finished ones.
        let mut j0 = job(0, 0, 100, 150.0);
        let mut j1 = job(1, 0, 100, 150.0);
        j0.partial = false;
        j1.partial = false;
        let jobs = JobSet::new(vec![j0, j1]).unwrap();
        let c = cfg(500, 1, 5.0); // 1 GHz → 100 units capacity
        let mut p = DesPolicy::new();
        let (report, _) = Simulator::run(&c, &mut p, &jobs);
        // Neither can finish 150 units in 100 ms at 1 GHz… so both end up
        // discarded or zero; quality 0.
        assert_eq!(report.jobs_satisfied(), 0);
        assert_eq!(report.total_quality, 0.0);
    }

    /// Installs random plans on random cores at every invocation and
    /// logs, per installed plan, the instant its core's plan-end trigger
    /// must fire: the end of the plan's last slice, the end of the
    /// scheduling stall when the stall swallows the whole plan, or never
    /// for an empty plan. Ends fall on a 5 ms grid, so equal ends across
    /// cores and replacements at the instant a plan ends are common.
    ///
    /// With `churn` it also assigns queued jobs to random cores, discards
    /// random core jobs, plans its slices for the core's own jobs (so
    /// jobs complete mid-list) and records every core view it receives
    /// that is not live and strictly (deadline, id)-ordered.
    struct Scripted {
        rng: rand::rngs::StdRng,
        overhead: SimDuration,
        end: SimTime,
        /// `(core, expected plan end)` per installed plan, in install
        /// order.
        installs: Vec<(usize, Option<SimTime>)>,
        churn: bool,
        /// `(now, core, job ids)` of every core view out of order or
        /// holding a job that is not live.
        disordered: Vec<(SimTime, usize, Vec<u32>)>,
        /// Core views seen with at least two jobs.
        shared_views: usize,
    }

    impl Scripted {
        fn new(seed: u64, overhead: SimDuration, end: SimTime, churn: bool) -> Self {
            Scripted {
                rng: rand::SeedableRng::seed_from_u64(seed),
                overhead,
                end,
                installs: Vec::new(),
                churn,
                disordered: Vec::new(),
                shared_views: 0,
            }
        }

        fn pick(&mut self, n: u64) -> u64 {
            use rand::RngCore;
            self.rng.next_u64() % n
        }

        /// Check the view's core lists, then pick assignments and
        /// discards.
        fn churn(&mut self, v: &SystemView<'_>) -> (Vec<(JobId, usize)>, Vec<JobId>) {
            for (c, core) in v.cores.iter().enumerate() {
                let ordered = core.jobs.iter().all(|r| r.is_live(v.now))
                    && core
                        .jobs
                        .windows(2)
                        .all(|w| w[0].edf_key() < w[1].edf_key());
                if !ordered {
                    let ids = core.jobs.iter().map(|r| r.job.id.0).collect();
                    self.disordered.push((v.now, c, ids));
                }
                self.shared_views += usize::from(core.jobs.len() >= 2);
            }
            let m = v.num_cores() as u64;
            let mut assignments = Vec::new();
            for r in v.queue {
                if self.pick(4) != 0 {
                    assignments.push((r.job.id, self.pick(m) as usize));
                }
            }
            let discarded = v
                .cores
                .iter()
                .flat_map(|core| core.jobs)
                .filter(|_| self.pick(16) == 0)
                .map(|r| r.job.id)
                .collect();
            (assignments, discarded)
        }
    }

    impl SchedulingPolicy for Scripted {
        fn name(&self) -> String {
            "scripted".into()
        }
        fn triggers(&self) -> TriggerRequest {
            TriggerRequest {
                quantum: Some(SimDuration::from_millis(35)),
                counter: None,
                on_idle: true,
                idle_requires_work: false,
                on_arrival: true,
            }
        }
        fn on_trigger(&mut self, v: &SystemView<'_>) -> PolicyDecision {
            let grid = SimDuration::from_millis(5);
            let (assignments, discarded) = if self.churn {
                self.churn(v)
            } else {
                (Vec::new(), Vec::new())
            };
            let mut plans = Vec::new();
            for c in 0..v.num_cores() {
                let jobs = v.cores[c].jobs;
                let job = match jobs.len() {
                    n if self.churn && n > 0 => jobs[self.pick(n as u64) as usize].job.id,
                    _ => JobId(0),
                };
                let plan = match self.pick(4) {
                    0 => None,
                    // Past the horizon the script winds down, so the
                    // run ends.
                    1 => Some(Vec::new()),
                    _ if v.now > self.end => Some(Vec::new()),
                    _ => {
                        let mut t = v.now + grid * self.pick(2);
                        let slices = (0..1 + self.pick(3))
                            .map(|_| {
                                let start = t;
                                t = start + grid * (1 + self.pick(2));
                                Slice {
                                    job,
                                    start,
                                    end: t,
                                    speed: 1.0,
                                }
                            })
                            .collect();
                        Some(slices)
                    }
                };
                if let Some(slices) = &plan {
                    let effective = v.now + self.overhead;
                    let end = match slices.last() {
                        Some(s) if s.end > effective => Some(s.end),
                        Some(_) if effective > v.now => Some(effective),
                        _ => None,
                    };
                    self.installs.push((c, end));
                }
                plans.push(plan.map(qes_core::schedule::CoreSchedule::new));
            }
            PolicyDecision {
                assignments,
                plans,
                discarded,
                ambient_speeds: Vec::new(),
            }
        }
    }

    /// Records every engine event in order.
    #[derive(Default)]
    struct Recorder(Vec<(SimTime, ObsEvent)>);

    impl Observer for Recorder {
        const ENABLED: bool = true;
        fn record(&mut self, at: SimTime, event: ObsEvent) {
            self.0.push((at, event));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Every plan-end trigger fires at the end of its core's
        /// *current* plan, same-instant ends fire in install order, a
        /// replaced or empty plan never fires, and no plan end is
        /// skipped.
        #[test]
        fn plan_ends_fire_for_current_plans_in_install_order(
            seed in 0u64..u64::MAX,
            cores in 1usize..7,
            overhead in 0usize..4,
            releases in proptest::collection::vec(0u64..60, 1..8),
        ) {
            let end = ms(200);
            let jobs = JobSet::new(
                releases
                    .iter()
                    .enumerate()
                    .map(|(i, &r)| job(i as u32, 5 * r, 400, 50.0))
                    .collect(),
            )
            .unwrap();
            let mut c = cfg(200, cores, 20.0 * cores as f64);
            // On the grid (more equal ends) and off it.
            c.overhead = SimDuration::from_millis([0, 5, 10, 13][overhead]);
            let mut policy = Scripted::new(seed, c.overhead, end, false);
            let mut rec = Recorder::default();
            Simulator::run_observed(&c, &mut policy, &jobs, &mut rec);

            // Replay the event stream against each core's current plan
            // end, keyed `(instant, install number)`.
            let mut timers: Vec<Option<(SimTime, usize)>> = vec![None; cores];
            let mut installs = policy.installs.iter().enumerate();
            let mut fired = 0;
            let events = &rec.0;
            for (i, &(t, ev)) in events.iter().enumerate() {
                let pending = timers.iter().flatten().min().copied();
                match ev {
                    ObsEvent::PlanInstall { core, .. } => {
                        let (n, &(c, want)) = installs.next().expect("an install per plan");
                        prop_assert_eq!(c, core as usize);
                        timers[c] = want.map(|w| (w, n));
                    }
                    ObsEvent::Dequeue { kind: DequeueKind::PlanEnd } => {
                        let (at, n) = pending.expect("a plan end fired with no current plan");
                        prop_assert_eq!(t, at, "plan end fired off its current plan's end");
                        let c = timers.iter().position(|&x| x == Some((at, n))).unwrap();
                        timers[c] = None;
                        fired += 1;
                        prop_assert!(
                            matches!(
                                events.get(i + 1),
                                Some(&(u, ObsEvent::Trigger { cause: TriggerCause::PlanEnd })) if u == t
                            ),
                            "a plan end at {:?} did not trigger the policy",
                            t
                        );
                    }
                    // Quantum ticks sort after plan ends at one instant;
                    // deadlines and arrivals before them.
                    ObsEvent::Dequeue { kind: DequeueKind::Quantum } => {
                        prop_assert!(pending.is_none_or(|(at, _)| at > t), "skipped a plan end");
                    }
                    ObsEvent::Dequeue { .. } | ObsEvent::Arrivals { .. } => {
                        prop_assert!(pending.is_none_or(|(at, _)| at >= t), "skipped a plan end");
                    }
                    _ => {}
                }
            }
            prop_assert!(installs.next().is_none());
            prop_assert!(timers.iter().all(Option::is_none), "a plan end never fired");
            let triggers = events
                .iter()
                .filter(|(_, e)| matches!(e, ObsEvent::Trigger { cause: TriggerCause::PlanEnd }))
                .count();
            prop_assert_eq!(triggers, fired);
        }

        /// Random pushes (in order, out of order, and tied at one
        /// instant) interleaved with pops leave the deadline queue in
        /// step with a `BinaryHeap<Reverse<(instant, sequence)>>`.
        #[test]
        fn deadline_queue_pops_in_heap_order(
            ops in proptest::collection::vec((0u64..5, 0u64..4), 1..120),
        ) {
            let mut queue = DeadlineQueue::default();
            let mut heap = BinaryHeap::new();
            // The latest instant pushed in order so far.
            let mut last = 0u64;
            let id = |seq: u64| JobId(seq as u32);
            for (seq, &(op, step)) in (1u64..).zip(&ops) {
                let t = match op {
                    0 => {
                        let want = heap.pop().map(|Reverse((t, s))| (t, s, id(s)));
                        prop_assert_eq!(queue.pop(), want);
                        continue;
                    }
                    // At or after the latest in-order push; a step of 0
                    // ties with it.
                    1 | 2 => {
                        last += step;
                        last
                    }
                    // Up to three steps before it, or tied.
                    _ => last.saturating_sub(step),
                };
                queue.push(ms(t), seq, id(seq));
                heap.push(Reverse((ms(t), seq)));
                prop_assert_eq!(queue.peek(), heap.peek().map(|&Reverse(e)| e));
            }
            while let Some(Reverse((t, s))) = heap.pop() {
                prop_assert_eq!(queue.pop(), Some((t, s, id(s))));
            }
            prop_assert_eq!(queue.pop(), None);
        }

        /// Under random assignments, discards, completions and
        /// deadlines, every core view a policy receives lists live jobs
        /// in strictly increasing (deadline, id) order.
        #[test]
        fn core_views_are_live_and_edf_ordered(
            seed in 0u64..u64::MAX,
            cores in 1usize..5,
            overhead in 0usize..3,
            specs in proptest::collection::vec((0u64..40, 1u64..40, 1u64..8), 1..40),
        ) {
            // Releases on a 5 ms grid, windows of 5–195 ms (not
            // agreeable), demands of one to seven 5 ms slices at 1 GHz:
            // deadline ties, jobs that finish mid-list and jobs that
            // expire are all common.
            let jobs = JobSet::new_unchecked(
                specs
                    .iter()
                    .enumerate()
                    .map(|(i, &(r, d, w))| job(i as u32, 5 * r, 5 * (r + d), 5.0 * w as f64))
                    .collect(),
            );
            let mut c = cfg(200, cores, 20.0 * cores as f64);
            c.overhead = SimDuration::from_millis([0, 5, 7][overhead]);
            let mut policy = Scripted::new(seed, c.overhead, ms(200), true);
            let (report, _) = Simulator::run(&c, &mut policy, &jobs);
            prop_assert!(
                policy.disordered.is_empty(),
                "views out of (deadline, id) order or not live: {:?}",
                policy.disordered
            );
            prop_assert_eq!(report.jobs_total(), jobs.len());
        }
    }

    #[test]
    fn non_agreeable_deadlines_settle_in_deadline_order() {
        // Jobs 2 and 3 come as a cluster retry does: released late with
        // an early deadline, so their deadline events are pushed out of
        // order. Job 3's deadline ties with job 0's, which was pushed
        // first and must settle first; job 4 is in order again.
        let jobs = JobSet::new_unchecked(vec![
            job(0, 0, 150, 100.0),
            job(1, 10, 400, 300.0),
            job(2, 60, 100, 80.0),
            job(3, 70, 150, 400.0),
            job(4, 80, 450, 50.0),
        ]);
        let mut rec = Recorder::default();
        let (report, _) =
            Simulator::run_observed(&cfg(1000, 3, 30.0), &mut DesPolicy::new(), &jobs, &mut rec);
        let settles: Vec<_> = rec
            .0
            .iter()
            .filter_map(|&(t, e)| match e {
                ObsEvent::JobSettle { job, outcome, .. } => Some((t, job.0, outcome)),
                _ => None,
            })
            .collect();
        use SettleOutcome::{Partial, Satisfied};
        assert_eq!(
            settles,
            vec![
                (ms(100), 2, Satisfied),
                (ms(150), 0, Partial),
                (ms(150), 3, Partial),
                (ms(400), 1, Satisfied),
                (ms(450), 4, Satisfied),
            ]
        );
        let k = &report.counters;
        assert_eq!(
            (
                k.jobs_satisfied,
                k.jobs_partial,
                k.jobs_zero,
                k.jobs_discarded
            ),
            (3, 2, 0, 0)
        );
        assert_eq!((k.invocations, k.invocations_kept), (6, 0));
        assert_eq!((k.plans_installed, k.plans_kept), (15, 3));
        assert_eq!(report.total_quality.to_bits(), 4609431719372785053);
        assert_eq!(report.energy_joules.to_bits(), 4615635171758404292);
    }

    #[test]
    fn churning_views_share_cores() {
        // The property above is only as strong as the lists it sees:
        // over a fixed stream, many views must hold several jobs.
        let jobs = JobSet::new_unchecked(
            (0..60)
                .map(|i| {
                    let r = 3 * u64::from(i);
                    job(
                        i,
                        r,
                        r + 60 + 7 * u64::from(i % 5),
                        5.0 * f64::from(1 + i % 3),
                    )
                })
                .collect(),
        );
        let mut policy = Scripted::new(7, SimDuration::ZERO, ms(200), true);
        let (report, _) = Simulator::run(&cfg(200, 2, 40.0), &mut policy, &jobs);
        assert!(policy.disordered.is_empty(), "{:?}", policy.disordered);
        assert!(
            policy.shared_views > 20,
            "{} shared views",
            policy.shared_views
        );
        assert!(
            report.jobs_discarded() > 0 && report.jobs_satisfied() > 0,
            "{report}"
        );
    }
}
