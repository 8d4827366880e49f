//! The discrete-event simulation engine.
//!
//! # Per-event complexity
//!
//! The engine tracks every live job's location in a `JobId → Loc` index,
//! so settling, assignment and completion checks are O(1) instead of
//! scans over the queue and every core. Queue removals tombstone in
//! place (the queue compacts lazily before each policy invocation,
//! preserving arrival order), core removals `swap_remove` and re-index
//! the displaced job. Arrivals are not pre-pushed onto the event heap:
//! the release-sorted job list is merged with the heap through a cursor,
//! and a job's deadline event is only scheduled when it actually
//! arrives, keeping the heap proportional to the in-flight window rather
//! than the whole trace.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use qes_core::job::{Job, JobId, JobSet};
use qes_core::obs::{
    DequeueKind, Event as ObsEvent, NoopObserver, Observer, SettleOutcome, TriggerCause,
};
use qes_core::power::PowerModel;
use qes_core::quality::QualityFunction;
use qes_core::rate_units_per_us;
use qes_core::schedule::Slice;
use qes_core::time::{SimDuration, SimTime};
use qes_multicore::{CoreView, SchedulingPolicy, SystemView};
use qes_singlecore::online_qe::ReadyJob;

use crate::report::SimReport;
use crate::stats::{DetailedStats, JobOutcome};
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

/// The simulator. Construct one per run via [`Simulator::run`].
pub struct Simulator;

impl Simulator {
    /// Simulate `policy` over `jobs`, returning the aggregate report and
    /// (if requested) the execution trace.
    pub fn run(
        cfg: &SimConfig<'_>,
        policy: &mut dyn SchedulingPolicy,
        jobs: &JobSet,
    ) -> (SimReport, SimTrace) {
        Self::run_observed(cfg, policy, jobs, &mut NoopObserver)
    }

    /// [`Simulator::run`] with an [`Observer`] receiving the event stream
    /// (`qes_core::obs`). Observers are passive: the run's outcome is
    /// bitwise-identical with any observer, including none.
    pub fn run_observed<O: Observer>(
        cfg: &SimConfig<'_>,
        policy: &mut dyn SchedulingPolicy,
        jobs: &JobSet,
        obs: &mut O,
    ) -> (SimReport, SimTrace) {
        let (report, trace, _) = Self::run_detailed_observed(cfg, policy, jobs, obs);
        (report, trace)
    }

    /// [`Simulator::run_observed`] plus per-job outcomes and per-core
    /// utilization (pass [`NoopObserver`] for an unobserved run).
    pub fn run_detailed_observed<O: Observer>(
        cfg: &SimConfig<'_>,
        policy: &mut dyn SchedulingPolicy,
        jobs: &JobSet,
        obs: &mut O,
    ) -> (SimReport, SimTrace, DetailedStats) {
        Engine::new(cfg, jobs, obs).run(policy)
    }
}

/// Event kinds, in same-instant processing order. Arrivals are not heap
/// events (they come from the release-sorted cursor) but occupy priority
/// 1 between deadlines and plan ends — see [`ARRIVAL_PRIO`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// A job's deadline passed: settle its quality.
    Deadline(JobId),
    /// A core's plan ran out (stale if the version moved on).
    PlanEnd { core: u32, version: u64 },
    /// Periodic quantum tick.
    Quantum,
}

type Event = (SimTime, u8, u64, EventKind);

/// Same-instant priority of arrivals relative to heap events: after
/// deadlines (0), before plan ends (2) and quantum ticks (3).
const ARRIVAL_PRIO: u8 = 1;

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
///
/// Public so downstream consumers of [`JobOutcome`]
/// records (e.g. the cluster front end's hedging merge) can classify an
/// outcome exactly as `settle` did, instead of re-deriving the tolerance.
pub fn demand_met(processed: f64, demand: f64) -> bool {
    demand <= 1e-12 || processed >= demand * (1.0 - REL_EPS)
}

/// Where a tracked job currently lives.
#[derive(Clone, Copy, Debug)]
enum Loc {
    /// Waiting in the ready queue at this slot (may be tombstoned only
    /// by transitioning away — a live slot always matches its index).
    Queue(u32),
    /// Assigned to `core`, at `idx` in its job list.
    Core { core: u32, idx: u32 },
    /// Quality already settled; the job is gone from live structures.
    Settled,
}

struct CoreState {
    jobs: Vec<ReadyJob>,
    plan: VecDeque<Slice>,
    version: u64,
    ambient: f64,
    advanced_to: SimTime,
}

struct Engine<'a, O: Observer> {
    cfg: &'a SimConfig<'a>,
    all_jobs: Vec<Job>,
    /// Indices into `all_jobs` with `release <= end`, sorted by
    /// `(release, index)`; consumed through `next_arrival`.
    arrival_order: Vec<u32>,
    next_arrival: usize,
    events: BinaryHeap<Reverse<Event>>,
    seq: u64,
    now: SimTime,
    /// Ready queue in arrival order. Settled/assigned entries are
    /// tombstoned via `queue_dead` and compacted before each invoke.
    queue: Vec<ReadyJob>,
    queue_dead: Vec<bool>,
    queue_holes: usize,
    cores: Vec<CoreState>,
    /// O(1) location of every job that has arrived.
    loc: HashMap<JobId, Loc>,
    trace: SimTrace,
    report: SimReport,
    stats: DetailedStats,
    /// Observability sink. Hooks are guarded by `O::ENABLED`, so with
    /// [`NoopObserver`] every hook (and the event construction feeding
    /// it) is statically dead code.
    obs: &'a mut O,
}

impl<'a, O: Observer> Engine<'a, O> {
    fn new(cfg: &'a SimConfig<'a>, jobs: &JobSet, obs: &'a mut O) -> Self {
        let all_jobs: Vec<Job> = jobs.iter().copied().collect();
        // Arrivals beyond the horizon are ignored. (Their deadlines may
        // still fall past the cutoff: the engine drains in-flight jobs so
        // late arrivals are not unfairly truncated — windows extend at
        // most one relative deadline beyond `end`.)
        let mut arrival_order: Vec<u32> = (0..all_jobs.len() as u32)
            .filter(|&i| all_jobs[i as usize].release <= cfg.end)
            .collect();
        arrival_order.sort_by_key(|&i| (all_jobs[i as usize].release, i));
        let expected_jobs = arrival_order.len();
        Engine {
            cfg,
            all_jobs,
            arrival_order,
            next_arrival: 0,
            events: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            queue: Vec::new(),
            queue_dead: Vec::new(),
            queue_holes: 0,
            cores: (0..cfg.num_cores)
                .map(|_| CoreState {
                    jobs: Vec::new(),
                    plan: VecDeque::new(),
                    version: 0,
                    ambient: 0.0,
                    advanced_to: SimTime::ZERO,
                })
                .collect(),
            loc: HashMap::with_capacity(expected_jobs),
            trace: SimTrace::default(),
            report: SimReport {
                sim_seconds: cfg.end.as_secs_f64(),
                ..SimReport::default()
            },
            stats: DetailedStats::new(cfg.num_cores, cfg.end),
            obs,
        }
    }

    fn push_event(&mut self, t: SimTime, kind: EventKind) {
        let prio = match kind {
            EventKind::Deadline(_) => 0,
            EventKind::PlanEnd { .. } => 2,
            EventKind::Quantum => 3,
        };
        self.seq += 1;
        self.events.push(Reverse((t, prio, self.seq, kind)));
    }

    /// Release time of the next unprocessed arrival, if any.
    fn next_arrival_time(&self) -> Option<SimTime> {
        self.arrival_order
            .get(self.next_arrival)
            .map(|&i| self.all_jobs[i as usize].release)
    }

    fn run(mut self, policy: &mut dyn SchedulingPolicy) -> (SimReport, SimTrace, DetailedStats) {
        self.report.policy = policy.name();
        let trig = policy.triggers();
        if let Some(q) = trig.quantum {
            if !q.is_zero() {
                self.push_event(SimTime::ZERO + q, EventKind::Quantum);
            }
        }
        // Arrivals stop at `end`; the loop then drains until every job is
        // settled (quantum ticks stop rescheduling past `end`, so the heap
        // empties within one relative deadline). Arrivals come from the
        // release-sorted cursor, merged with the heap at priority
        // `ARRIVAL_PRIO`.
        loop {
            let take_arrival = match (self.next_arrival_time(), self.events.peek()) {
                (None, None) => break,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some(at), Some(&Reverse((ht, hp, _, _)))) => (at, ARRIVAL_PRIO) < (ht, hp),
            };
            if take_arrival {
                let t = self.next_arrival_time().expect("cursor checked above");
                self.now = t;
                // Batch all arrivals at the same instant so the policy
                // sees them together (a lone trigger between two
                // simultaneous arrivals is a simulation artifact).
                let mut batch: u32 = 0;
                while let Some(&i) = self.arrival_order.get(self.next_arrival) {
                    let job = self.all_jobs[i as usize];
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
                    // job exists — the heap never holds the whole trace.
                    self.push_event(job.deadline, EventKind::Deadline(job.id));
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
            let Reverse((t, _, _, kind)) = self.events.pop().expect("heap checked above");
            self.now = t;
            if O::ENABLED {
                let dk = match kind {
                    EventKind::Deadline(_) => DequeueKind::Deadline,
                    EventKind::PlanEnd { .. } => DequeueKind::PlanEnd,
                    EventKind::Quantum => DequeueKind::Quantum,
                };
                self.obs.record(t, ObsEvent::Dequeue { kind: dk });
            }
            match kind {
                EventKind::Deadline(id) => match self.loc.get(&id) {
                    Some(&Loc::Core { core, .. }) => {
                        self.advance_core(core as usize, t);
                        // The job may have completed (and settled) during
                        // the advance; `settle` re-checks its location.
                        self.settle(id);
                    }
                    Some(&Loc::Queue(_)) => self.settle(id),
                    _ => {}
                },
                EventKind::PlanEnd { core, version } => {
                    let core = core as usize;
                    if self.cores[core].version == version {
                        self.advance_core(core, t);
                        // Grouped scheduling (§IV-E): with
                        // `idle_requires_work` the idle trigger only
                        // fires when there are live jobs to assign —
                        // deadline events at this instant ran first
                        // (priority 0 < 2), so every surviving queue
                        // slot is genuinely assignable.
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
                    }
                }
                EventKind::Quantum => {
                    if O::ENABLED {
                        self.obs.record(
                            t,
                            ObsEvent::Trigger {
                                cause: TriggerCause::Quantum,
                            },
                        );
                    }
                    self.invoke(policy);
                    if let Some(q) = trig.quantum {
                        let next = t + q;
                        if next <= self.cfg.end {
                            self.push_event(next, EventKind::Quantum);
                        }
                    }
                }
            }
        }
        // Horizon reached: integrate the tail and settle everything left.
        let final_t = self.now.max(self.cfg.end);
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
        (self.report, self.trace, self.stats)
    }

    /// True if some core has no planned work left at the current instant.
    /// Slices within a plan are time-ordered, so only the last one needs
    /// checking.
    fn any_core_idle(&self) -> bool {
        self.cores
            .iter()
            .any(|c| c.plan.back().is_none_or(|s| s.end <= self.now))
    }

    /// Record a job's final quality and drop it from the live structures.
    /// No-op for unknown or already-settled ids (e.g. double discard).
    fn settle(&mut self, id: JobId) {
        let r = match self.loc.get(&id) {
            Some(&Loc::Queue(qi)) => {
                let qi = qi as usize;
                debug_assert!(!self.queue_dead[qi], "live queue slot for {id:?}");
                self.queue_dead[qi] = true;
                self.queue_holes += 1;
                self.queue[qi]
            }
            Some(&Loc::Core { core, idx }) => {
                let jobs = &mut self.cores[core as usize].jobs;
                let r = jobs.swap_remove(idx as usize);
                // Re-index the job the swap displaced into `idx`.
                if let Some(moved) = jobs.get(idx as usize) {
                    self.loc.insert(moved.job.id, Loc::Core { core, idx });
                }
                r
            }
            _ => return,
        };
        self.loc.insert(id, Loc::Settled);
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
            self.obs
                .record(self.now, ObsEvent::JobSettle { job: id, outcome });
        }
        self.stats.record(JobOutcome {
            id,
            release: r.job.release,
            settled: self.now,
            processed: r.processed,
            demand: r.job.demand,
            quality,
        });
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
        let mut completions: Vec<JobId> = Vec::new();
        while let Some(front) = core.plan.front_mut() {
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
                self.stats.add_busy(c, dur.as_micros());
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
                core.plan.pop_front();
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
        for id in completions {
            self.settle(id);
        }
    }

    /// Invoke the policy and apply its decision.
    fn invoke(&mut self, policy: &mut dyn SchedulingPolicy) {
        let now = self.now;
        for c in 0..self.cores.len() {
            self.advance_core(c, now);
        }
        self.compact_queue();
        let decision = {
            // Views borrow each core's job list directly — building the
            // snapshot allocates one Vec of fat pointers, not a copy of
            // every job on every core.
            let views: Vec<CoreView<'_>> = self
                .cores
                .iter()
                .map(|c| CoreView {
                    jobs: &c.jobs,
                    busy: !c.plan.is_empty(),
                })
                .collect();
            let view = SystemView {
                now,
                queue: &self.queue,
                cores: &views,
                budget: self.cfg.budget,
                model: self.cfg.model,
            };
            policy.on_trigger(&view)
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
            if let Some(&Loc::Queue(qi)) = self.loc.get(&id) {
                let qi = qi as usize;
                debug_assert!(!self.queue_dead[qi], "live queue slot for {id:?}");
                self.queue_dead[qi] = true;
                self.queue_holes += 1;
                let r = self.queue[qi];
                let jobs = &mut self.cores[core].jobs;
                self.loc.insert(
                    id,
                    Loc::Core {
                        core: core as u32,
                        idx: jobs.len() as u32,
                    },
                );
                jobs.push(r);
            }
        }

        // Abandon discarded jobs (settled with whatever volume they have).
        for id in decision.discarded {
            if !matches!(self.loc.get(&id), Some(Loc::Settled)) {
                self.settle(id);
                self.report.counters.jobs_discarded += 1;
                if O::ENABLED {
                    self.obs.record(now, ObsEvent::JobDiscard { job: id });
                }
            }
        }

        // Install replacement plans. With a nonzero scheduling overhead,
        // the new plan only takes effect after the stall: slices are
        // clipped to start at `now + overhead` (work the stall displaces
        // is lost, exactly the §IV-E cost of invoking too often).
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
            let core = &mut self.cores[c];
            core.version += 1;
            core.plan.clear();
            core.plan.extend(
                plan.slices()
                    .iter()
                    .filter(|s| s.end > effective)
                    .map(|s| Slice {
                        start: s.start.max(effective),
                        ..*s
                    }),
            );
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
            let version = core.version;
            if let Some(end) = core.plan.back().map(|s| s.end) {
                if end > now {
                    self.push_event(
                        end,
                        EventKind::PlanEnd {
                            core: c as u32,
                            version,
                        },
                    );
                }
            } else if !plan.slices().is_empty() && effective > now {
                // The stall swallowed the whole plan: the core comes out
                // of the overhead window idle. Without an event here an
                // on_idle policy would never be re-invoked and the core
                // could sit idle forever.
                self.push_event(
                    effective,
                    EventKind::PlanEnd {
                        core: c as u32,
                        version,
                    },
                );
            }
        }

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
}
