//! Reference oracle for [`dispatch_protected`](super::dispatch_protected):
//! the straightforward tree-map scan the dense dispatcher replaced.
//!
//! Every query here re-derives its answer from scratch — fault state by
//! binary search in the [`FaultPlan`], eligible shards into a fresh
//! `Vec`, window sums and probes by full rescans, per-job state in
//! `BTreeMap`s keyed by job id, events merged from four streams by
//! explicit comparisons and collected into a `Vec` — so it is slow and
//! obviously correct. It routes whole [`Job`] copies and derives the
//! plan's input positions from an id map only at the end. The property
//! test below requires the optimized dispatcher to produce the identical
//! [`DispatchPlan`] (floats compared by bits), materialized per-shard
//! jobs equal to the reference's own job streams, and the identical
//! dispatcher event sequence recorded into an observer, over random fault
//! plans × admission × retry × hedge × routing × small streams.

use std::cmp::Ordering;
use std::collections::{BTreeMap, VecDeque};

use qes_core::job::{Job, JobId, JobSet};
use qes_core::obs::Event;
use qes_core::power::PowerModel;
use qes_core::quality::QualityFunction;
use qes_core::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{DispatchPlan, HedgeRecord, RoutedCopy, RoutingPolicy};
use crate::admission::{AdmissionPolicy, OverloadPolicy};
use crate::fault::FaultPlan;

/// `(deadline_us, demand, slot)` of each in-flight routed copy,
/// deadline-sorted.
type InFlight = VecDeque<(u64, f64, u32)>;

fn probe_speed(window: &InFlight, now_us: u64, candidate: Option<(u64, f64)>) -> f64 {
    let mut cum = 0.0;
    let mut speed = 0.0f64;
    for &(d_us, w, _) in window {
        cum += w;
        speed = speed.max(cum * 1000.0 / d_us.saturating_sub(now_us).max(1) as f64);
    }
    if let Some((d_us, w)) = candidate {
        cum += w;
        speed = speed.max(cum * 1000.0 / d_us.saturating_sub(now_us).max(1) as f64);
    }
    speed
}

fn pending_demand(window: &InFlight) -> f64 {
    window.iter().map(|&(_, w, _)| w).sum()
}

struct Router<'a> {
    routing: &'a RoutingPolicy,
    model: &'a dyn PowerModel,
    plan: &'a FaultPlan,
    quality: &'a dyn QualityFunction,
    admission: &'a AdmissionPolicy,
    shards: usize,
    inflight: Vec<InFlight>,
    streams: Vec<Vec<Job>>,
    alive: Vec<Vec<bool>>,
    shedding: Vec<bool>,
    rr: usize,
    rng: Option<StdRng>,
}

impl Router<'_> {
    fn retire(&mut self, now_us: u64) {
        for w in &mut self.inflight {
            while w.front().is_some_and(|&(d, _, _)| d <= now_us) {
                w.pop_front();
            }
        }
    }

    fn eligible_at(&self, now: SimTime) -> Vec<usize> {
        (0..self.shards)
            .filter(|&s| !self.plan.is_crashed(s, now))
            .collect()
    }

    fn admits(&mut self, job: &Job, eligible: &[usize]) -> bool {
        let now = job.release;
        let now_us = now.as_micros();
        match *self.admission {
            AdmissionPolicy::AcceptAll => true,
            AdmissionPolicy::SlackFloor {
                floor,
                capacity_ghz,
            } => {
                let q_max = self.quality.max_job_quality(job);
                if q_max.partial_cmp(&0.0) != Some(Ordering::Greater) {
                    return true;
                }
                let cand = (job.deadline.as_micros(), job.demand);
                let mut best = 0.0f64;
                for &s in eligible {
                    let s_req = probe_speed(&self.inflight[s], now_us, Some(cand));
                    let eff = capacity_ghz * self.plan.capacity_fraction(s, now);
                    let frac = if s_req > 0.0 {
                        (eff / s_req).clamp(0.0, 1.0)
                    } else {
                        1.0
                    };
                    let q = self.quality.job_quality(job, frac * job.demand);
                    best = best.max(q / q_max);
                }
                best >= floor
            }
            AdmissionPolicy::Backpressure { cap, resume } => {
                for s in 0..self.shards {
                    let depth = pending_demand(&self.inflight[s]);
                    if self.shedding[s] {
                        if depth <= resume {
                            self.shedding[s] = false;
                        }
                    } else if depth >= cap {
                        self.shedding[s] = true;
                    }
                }
                !eligible.iter().all(|&s| self.shedding[s])
            }
        }
    }

    fn admit(&mut self, job: Job) -> Option<usize> {
        let now = job.release;
        let now_us = now.as_micros();
        self.retire(now_us);
        let eligible = self.eligible_at(now);
        if eligible.is_empty() {
            return None;
        }
        let shard = match self.routing {
            RoutingPolicy::RoundRobin => {
                let s = (0..self.shards)
                    .map(|k| (self.rr + k) % self.shards)
                    .find(|s| !self.plan.is_crashed(*s, now))
                    .expect("eligible set is non-empty");
                self.rr = (s + 1) % self.shards;
                s
            }
            RoutingPolicy::Random { .. } => {
                let u: f64 = self
                    .rng
                    .as_mut()
                    .expect("random routing carries an rng")
                    .gen();
                eligible[((u * eligible.len() as f64) as usize).min(eligible.len() - 1)]
            }
            RoutingPolicy::Jsq => {
                let mut best = eligible[0];
                for &s in &eligible[1..] {
                    if self.inflight[s].len() < self.inflight[best].len() {
                        best = s;
                    }
                }
                best
            }
            RoutingPolicy::LeastEnergy => {
                let cand = (job.deadline.as_micros(), job.demand);
                let delta = |s: usize| {
                    let w = &self.inflight[s];
                    let before = self.model.dynamic_power(probe_speed(w, now_us, None));
                    let after = self.model.dynamic_power(probe_speed(w, now_us, Some(cand)));
                    after - before
                };
                let mut best = eligible[0];
                let mut best_delta = delta(best);
                for &s in &eligible[1..] {
                    let d = delta(s);
                    if d.total_cmp(&best_delta) == Ordering::Less {
                        best_delta = d;
                        best = s;
                    }
                }
                best
            }
            RoutingPolicy::Feedback => {
                let score = |s: usize| {
                    pending_demand(&self.inflight[s]) / self.plan.capacity_fraction(s, now)
                };
                let mut best = eligible[0];
                let mut best_score = score(best);
                for &s in &eligible[1..] {
                    let sc = score(s);
                    if sc.total_cmp(&best_score) == Ordering::Less {
                        best_score = sc;
                        best = s;
                    }
                }
                best
            }
        };
        let slot = self.streams[shard].len() as u32;
        self.streams[shard].push(job);
        self.alive[shard].push(true);
        let d_us = job.deadline.as_micros();
        let w = &mut self.inflight[shard];
        let pos = w.partition_point(|&(d, _, _)| d <= d_us);
        w.insert(pos, (d_us, job.demand, slot));
        Some(shard)
    }
}

/// The reference scan: same contract and arguments as
/// [`dispatch_protected`](super::dispatch_protected), plus each shard's
/// surviving job copies as a job set and the dispatcher events
/// (admission rejects, retries, hedges) in scan order.
#[allow(clippy::too_many_arguments)]
pub(super) fn dispatch_reference(
    jobs: &JobSet,
    shards: usize,
    routing: &RoutingPolicy,
    model: &dyn PowerModel,
    quality: &dyn QualityFunction,
    plan: &FaultPlan,
    overload: &OverloadPolicy,
    end: SimTime,
) -> (DispatchPlan, Vec<JobSet>, Vec<(SimTime, Event)>) {
    let retry_policy = &overload.retry;
    let hedging = !overload.hedge.is_disabled();
    let screened = !matches!(overload.admission, AdmissionPolicy::AcceptAll);
    let mut router = Router {
        routing,
        model,
        plan,
        quality,
        admission: &overload.admission,
        shards,
        inflight: vec![InFlight::new(); shards],
        streams: vec![Vec::new(); shards],
        alive: vec![Vec::new(); shards],
        shedding: vec![false; shards],
        rr: 0,
        rng: match routing {
            RoutingPolicy::Random { seed } => Some(StdRng::seed_from_u64(*seed)),
            _ => None,
        },
    };

    let stored: Vec<Job> = jobs.iter().copied().collect();
    let pos_of: BTreeMap<u32, u32> = (0..).zip(&stored).map(|(p, j)| (j.id.0, p)).collect();
    let crash_events: Vec<(SimTime, usize)> = plan
        .crash_starts()
        .into_iter()
        .filter(|&(t, _)| t < end)
        .collect();
    let mut crash_idx = 0usize;
    let mut next_orig = 0usize;
    let mut retries: BTreeMap<(u64, u64, u32), (Job, u32)> = BTreeMap::new();
    let mut attempts: BTreeMap<u32, u32> = BTreeMap::new();
    let mut hedges_pending: BTreeMap<(u64, u64, u32), (Job, usize, u32)> = BTreeMap::new();
    let mut copies: BTreeMap<u32, Vec<(usize, u32)>> = BTreeMap::new();

    let mut assignment: Vec<u32> = Vec::with_capacity(stored.len());
    let mut dropped: Vec<(SimTime, Job)> = Vec::new();
    let mut rejected: Vec<(SimTime, Job)> = Vec::new();
    let mut redispatches: Vec<(SimTime, JobId, u32)> = Vec::new();
    let mut retried = 0u64;
    let mut hedges: Vec<HedgeRecord> = Vec::new();
    let mut events: Vec<(SimTime, Event)> = Vec::new();

    enum Step {
        Crash,
        Orig,
        Retry,
        Hedge,
    }
    loop {
        let t_crash = crash_events.get(crash_idx).map(|&(t, _)| t);
        let t_orig = stored.get(next_orig).map(|j| j.release);
        let t_retry = retries
            .keys()
            .next()
            .map(|&(r, _, _)| SimTime::from_micros(r));
        let t_hedge = hedges_pending
            .keys()
            .next()
            .map(|&(h, _, _)| SimTime::from_micros(h));
        if t_crash.is_none() && t_orig.is_none() && t_retry.is_none() && t_hedge.is_none() {
            break;
        }
        let tc = t_crash.unwrap_or(SimTime::MAX);
        let to = t_orig.unwrap_or(SimTime::MAX);
        let tr = t_retry.unwrap_or(SimTime::MAX);
        let th = t_hedge.unwrap_or(SimTime::MAX);
        let step = if t_crash.is_some() && tc <= to && tc <= tr && tc <= th {
            Step::Crash
        } else if t_orig.is_some() && to <= tr && to <= th {
            Step::Orig
        } else if t_retry.is_some() && tr <= th {
            Step::Retry
        } else {
            Step::Hedge
        };
        match step {
            Step::Crash => {
                let (c, shard) = crash_events[crash_idx];
                crash_idx += 1;
                let c_us = c.as_micros();
                let w = &mut router.inflight[shard];
                while w.front().is_some_and(|&(d, _, _)| d <= c_us) {
                    w.pop_front();
                }
                for (_, _, slot) in w.drain(..) {
                    let job = router.streams[shard][slot as usize];
                    router.alive[shard][slot as usize] = false;
                    redispatches.push((c, job.id, shard as u32));
                    if hedging {
                        if let Some(locs) = copies.get_mut(&job.id.0) {
                            locs.retain(|&(s, sl)| !(s == shard && sl == slot));
                            if !locs.is_empty() {
                                continue;
                            }
                        }
                    }
                    let attempt = attempts.entry(job.id.0).or_insert(0);
                    *attempt += 1;
                    if *attempt > retry_policy.max_attempts {
                        dropped.push((c, job));
                        continue;
                    }
                    let delay = retry_policy.delay_for(*attempt);
                    let new_release = c + delay;
                    if new_release >= job.deadline || new_release > end {
                        dropped.push((c, job));
                    } else {
                        retries.insert(
                            (new_release.as_micros(), job.deadline.as_micros(), job.id.0),
                            (
                                Job {
                                    release: new_release,
                                    ..job
                                },
                                *attempt,
                            ),
                        );
                    }
                }
            }
            Step::Orig => {
                let job = stored[next_orig];
                next_orig += 1;
                if screened {
                    router.retire(job.release.as_micros());
                    let eligible = router.eligible_at(job.release);
                    if !eligible.is_empty() && !router.admits(&job, &eligible) {
                        assignment.push(u32::MAX);
                        events.push((
                            job.release,
                            Event::AdmissionReject {
                                job: job.id,
                                policy: overload.admission.label(),
                            },
                        ));
                        rejected.push((job.release, job));
                        continue;
                    }
                }
                match router.admit(job) {
                    Some(s) => {
                        assignment.push(s as u32);
                        if hedging {
                            let slot = (router.streams[s].len() - 1) as u32;
                            copies.insert(job.id.0, vec![(s, slot)]);
                            let r_us = job.release.as_micros();
                            let d_us = job.deadline.as_micros();
                            if let Some(h_us) = overload.hedge.fire_at_us(r_us, d_us) {
                                if SimTime::from_micros(h_us) < end {
                                    hedges_pending.insert((h_us, d_us, job.id.0), (job, s, slot));
                                }
                            }
                        }
                    }
                    None => {
                        assignment.push(u32::MAX);
                        dropped.push((job.release, job));
                    }
                }
            }
            Step::Retry => {
                let (_, (job, attempt)) = retries.pop_first().expect("retry queue is non-empty");
                match router.admit(job) {
                    Some(s) => {
                        retried += 1;
                        events.push((
                            job.release,
                            Event::Retry {
                                job: job.id,
                                attempt,
                            },
                        ));
                        if hedging {
                            let slot = (router.streams[s].len() - 1) as u32;
                            copies.insert(job.id.0, vec![(s, slot)]);
                        }
                    }
                    None => dropped.push((job.release, job)),
                }
            }
            Step::Hedge => {
                let ((h_us, _, _), (job, p_shard, p_slot)) = hedges_pending
                    .pop_first()
                    .expect("hedge queue is non-empty");
                if !router.alive[p_shard][p_slot as usize] {
                    continue;
                }
                let at = SimTime::from_micros(h_us);
                router.retire(h_us);
                let mut target: Option<(usize, f64)> = None;
                for s in 0..shards {
                    if s == p_shard || plan.is_crashed(s, at) {
                        continue;
                    }
                    let score = pending_demand(&router.inflight[s]) / plan.capacity_fraction(s, at);
                    let better = match target {
                        Some((_, best)) => score.total_cmp(&best) == Ordering::Less,
                        None => true,
                    };
                    if better {
                        target = Some((s, score));
                    }
                }
                let Some((to_shard, _)) = target else {
                    continue;
                };
                let copy = Job { release: at, ..job };
                let slot = router.streams[to_shard].len() as u32;
                router.streams[to_shard].push(copy);
                router.alive[to_shard].push(true);
                let d_us = copy.deadline.as_micros();
                let w = &mut router.inflight[to_shard];
                let pos = w.partition_point(|&(d, _, _)| d <= d_us);
                w.insert(pos, (d_us, copy.demand, slot));
                copies.entry(job.id.0).or_default().push((to_shard, slot));
                events.push((
                    at,
                    Event::Hedge {
                        job: job.id,
                        to: to_shard as u32,
                    },
                ));
                let hedge = HedgeRecord {
                    pos: pos_of[&job.id.0],
                    from: p_shard as u16,
                    to: to_shard as u16,
                    primary_slot: p_slot,
                    hedge_slot: slot,
                    duel: false,
                };
                assert_eq!(
                    hedge.fired_at(&stored, &overload.hedge),
                    at,
                    "a hedge record's instant is its job's fire instant"
                );
                hedges.push(hedge);
            }
        }
    }

    for h in &mut hedges {
        h.duel = router.alive[h.from as usize][h.primary_slot as usize]
            && router.alive[h.to as usize][h.hedge_slot as usize];
    }

    let shard_jobs: Vec<JobSet> = router
        .streams
        .into_iter()
        .zip(router.alive)
        .map(|(stream, alive)| {
            let survivors: Vec<Job> = stream
                .into_iter()
                .zip(alive)
                .filter_map(|(j, a)| a.then_some(j))
                .collect();
            JobSet::new_unchecked(survivors)
        })
        .collect();

    let routed = shard_jobs
        .iter()
        .map(|s| {
            s.iter()
                .map(|j| RoutedCopy {
                    pos: pos_of[&j.id.0],
                    release: j.release,
                })
                .collect()
        })
        .collect();
    let plan = DispatchPlan {
        routed,
        assignment,
        dropped,
        rejected,
        redispatches,
        retried,
        hedges,
    };
    (plan, shard_jobs, events)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;
    use proptest::TestRunner;
    use qes_core::obs::TraceObserver;
    use qes_core::power::PolynomialPower;
    use qes_core::quality::ExpQuality;
    use qes_core::time::SimDuration;
    use qes_workload::DiurnalWorkload;
    use rand::RngCore;

    use super::*;
    use crate::admission::{HedgePolicy, RetryPolicy};
    use crate::dispatch::{dispatch_observed, dispatch_protected};
    use crate::fault::{FaultKind, FaultWindow};

    const CASES: u32 = 400;

    /// One dispatch scenario: every argument of the dispatcher.
    #[derive(Debug)]
    struct Scenario {
        jobs: JobSet,
        shards: usize,
        routing: RoutingPolicy,
        plan: FaultPlan,
        overload: OverloadPolicy,
        end: SimTime,
    }

    /// Random scenarios: up to 60 jobs with sparse distinct ids (so the
    /// position-named copies cannot lean on dense ids), simultaneous
    /// arrivals, non-agreeable deadlines and zero demands, over 1–4
    /// shards with random crash and brownout windows, under every
    /// routing × admission × retry × hedge variant, invalid hedge
    /// fractions included. Times sit on a 1 ms grid
    /// so that arrivals, retries, window edges and the horizon often
    /// coincide.
    struct AnyScenario;

    fn below(rng: &mut StdRng, n: u64) -> u64 {
        rng.next_u64() % n
    }

    /// A random multiple of 1 ms below `n` ms, in µs.
    fn ms_below(rng: &mut StdRng, n: u64) -> u64 {
        1_000 * below(rng, n)
    }

    impl Strategy for AnyScenario {
        type Value = Scenario;

        fn generate(&self, rng: &mut StdRng) -> Scenario {
            let shards = 1 + below(rng, 4) as usize;
            let n = below(rng, 61) as usize;
            let mut ids = BTreeSet::new();
            let mut jobs = Vec::with_capacity(n);
            let mut release_us = 0;
            while jobs.len() < n {
                let id = rng.next_u64() as u32;
                if !ids.insert(id) {
                    continue;
                }
                if below(rng, 3) != 0 {
                    release_us += ms_below(rng, 8);
                }
                let demand = if below(rng, 10) == 0 {
                    0.0
                } else {
                    400.0 * rng.gen::<f64>()
                };
                jobs.push(Job {
                    id: JobId(id),
                    release: SimTime::from_micros(release_us),
                    deadline: SimTime::from_micros(release_us + 1_000 + ms_below(rng, 300)),
                    demand,
                    partial: rng.gen(),
                });
            }
            let jobs = JobSet::new_unchecked(jobs);
            // The horizon sometimes cuts the stream short.
            let last = jobs.last_deadline().map_or(1_000_000, SimTime::as_micros);
            let end = SimTime::from_micros(last / 2 + ms_below(rng, last / 1_000));

            let mut plan = FaultPlan::none(shards);
            for shard in 0..shards {
                let mut t = 0;
                for _ in 0..below(rng, 4) {
                    let start = t + ms_below(rng, 200);
                    t = start + 1_000 + ms_below(rng, 150);
                    let kind = if rng.gen::<f64>() < 0.5 {
                        FaultKind::Crash
                    } else {
                        FaultKind::Brownout {
                            loss: 0.1 + 0.8 * rng.gen::<f64>(),
                        }
                    };
                    plan = plan.with_window(
                        shard,
                        FaultWindow {
                            start: SimTime::from_micros(start),
                            end: SimTime::from_micros(t),
                            kind,
                        },
                    );
                }
            }

            let routing = match below(rng, 5) {
                0 => RoutingPolicy::RoundRobin,
                1 => RoutingPolicy::Random {
                    seed: rng.next_u64(),
                },
                2 => RoutingPolicy::Jsq,
                3 => RoutingPolicy::LeastEnergy,
                _ => RoutingPolicy::Feedback,
            };
            let admission = match below(rng, 3) {
                0 => AdmissionPolicy::AcceptAll,
                1 => AdmissionPolicy::SlackFloor {
                    floor: [0.0, 1.0, rng.gen()][below(rng, 3) as usize],
                    capacity_ghz: 0.5 + 20.0 * rng.gen::<f64>(),
                },
                _ => {
                    let cap = 800.0 * rng.gen::<f64>();
                    AdmissionPolicy::Backpressure {
                        cap,
                        resume: cap * rng.gen::<f64>(),
                    }
                }
            };
            let retry = if below(rng, 3) == 0 {
                // Flat delay, 0 µs included.
                RetryPolicy {
                    base_delay: SimDuration::from_micros(ms_below(rng, 30)),
                    ..RetryPolicy::default()
                }
            } else {
                RetryPolicy::exponential(
                    below(rng, 5) as u32,
                    SimDuration::from_micros(1_000 + ms_below(rng, 20)),
                )
            };
            let invalid = [
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                0.0,
                1.0,
                -0.5,
                1e30,
            ];
            let hedge = match below(rng, 4) {
                0 => HedgePolicy::Disabled,
                1 => HedgePolicy::SlackFraction {
                    fraction: invalid[below(rng, invalid.len() as u64) as usize],
                },
                _ => HedgePolicy::SlackFraction {
                    fraction: rng.gen(),
                },
            };
            Scenario {
                jobs,
                shards,
                routing,
                plan,
                overload: OverloadPolicy {
                    admission,
                    retry,
                    hedge,
                },
                end,
            }
        }
    }

    /// A job's fields, its demand by bits.
    type JobBits = (u32, u64, u64, u64, bool);

    fn bits(j: &Job) -> JobBits {
        (
            j.id.0,
            j.release.as_micros(),
            j.deadline.as_micros(),
            j.demand.to_bits(),
            j.partial,
        )
    }

    /// Every [`DispatchPlan`] field in bit-exact comparable form (routed
    /// copies as `(input position, release µs)`), plus the per-shard job
    /// sets and the dispatcher events.
    #[derive(Debug, PartialEq)]
    struct Fingerprint {
        routed: Vec<Vec<(u32, u64)>>,
        shard_jobs: Vec<Vec<JobBits>>,
        assignment: Vec<u32>,
        dropped: Vec<(SimTime, JobBits)>,
        rejected: Vec<(SimTime, JobBits)>,
        redispatches: Vec<(SimTime, JobId, u32)>,
        retried: u64,
        hedges: Vec<(u32, u16, u16, u32, u32, bool)>,
        events: Vec<(SimTime, Event)>,
    }

    fn fingerprint((plan, shard_jobs, events): &Dispatched) -> Fingerprint {
        // Destructured so that a new field is a compile error here.
        let DispatchPlan {
            routed,
            assignment,
            dropped,
            rejected,
            redispatches,
            retried,
            hedges,
        } = plan;
        let timed = |v: &[(SimTime, Job)]| -> Vec<(SimTime, JobBits)> {
            v.iter().map(|(t, j)| (*t, bits(j))).collect()
        };
        Fingerprint {
            routed: routed
                .iter()
                .map(|s| s.iter().map(|c| (c.pos, c.release.as_micros())).collect())
                .collect(),
            shard_jobs: shard_jobs
                .iter()
                .map(|s| s.iter().map(bits).collect())
                .collect(),
            assignment: assignment.clone(),
            dropped: timed(dropped),
            rejected: timed(rejected),
            redispatches: redispatches.clone(),
            retried: *retried,
            hedges: hedges
                .iter()
                .map(|h| {
                    let HedgeRecord {
                        pos,
                        from,
                        to,
                        primary_slot,
                        hedge_slot,
                        duel,
                    } = *h;
                    (pos, from, to, primary_slot, hedge_slot, duel)
                })
                .collect(),
            events: events.clone(),
        }
    }

    /// A dispatcher's plan, its per-shard job sets and its dispatcher
    /// events.
    type Dispatched = (DispatchPlan, Vec<JobSet>, Vec<(SimTime, Event)>);

    /// The dense scan, its events recorded into a trace observer and its
    /// job sets materialized by [`DispatchPlan::shard_jobs`]. The
    /// observer must be passive: the plan is also checked against the
    /// unobserved [`dispatch_protected`].
    fn dense(c: &Scenario, quality: &dyn QualityFunction) -> Dispatched {
        let model = &PolynomialPower::PAPER_SIM;
        let mut obs = TraceObserver::new();
        let (jobs, routing, plan, overload) = (&c.jobs, &c.routing, &c.plan, &c.overload);
        let observed = dispatch_observed(
            jobs, c.shards, routing, model, quality, plan, overload, c.end, &mut obs,
        );
        assert_eq!(obs.dropped(), 0, "the trace ring overflowed");
        let plain = dispatch_protected(
            jobs, c.shards, routing, model, quality, plan, overload, c.end,
        );
        let bare = |plan| fingerprint(&(plan, Vec::new(), Vec::new()));
        assert!(
            bare(plain) == bare(observed.clone()),
            "observing the scan changed its plan"
        );
        let shard_jobs = observed.shard_jobs(jobs);
        (observed, shard_jobs, obs.events())
    }

    fn reference(c: &Scenario, quality: &dyn QualityFunction) -> Dispatched {
        dispatch_reference(
            &c.jobs,
            c.shards,
            &c.routing,
            &PolynomialPower::PAPER_SIM,
            quality,
            &c.plan,
            &c.overload,
            c.end,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CASES))]

        #[test]
        fn dense_dispatch_matches_the_reference_scan(case in AnyScenario) {
            let fast = fingerprint(&dense(&case, &ExpQuality::PAPER_DEFAULT));
            let slow = fingerprint(&reference(&case, &ExpQuality::PAPER_DEFAULT));
            prop_assert_eq!(fast, slow, "plans differ for {:?}\ndense: {:?}\nreference: {:?}", case, fast, slow);
        }
    }

    #[test]
    fn random_scenarios_reach_every_dispatch_path() {
        // The property is only as strong as its inputs: across its
        // cases, every mechanism must actually fire.
        let runner = TestRunner::new(
            ProptestConfig::with_cases(CASES),
            "dense_dispatch_matches_the_reference_scan",
        );
        let (mut rejected, mut dropped, mut retried, mut duels, mut absorbed) = (0, 0, 0, 0, 0);
        for case in 0..runner.cases() {
            let (plan, ..) = dense(
                &AnyScenario.generate(&mut runner.rng_for_case(case)),
                &ExpQuality::PAPER_DEFAULT,
            );
            rejected += plan.rejected.len();
            dropped += plan.dropped.len();
            retried += plan.retried;
            duels += plan.hedges.iter().filter(|h| h.duel).count();
            absorbed += plan.hedges.iter().filter(|h| !h.duel).count();
        }
        assert!(
            rejected > 0 && dropped > 0 && retried > 0 && duels > 0 && absorbed > 0,
            "rejected {rejected}, dropped {dropped}, retried {retried}, \
             duels {duels}, hedges with a stranded copy {absorbed}"
        );
    }

    #[test]
    fn slack_floor_with_nan_job_quality_matches_the_reference() {
        // Every shard's ratio is NaN, so the verdict rests on the best
        // ratio's starting value, 0, against the floor.
        struct NanQuality;
        impl QualityFunction for NanQuality {
            fn value(&self, _x: f64) -> f64 {
                f64::NAN
            }
            fn max_job_quality(&self, _job: &Job) -> f64 {
                1.0
            }
        }
        let jobs = JobSet::new_unchecked(
            (0..6)
                .map(|i| {
                    let at = SimTime::from_millis(u64::from(i));
                    Job::new(i, at, SimTime::from_millis(150), 100.0).unwrap()
                })
                .collect(),
        );
        for (floor, rejected) in [(0.0, 0), (0.5, 6)] {
            let case = Scenario {
                jobs: jobs.clone(),
                shards: 2,
                routing: RoutingPolicy::Feedback,
                plan: FaultPlan::none(2),
                overload: OverloadPolicy {
                    admission: AdmissionPolicy::SlackFloor {
                        floor,
                        capacity_ghz: 4.0,
                    },
                    ..OverloadPolicy::default()
                },
                end: SimTime::from_secs(1),
            };
            let fast = dense(&case, &NanQuality);
            assert_eq!(fast.0.rejected.len(), rejected, "floor {floor}");
            assert!(fingerprint(&fast) == fingerprint(&reference(&case, &NanQuality)));
        }
    }

    #[test]
    fn dense_dispatch_matches_the_reference_on_a_loaded_protected_stream() {
        // The protection stack of the cluster benchmark — slack-floor
        // admission, budgeted backoff retries, hedging — over a diurnal
        // stream that overloads four small shards under a seeded plan.
        let jobs = DiurnalWorkload::new(400.0, 200.0, 4.0)
            .with_horizon(SimTime::from_secs(8))
            .generate(5)
            .unwrap();
        let end = SimTime::from_secs(9);
        for routing in [
            RoutingPolicy::Feedback,
            RoutingPolicy::LeastEnergy,
            RoutingPolicy::Jsq,
        ] {
            let case = Scenario {
                jobs: jobs.clone(),
                shards: 4,
                routing,
                plan: FaultPlan::seeded(4, end, 9, 2.0, 0.5, 0.5),
                overload: OverloadPolicy {
                    admission: AdmissionPolicy::SlackFloor {
                        floor: 0.3,
                        capacity_ghz: 4.0,
                    },
                    retry: RetryPolicy::exponential(3, SimDuration::from_millis(5)),
                    hedge: HedgePolicy::SlackFraction { fraction: 0.5 },
                },
                end,
            };
            let fast = dense(&case, &ExpQuality::PAPER_DEFAULT);
            let (plan, _, events) = &fast;
            assert!(
                !plan.rejected.is_empty() && plan.retried > 0 && !plan.hedges.is_empty(),
                "{:?}: every mechanism should fire",
                case.routing
            );
            assert_eq!(
                events.len() as u64,
                plan.rejected.len() as u64 + plan.retried + plan.hedges.len() as u64,
                "{:?}: one event per reject, retry and hedge",
                case.routing
            );
            assert!(
                fingerprint(&fast) == fingerprint(&reference(&case, &ExpQuality::PAPER_DEFAULT)),
                "{:?}: dense and reference plans differ",
                case.routing
            );
        }
    }
}
