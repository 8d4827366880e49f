//! Sharded cluster front end: one arrival stream, N simulated machines.
//!
//! The paper evaluates DES on a single 16-core machine; a service with
//! "heavy traffic from millions of users" runs many such machines behind
//! a dispatcher. This module scales the *simulation itself* across
//! machines: [`dispatch_protected`] splits a single release-ordered
//! arrival stream over `N` shards under a pluggable [`RoutingPolicy`], and
//! [`ClusterEngine`] runs one independent per-shard simulation (the
//! unmodified `qes-sim` engine with its own policy instance) per shard,
//! fanning the shards out on the rayon thread pool and merging the
//! per-shard [`SimReport`]s into a cluster-level [`ClusterReport`].
//!
//! On top of the healthy path, the engine accepts a deterministic
//! [`FaultPlan`] (crash/brownout windows per shard, see `fault`): the
//! dispatch pre-pass skips crashed shards, strands the jobs caught on a
//! crashing shard and re-releases them to survivors after a retry
//! delay, and each shard's simulation is segmented into capacity
//! epochs (full / browned-out / down). Dropped and retried jobs are
//! surfaced on the [`ClusterReport`].
//!
//! Overload protection (see `admission`) layers three more mechanisms
//! into the same pre-pass, all pure functions of pre-run data:
//! deadline-aware **admission control** (reject hopeless arrivals into
//! a `jobs_rejected` class distinct from the fault path's drops),
//! **retry budgets** with exponential backoff and seeded jitter
//! (stranded jobs give up cleanly into `jobs_dropped` when the budget
//! or the deadline is exhausted), and deterministic **request hedging**
//! (once a slack fraction elapses, dispatch a second copy to the
//! next-best healthy shard; the first copy to finish wins, the loser is
//! charged to energy but not quality). The default
//! [`OverloadPolicy`] degenerates to the PR 9 path by construction.
//!
//! # Determinism contract
//!
//! * **Routing is a sequential pre-pass.** Shard assignment — and all
//!   fault and overload handling: stranding, retry re-release,
//!   dropping, admission, hedging — is computed by one in-order scan of
//!   a single event heap (arrivals, crash instants, retries, hedge
//!   fires) before any simulation starts, so it cannot depend on thread
//!   scheduling.
//! * **Lane count is unobservable.** Per-shard simulations are pure
//!   functions of (shard job set, fault epochs, policy, machine config);
//!   the rayon shim's `collect()` returns them in shard order, so a run
//!   under `QES_THREADS=1` is bit-for-bit identical to a fanned-out run
//!   (`tests/cluster_differential.rs` pins this).
//! * **Zero faults ≡ the fault-free path.** Under
//!   [`FaultPlan::none`] every query degenerates (all shards eligible,
//!   one healthy epoch per shard), and each construct is written so the
//!   degenerate case is the PR 8 code path *by construction* — the
//!   reports are bitwise identical across the routing matrix.
//! * **One shard degenerates to the plain engine.** With `N = 1` every
//!   job lands on shard 0 and the merged report is the shard's report —
//!   bitwise, including every counter.
//! * **Seed-split RNGs.** Shard `i` owns the derived seed
//!   [`split_seed`]`(base, i)`; the streams are disjoint, so re-seeding
//!   one shard cannot perturb another shard's results. The core
//!   quality/energy path consumes no randomness at all — seeds only feed
//!   the optional per-shard [`PowerMeter`] noise stream (fault plans are
//!   sampled *before* the run by [`FaultPlan::seeded`], never during).
//!
//! # Routing policies
//!
//! The dispatcher tracks, per shard, the jobs routed there whose
//! deadlines have not yet passed (the *in-flight window* — pessimistic:
//! a routed job is assumed to occupy its shard until its deadline).
//! Windows are deadline-sorted; retry re-releases may carry earlier
//! deadlines than the window tail, so insertion keeps the sort (for an
//! agreeable stream with no retries this is a plain push-back).
//! Crashed shards are never eligible; when every shard is crashed the
//! job is dropped. On top of that window:
//!
//! * [`RoutingPolicy::RoundRobin`] — cyclic assignment (skipping
//!   crashed shards without consuming their turn's successor);
//! * [`RoutingPolicy::Random`] — seeded uniform choice among eligible
//!   shards;
//! * [`RoutingPolicy::Jsq`] — join-shortest-queue on the in-flight
//!   count, ties broken toward the lowest shard index (so decisions are
//!   a function of the `(release, deadline)` stream, not of job-id
//!   labels);
//! * [`RoutingPolicy::LeastEnergy`] — power-aware: route where the
//!   DES step-2 power probe (the closed-form max-prefix-density speed
//!   of the shard's in-flight window, priced through the machine's
//!   power model) grows the least; comparisons use `f64::total_cmp`
//!   with ties toward the lowest index, so NaN deltas (degenerate power
//!   models) still produce a deterministic, documented choice;
//! * [`RoutingPolicy::Feedback`] — failover-aware feedback routing:
//!   each shard reports its queue depth (pending in-flight demand) and
//!   health (current capacity fraction from the fault plan); the job
//!   goes to the shard with the lowest depth ÷ capacity score, ties
//!   toward the lowest index. With no faults this is least-pending-work
//!   routing; under brownouts it sheds load away from degraded shards.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

/// One duelling copy's `(duel slot, processed, quality)` as observed on
/// a shard, fed to the first-wins duel settlement in the merge: duel
/// `k`'s primary copy reports into slot `2k`, its hedge copy `2k + 1`.
type DuelOutcome = (u32, f64, f64);

use qes_core::job::{Job, JobId, JobSet};
use qes_core::obs::{Event, NoopObserver, Observer, OutageKind};
use qes_core::power::PowerModel;
use qes_core::quality::QualityFunction;
use qes_core::time::SimTime;
use qes_core::MetricsRegistry;
use qes_multicore::SchedulingPolicy;
use qes_sim::engine::{demand_met, SimConfig, Simulator};
use qes_sim::report::{SimCounters, SimReport};
use qes_sim::trace::{SimTrace, TraceSlice};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use crate::admission::{AdmissionPolicy, OverloadPolicy};
use crate::fault::{effective_cores, FaultKind, FaultPlan};
use crate::meter::PowerMeter;

#[cfg(test)]
mod reference;

/// How the dispatcher picks a shard for each arriving job.
#[derive(Clone, Debug, PartialEq)]
pub enum RoutingPolicy {
    /// Cyclic assignment: job `k` (in release order) goes to shard
    /// `k mod N` (the next eligible shard under faults).
    RoundRobin,
    /// Uniform random shard per job, drawn from a dedicated
    /// deterministic stream.
    Random {
        /// Seed of the routing RNG (independent of the shard seeds).
        seed: u64,
    },
    /// Join-shortest-queue on the in-flight job count; ties go to the
    /// lowest shard index.
    Jsq,
    /// Least-energy-increment: the shard whose step-2 power probe rises
    /// the least when the job is added; ties go to the lowest index.
    LeastEnergy,
    /// Feedback routing on shard-reported queue depth ÷ available
    /// capacity; ties go to the lowest index. Skips crashed shards and
    /// sheds load away from browned-out ones.
    Feedback,
}

impl RoutingPolicy {
    /// Stable lowercase label for report keys and figure rows.
    pub fn label(&self) -> &'static str {
        match self {
            RoutingPolicy::RoundRobin => "round-robin",
            RoutingPolicy::Random { .. } => "random",
            RoutingPolicy::Jsq => "jsq",
            RoutingPolicy::LeastEnergy => "least-energy",
            RoutingPolicy::Feedback => "feedback",
        }
    }
}

/// Derive shard `lane`'s seed from a cluster base seed (SplitMix64-style
/// mix-and-finalize). Distinct lanes map to distinct, well-separated
/// seeds, so per-shard `StdRng` streams are disjoint in practice;
/// changing one shard's seed leaves every other shard's stream — and
/// report — untouched.
pub fn split_seed(base: u64, lane: u64) -> u64 {
    let mut z = base ^ lane.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One entry of a shard's in-flight window: a routed copy whose
/// deadline is still ahead.
#[derive(Clone, Copy, Debug)]
struct InFlightJob {
    deadline_us: u64,
    demand: f64,
    /// Index into the shard's routed-job stream, so a crash can strand
    /// exactly the copies still in the window.
    slot: u32,
    /// The job's position in the input stream: the index of its
    /// per-job dispatch state.
    pos: u32,
}

/// The in-flight window of one shard. Deadline-sorted by construction;
/// retirement pops from the front and the probe scans prefixes in
/// deadline order.
type InFlight = VecDeque<InFlightJob>;

/// The step-2 probe speeds (GHz) of one in-flight window at `now_us`,
/// without and with a candidate job `(deadline_us, demand)` appended:
/// the maximum prefix density over deadline-ordered jobs, exactly the
/// closed form the DES policy uses for its per-core power requests
/// (demands are processing units = 1 GHz·ms, hence the factor 1000
/// against microsecond windows). One pass gives both, because the
/// candidate's term only extends the prefix maximum. A window entry or
/// candidate whose deadline is at or before `now_us` (zero slack) is
/// clamped to a 1 µs floor so the density stays finite instead of
/// underflowing or dividing by zero.
fn probe_speeds(window: &InFlight, now_us: u64, (cand_us, cand_demand): (u64, f64)) -> (f64, f64) {
    let density = |cum: f64, d_us: u64| cum * 1000.0 / d_us.saturating_sub(now_us).max(1) as f64;
    let mut cum = 0.0;
    let mut speed = 0.0f64;
    for e in window {
        cum += e.demand;
        speed = speed.max(density(cum, e.deadline_us));
    }
    (speed, speed.max(density(cum + cand_demand, cand_us)))
}

/// Sum of demands still in one shard's in-flight window — the "queue
/// depth" a shard reports to [`RoutingPolicy::Feedback`].
fn pending_demand(window: &InFlight) -> f64 {
    window.iter().map(|e| e.demand).sum()
}

/// The shard with the lowest `key` under `f64::total_cmp` (NaN sorts
/// above +inf, so degenerate keys still give a deterministic pick);
/// ties go to the first shard `shards` yields.
fn lowest(shards: impl Iterator<Item = usize>, key: impl Fn(usize) -> f64) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for s in shards {
        let k = key(s);
        if best.is_none_or(|(_, b)| k.total_cmp(&b) == Ordering::Less) {
            best = Some((s, k));
        }
    }
    best.map(|(s, _)| s)
}

/// One hedge dispatch: a second copy of a slow job sent to another
/// shard ([`dispatch_protected`] with
/// [`HedgePolicy::SlackFraction`](crate::admission::HedgePolicy::SlackFraction)).
#[derive(Clone, Copy, Debug)]
pub struct HedgeRecord {
    /// The instant the hedge copy was dispatched.
    pub at: SimTime,
    /// The hedged job (original release and deadline).
    pub job: Job,
    /// Shard holding the primary copy at dispatch time.
    pub from: u32,
    /// Shard the hedge copy went to.
    pub to: u32,
    /// Stream slot of the primary copy on `from`.
    pub primary_slot: u32,
    /// Stream slot of the hedge copy on `to`.
    pub hedge_slot: u32,
    /// True when both copies survived to simulation (neither was
    /// stranded by a later crash): the merged report must settle the
    /// duel with first-wins accounting.
    pub duel: bool,
}

/// The outcome of the dispatch pre-pass ([`dispatch_protected`]).
#[derive(Clone, Debug)]
pub struct DispatchPlan {
    /// Final per-shard job streams: original arrivals plus surviving
    /// retry re-releases and hedge copies, minus stranded copies,
    /// sorted by `(release, deadline, id)`. Retries and hedge copies
    /// keep their original deadline, so the delay eats the job's slack
    /// (streams may lose agreeability; the per-shard engine does not
    /// require it).
    pub shard_jobs: Vec<JobSet>,
    /// Shard of each *original* job in stream order, `u32::MAX` when
    /// the dispatcher dropped it (no eligible shard at release, or a
    /// later stranding with an infeasible retry) or the admission
    /// policy rejected it (the `dropped`/`rejected` lists distinguish
    /// the two).
    pub assignment: Vec<u32>,
    /// Jobs the dispatcher dropped, with the drop instant.
    pub dropped: Vec<(SimTime, Job)>,
    /// Jobs the admission policy rejected at arrival, with the
    /// rejection instant. Always empty under
    /// [`AdmissionPolicy::AcceptAll`].
    pub rejected: Vec<(SimTime, Job)>,
    /// Stranding records `(crash instant, job, crashed shard)`, in
    /// crash order — one per stranded copy, whether or not the retry
    /// later succeeded (a stranded copy of a hedged pair whose twin
    /// survives is recorded here too, then silently cancelled).
    pub redispatches: Vec<(SimTime, JobId, u32)>,
    /// Retry re-releases that were successfully routed to a surviving
    /// shard.
    pub retried: u64,
    /// Hedge dispatches, in fire order.
    pub hedges: Vec<HedgeRecord>,
}

/// A live copy's location `(shard, slot)`.
type CopyLoc = (u32, u32);

/// An empty copy slot.
const NO_COPY: CopyLoc = (u32::MAX, u32::MAX);

/// What one queued event of the dispatch scan does. Jobs are named by
/// their position in the input stream, whose entry supplies every field
/// but a retry's release.
#[derive(Clone, Copy)]
enum ScanEvent {
    /// The plan's next crash start, on this shard.
    Crash { shard: usize },
    /// The next original arrival.
    Arrival { pos: u32 },
    /// A stranded job's re-release, on its `attempt`-th strand.
    Retry { pos: u32, attempt: u32 },
    /// A hedge fire for the job whose primary copy sits in `slot` on
    /// `shard`.
    Hedge { pos: u32, shard: usize, slot: u32 },
}

/// A queued scan event, ordered by its `(t_us, class, deadline_us, id)`
/// key alone, where the class gives the tie order at one instant:
/// crash 0 < arrival 1 < retry 2 < hedge 3. The heap holds at most one
/// crash and one arrival (their cursors refill it on pop) and at most
/// one retry and one hedge per job, so with distinct job ids the key is
/// unique and heap order is the key's total order.
struct Queued {
    key: (u64, u8, u64, u32),
    event: ScanEvent,
}

impl Queued {
    /// `event` at `t`, tie-broken by `job`'s deadline and id.
    fn new(t: SimTime, event: ScanEvent, job: &Job) -> Self {
        let class = match event {
            ScanEvent::Crash { .. } => 0,
            ScanEvent::Arrival { .. } => 1,
            ScanEvent::Retry { .. } => 2,
            ScanEvent::Hedge { .. } => 3,
        };
        Queued {
            key: (t.as_micros(), class, job.deadline.as_micros(), job.id.0),
            event,
        }
    }

    /// A crash of `shard` at `t`.
    fn crash((t, shard): (SimTime, usize)) -> Self {
        Queued {
            key: (t.as_micros(), 0, 0, 0),
            event: ScanEvent::Crash { shard },
        }
    }
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for Queued {}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

/// Mutable routing state shared by every event of the dispatch scan.
struct Router<'a> {
    routing: &'a RoutingPolicy,
    model: &'a dyn PowerModel,
    plan: &'a FaultPlan,
    quality: &'a dyn QualityFunction,
    admission: &'a AdmissionPolicy,
    shards: usize,
    inflight: Vec<InFlight>,
    /// `pending_demand` of each window, recomputed — in the same order,
    /// so to the same bits — whenever that window changes.
    pending: Vec<f64>,
    /// Per-shard routed-job stream (in routing order) and whether each
    /// entry is still alive (not stranded by a later crash).
    streams: Vec<Vec<Job>>,
    alive: Vec<Vec<bool>>,
    /// The scan instant: the time of the event being handled.
    now: SimTime,
    /// Fault cursor: per shard, how many of the plan's windows have
    /// opened by `now`.
    opened: Vec<usize>,
    /// Per shard, the fault active at `now`.
    fault: Vec<Option<FaultKind>>,
    /// Shards accepting work at `now` (not crashed), ascending.
    eligible: Vec<usize>,
    /// Backpressure hysteresis: whether each shard is currently
    /// shedding (in-flight demand crossed the cap and has not yet
    /// drained to the resume level). All-false under every other
    /// admission policy.
    shedding: Vec<bool>,
    rr: usize,
    rng: Option<StdRng>,
}

impl Router<'_> {
    /// Move the scan to `now`: advance every shard's fault cursor,
    /// retire expired in-flight entries (windows are deadline-FIFO), and
    /// rebuild the eligible set. The cursors only move forward, which is
    /// sound because the scan's event times never decrease.
    fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.now, "dispatch scan went back in time");
        self.now = now;
        let now_us = now.as_micros();
        let plan = self.plan;
        self.eligible.clear();
        for s in 0..self.shards {
            let windows = plan.windows(s);
            let opened = &mut self.opened[s];
            while windows.get(*opened).is_some_and(|w| w.start <= now) {
                *opened += 1;
            }
            // Windows are sorted and disjoint: only the last one opened
            // can still be open.
            self.fault[s] = opened
                .checked_sub(1)
                .map(|i| windows[i])
                .filter(|w| now < w.end)
                .map(|w| w.kind);
            debug_assert_eq!(
                self.capacity(s).to_bits(),
                plan.capacity_fraction(s, now).to_bits(),
                "fault cursor disagrees with the plan"
            );
            if self.fault[s] != Some(FaultKind::Crash) {
                self.eligible.push(s);
            }
            let window = &mut self.inflight[s];
            let live = window.len();
            while window.front().is_some_and(|e| e.deadline_us <= now_us) {
                window.pop_front();
            }
            if window.len() != live {
                self.refresh_pending(s);
            }
        }
    }

    /// Fraction of `shard`'s capacity available at `now` (0 when
    /// crashed).
    fn capacity(&self, shard: usize) -> f64 {
        self.fault[shard].map_or(1.0, |k| k.capacity_fraction())
    }

    /// Pending in-flight demand of `shard` (the cached window sum).
    fn depth(&self, shard: usize) -> f64 {
        debug_assert_eq!(
            self.pending[shard].to_bits(),
            pending_demand(&self.inflight[shard]).to_bits(),
            "stale cached window sum"
        );
        self.pending[shard]
    }

    fn refresh_pending(&mut self, shard: usize) {
        self.pending[shard] = pending_demand(&self.inflight[shard]);
    }

    /// Overload-admission verdict for one *original* arrival (retries
    /// and hedge copies always bypass admission), at the scan instant.
    /// Updates the backpressure hysteresis state as a side effect.
    fn admits(&mut self, job: &Job) -> bool {
        let now_us = self.now.as_micros();
        match *self.admission {
            AdmissionPolicy::AcceptAll => true,
            AdmissionPolicy::SlackFloor {
                floor,
                capacity_ghz,
            } => {
                let q_max = self.quality.max_job_quality(job);
                // NaN-safe: a NaN or zero-mass max quality admits.
                if q_max.partial_cmp(&0.0) != Some(Ordering::Greater) {
                    // A zero-mass job can't fall below any floor.
                    return true;
                }
                let cand = (job.deadline.as_micros(), job.demand);
                for &s in &self.eligible {
                    // Required speed to clear this shard's window plus
                    // the candidate; the shard can deliver at most its
                    // (fault-degraded) capacity, so the achievable
                    // completed fraction caps at eff / required.
                    let (_, s_req) = probe_speeds(&self.inflight[s], now_us, cand);
                    let eff = capacity_ghz * self.capacity(s);
                    let frac = if s_req > 0.0 {
                        (eff / s_req).clamp(0.0, 1.0)
                    } else {
                        1.0
                    };
                    let q = self.quality.job_quality(job, frac * job.demand);
                    // The verdict is whether the best shard's ratio
                    // clears the floor, so the first one that does
                    // settles it.
                    if q / q_max >= floor {
                        return true;
                    }
                }
                // The best ratio starts at 0 and NaN ratios never
                // raise it.
                0.0 >= floor
            }
            AdmissionPolicy::Backpressure { cap, resume } => {
                debug_assert!(resume <= cap, "hysteresis band inverted");
                for s in 0..self.shards {
                    let depth = self.depth(s);
                    if self.shedding[s] {
                        if depth <= resume {
                            self.shedding[s] = false;
                        }
                    } else if depth >= cap {
                        self.shedding[s] = true;
                    }
                }
                !self.eligible.iter().all(|&s| self.shedding[s])
            }
        }
    }

    /// Route one arrival (original or retry, at input position `pos`)
    /// at the scan instant, which [`Router::advance`] must have moved
    /// to its release. Returns the chosen shard and the copy's slot
    /// there, or `None` when every shard is crashed.
    fn route(&mut self, job: Job, pos: u32) -> Option<(usize, u32)> {
        let &first = self.eligible.first()?;
        let now_us = self.now.as_micros();
        let eligible = self.eligible.iter().copied();
        let shard = match self.routing {
            RoutingPolicy::RoundRobin => {
                // First eligible shard at or after the cursor,
                // cyclically; with no faults this is the plain cursor.
                let s = eligible.clone().find(|&s| s >= self.rr).unwrap_or(first);
                self.rr = (s + 1) % self.shards;
                s
            }
            RoutingPolicy::Random { .. } => {
                let u: f64 = self
                    .rng
                    .as_mut()
                    .expect("random routing carries an rng")
                    .gen();
                let n = self.eligible.len();
                self.eligible[((u * n as f64) as usize).min(n - 1)]
            }
            // `min_by_key` keeps the first (lowest-index) minimum.
            RoutingPolicy::Jsq => eligible
                .min_by_key(|&s| self.inflight[s].len())
                .expect("eligible set is non-empty"),
            RoutingPolicy::LeastEnergy => {
                let cand = (job.deadline.as_micros(), job.demand);
                // total_cmp gives a total order (NaN sorts above +inf),
                // so a degenerate power model still yields the
                // documented lowest-index tie-break deterministically.
                lowest(eligible, |s| {
                    let (before, after) = probe_speeds(&self.inflight[s], now_us, cand);
                    self.model.dynamic_power(after) - self.model.dynamic_power(before)
                })
                .expect("eligible set is non-empty")
            }
            // Queue depth ÷ available capacity: a shard at half capacity
            // looks twice as deep. Crashed shards are not eligible.
            RoutingPolicy::Feedback => lowest(eligible, |s| self.depth(s) / self.capacity(s))
                .expect("eligible set is non-empty"),
        };
        Some((shard, self.place(shard, job, pos)))
    }

    /// Append a copy of the job at input position `pos` to `shard`'s
    /// stream and window, returning its slot. The window insert keeps
    /// deadline order, equal deadlines in arrival order; for an
    /// agreeable stream with no retries it is a push at the back.
    fn place(&mut self, shard: usize, job: Job, pos: u32) -> u32 {
        let slot = self.streams[shard].len() as u32;
        self.streams[shard].push(job);
        self.alive[shard].push(true);
        let deadline_us = job.deadline.as_micros();
        let w = &mut self.inflight[shard];
        let at = w.partition_point(|e| e.deadline_us <= deadline_us);
        w.insert(
            at,
            InFlightJob {
                deadline_us,
                demand: job.demand,
                slot,
                pos,
            },
        );
        self.refresh_pending(shard);
        slot
    }
}

/// Assign every job of the release-sorted stream to a shard, under a
/// fault plan and an overload-protection policy.
///
/// A deterministic sequential pre-pass over one event heap holding
/// original arrivals, crash instants, retry re-releases and hedge fire
/// instants (ties resolve crash → arrival → retry → hedge):
///
/// * **Routing and failover**: each arrival goes to an eligible
///   (not crashed) shard under `routing`, and is dropped when every
///   shard is crashed. A crash strands the copies still in the shard's
///   in-flight window and re-releases each to a survivor after a retry
///   delay, keeping its original deadline; a re-release at or past the
///   deadline, or past the horizon `end`, is dropped instead.
/// * **Admission** (`overload.admission`): each *original* arrival is
///   screened before routing; a rejected job gets assignment
///   `u32::MAX` and lands in `rejected` (never `dropped` — the two
///   classes stay disjoint). Retries and hedge copies bypass
///   admission: the cluster has already invested in them.
/// * **Retry budget** (`overload.retry`): a stranded copy's attempt
///   counter increments per strand; past `max_attempts` it gives up
///   into `dropped`. Otherwise it re-releases after
///   [`RetryPolicy::delay_for`](crate::admission::RetryPolicy::delay_for)
///   (exponential backoff, seeded jitter).
/// * **Hedging** (`overload.hedge`): when an original is routed and
///   the slack-fraction instant lands strictly inside `(release,
///   deadline)` and before the horizon, a hedge copy fires at that
///   instant *iff the primary is still alive*, to the lowest-scoring
///   healthy shard other than the primary's (feedback score: pending
///   demand ÷ capacity fraction). A stranded copy whose twin survives
///   is cancelled silently (recorded in `redispatches`, not retried or
///   dropped); a hedge pair with both copies alive at the end is a
///   *duel* the report merge settles first-wins.
///
/// Under [`FaultPlan::none`] and the default [`OverloadPolicy`] —
/// accept everything, retry forever at the plan's fixed delay, never
/// hedge — this is the plain fault-free routing pass, and the quality
/// function is never consulted under [`AdmissionPolicy::AcceptAll`].
/// Conservation: `routed(shard streams) + dropped + rejected =
/// arrivals + duels`.
///
/// Each event costs O(shards + window) with no per-job allocation (see
/// DESIGN.md §11, "Dispatch data layout"): per-job state lives in
/// dense arrays indexed by the job's position in `jobs`, the heap is
/// keyed by `(instant, class, deadline, id)` — so job ids must be
/// distinct — and fault state comes from a per-shard cursor over the
/// plan's windows. The cursor is sound because event times never
/// decrease: arrivals are release-sorted, a retry re-releases at or
/// after the crash that stranded it, and a hedge fires strictly after
/// its release.
#[allow(clippy::too_many_arguments)]
pub fn dispatch_protected(
    jobs: &JobSet,
    shards: usize,
    routing: &RoutingPolicy,
    model: &dyn PowerModel,
    quality: &dyn QualityFunction,
    plan: &FaultPlan,
    overload: &OverloadPolicy,
    end: SimTime,
) -> DispatchPlan {
    dispatch_observed(
        jobs,
        shards,
        routing,
        model,
        quality,
        plan,
        overload,
        end,
        &mut NoopObserver,
    )
}

/// [`dispatch_protected`] recording the dispatcher's admission rejects,
/// retry re-releases and hedge dispatches into `obs` as the scan makes
/// them (non-decreasing timestamps). Like every observer, `obs` is
/// passive: the plan is bitwise-identical with a [`NoopObserver`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn dispatch_observed<D: Observer>(
    jobs: &JobSet,
    shards: usize,
    routing: &RoutingPolicy,
    model: &dyn PowerModel,
    quality: &dyn QualityFunction,
    plan: &FaultPlan,
    overload: &OverloadPolicy,
    end: SimTime,
    obs: &mut D,
) -> DispatchPlan {
    assert!(shards > 0, "a cluster needs at least one shard");
    assert_eq!(plan.shards(), shards, "fault plan must cover every shard");
    let arrivals = jobs.jobs();
    assert!(
        u32::try_from(arrivals.len()).is_ok(),
        "job positions must fit in u32"
    );
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
        // The empty sum's own bits (not a literal 0.0): scores compare
        // by `total_cmp`, which tells -0.0 from +0.0.
        pending: vec![pending_demand(&InFlight::new()); shards],
        streams: vec![Vec::new(); shards],
        alive: vec![Vec::new(); shards],
        now: SimTime::ZERO,
        opened: vec![0; shards],
        fault: vec![None; shards],
        eligible: Vec::with_capacity(shards),
        shedding: vec![false; shards],
        rr: 0,
        rng: match routing {
            RoutingPolicy::Random { seed } => Some(StdRng::seed_from_u64(*seed)),
            _ => None,
        },
    };

    // The arrival at input position `pos`, if any.
    let arrival = |pos: usize| {
        arrivals.get(pos).map(|j| {
            Reverse(Queued::new(
                j.release,
                ScanEvent::Arrival { pos: pos as u32 },
                j,
            ))
        })
    };
    let mut crashes = plan.crash_starts().into_iter().filter(|&(t, _)| t < end);
    let mut queue: BinaryHeap<Reverse<Queued>> = BinaryHeap::new();
    queue.extend(arrival(0));
    queue.extend(crashes.next().map(Queued::crash).map(Reverse));
    // Per-job state by input position: the strand count (the retry
    // budget's meter), and — only while hedging — the live copies. A
    // job has at most two (primary and hedge): hedge targets always
    // differ from the primary's shard, and a retry fires only once no
    // copy is alive.
    let mut attempts: Vec<u32> = vec![0; arrivals.len()];
    let mut copies: Vec<[CopyLoc; 2]> = if hedging {
        vec![[NO_COPY; 2]; arrivals.len()]
    } else {
        Vec::new()
    };

    let mut assignment: Vec<u32> = Vec::with_capacity(arrivals.len());
    let mut dropped: Vec<(SimTime, Job)> = Vec::new();
    let mut rejected: Vec<(SimTime, Job)> = Vec::new();
    let mut redispatches: Vec<(SimTime, JobId, u32)> = Vec::new();
    let mut retried = 0u64;
    let mut hedges: Vec<HedgeRecord> = Vec::new();

    while let Some(Reverse(Queued { key, event })) = queue.pop() {
        let t = SimTime::from_micros(key.0);
        match event {
            ScanEvent::Crash { shard } => {
                queue.extend(crashes.next().map(Queued::crash).map(Reverse));
                let t_us = t.as_micros();
                let w = &mut router.inflight[shard];
                // Jobs whose deadlines already passed completed before
                // the crash; the rest are stranded.
                while w.front().is_some_and(|e| e.deadline_us <= t_us) {
                    w.pop_front();
                }
                for e in w.drain(..) {
                    let job = router.streams[shard][e.slot as usize];
                    router.alive[shard][e.slot as usize] = false;
                    redispatches.push((t, job.id, shard as u32));
                    let pos = e.pos as usize;
                    if hedging {
                        let locs = &mut copies[pos];
                        for loc in locs.iter_mut() {
                            if *loc == (shard as u32, e.slot) {
                                *loc = NO_COPY;
                            }
                        }
                        if locs.iter().any(|&loc| loc != NO_COPY) {
                            // The twin copy survives: cancel this
                            // strand silently — no retry, no drop.
                            continue;
                        }
                    }
                    attempts[pos] += 1;
                    let attempt = attempts[pos];
                    if attempt > retry_policy.max_attempts {
                        // Retry budget exhausted: give up cleanly.
                        dropped.push((t, job));
                        continue;
                    }
                    let delay = retry_policy.delay_for(attempt, plan.retry_delay(), job.id.0);
                    // Saturates at `SimTime::MAX`, which is never before
                    // a deadline, so the job is dropped rather than
                    // wrapped into the past.
                    let new_release = t + delay;
                    if new_release >= job.deadline || new_release > end {
                        dropped.push((t, job));
                    } else {
                        let retry = ScanEvent::Retry {
                            pos: e.pos,
                            attempt,
                        };
                        queue.push(Reverse(Queued::new(new_release, retry, &job)));
                    }
                }
                router.refresh_pending(shard);
            }
            ScanEvent::Arrival { pos } => {
                queue.extend(arrival(pos as usize + 1));
                let job = arrivals[pos as usize];
                router.advance(t);
                if screened && !router.eligible.is_empty() && !router.admits(&job) {
                    assignment.push(u32::MAX);
                    if D::ENABLED {
                        obs.record(
                            t,
                            Event::AdmissionReject {
                                job: job.id,
                                policy: overload.admission.label(),
                            },
                        );
                    }
                    rejected.push((t, job));
                    continue;
                }
                match router.route(job, pos) {
                    Some((s, slot)) => {
                        assignment.push(s as u32);
                        if hedging {
                            copies[pos as usize] = [(s as u32, slot), NO_COPY];
                            // Only hedge when the fire instant lies
                            // strictly inside the job's window and
                            // before the horizon.
                            let fire = overload
                                .hedge
                                .fire_at_us(t.as_micros(), job.deadline.as_micros())
                                .map(SimTime::from_micros)
                                .filter(|&h| h < end);
                            if let Some(h) = fire {
                                let hedge = ScanEvent::Hedge {
                                    pos,
                                    shard: s,
                                    slot,
                                };
                                queue.push(Reverse(Queued::new(h, hedge, &job)));
                            }
                        }
                    }
                    None => {
                        assignment.push(u32::MAX);
                        dropped.push((t, job));
                    }
                }
            }
            ScanEvent::Retry { pos, attempt } => {
                let job = Job {
                    release: t,
                    ..arrivals[pos as usize]
                };
                router.advance(t);
                match router.route(job, pos) {
                    Some((s, slot)) => {
                        retried += 1;
                        if D::ENABLED {
                            obs.record(
                                t,
                                Event::Retry {
                                    job: job.id,
                                    attempt,
                                },
                            );
                        }
                        if hedging {
                            copies[pos as usize] = [(s as u32, slot), NO_COPY];
                        }
                    }
                    None => dropped.push((t, job)),
                }
            }
            ScanEvent::Hedge {
                pos,
                shard: p_shard,
                slot: p_slot,
            } => {
                if !router.alive[p_shard][p_slot as usize] {
                    // The primary was stranded before the hedge fired;
                    // the retry path owns the job now.
                    continue;
                }
                let job = arrivals[pos as usize];
                router.advance(t);
                // Next-best healthy shard, excluding the primary's, by
                // feedback score (pending demand ÷ capacity fraction),
                // lowest index on ties.
                let target = lowest(
                    router.eligible.iter().copied().filter(|&s| s != p_shard),
                    |s| router.depth(s) / router.capacity(s),
                );
                let Some(to_shard) = target else {
                    // No healthy twin shard: skip this hedge.
                    continue;
                };
                let slot = router.place(to_shard, Job { release: t, ..job }, pos);
                let free = copies[pos as usize]
                    .iter_mut()
                    .find(|loc| **loc == NO_COPY)
                    .expect("a job has at most two live copies");
                *free = (to_shard as u32, slot);
                if D::ENABLED {
                    obs.record(
                        t,
                        Event::Hedge {
                            job: job.id,
                            to: to_shard as u32,
                        },
                    );
                }
                hedges.push(HedgeRecord {
                    at: t,
                    job,
                    from: p_shard as u32,
                    to: to_shard as u32,
                    primary_slot: p_slot,
                    hedge_slot: slot,
                    duel: false,
                });
            }
        }
    }

    // A hedge whose both copies survived to simulation is a duel; the
    // merged report settles it first-wins.
    for h in &mut hedges {
        h.duel = router.alive[h.from as usize][h.primary_slot as usize]
            && router.alive[h.to as usize][h.hedge_slot as usize];
    }
    let duels = hedges.iter().filter(|h| h.duel).count();

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
            // Retries keep original deadlines, so a shard's stream may
            // not be agreeable; the engine does not require it, and
            // `new_unchecked` applies the same (release, deadline, id)
            // sort as the validated constructor.
            JobSet::new_unchecked(survivors)
        })
        .collect();
    assert_eq!(
        shard_jobs.iter().map(JobSet::len).sum::<usize>() + dropped.len() + rejected.len(),
        jobs.len() + duels,
        "every arrival routed exactly once, rejected, dropped, or duelling"
    );

    DispatchPlan {
        shard_jobs,
        assignment,
        dropped,
        rejected,
        redispatches,
        retried,
        hedges,
    }
}

/// One shard's outcome inside a [`ClusterReport`].
#[derive(Clone, Debug)]
pub struct ShardRun {
    /// Shard index (0-based).
    pub shard: usize,
    /// The shard's derived seed ([`split_seed`] of the cluster base
    /// seed, unless overridden).
    pub seed: u64,
    /// The shard machine's simulation report (fault epochs merged).
    pub report: SimReport,
    /// Metered wall-energy reading of this shard's schedule, when the
    /// engine carries a [`PowerMeter`] (noise stream seeded by
    /// [`ShardRun::seed`]).
    pub measured_energy: Option<f64>,
}

/// The merged outcome of a sharded cluster run.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// Routing policy label.
    pub routing: String,
    /// Cluster-level aggregate: quality/energy/max-quality and every
    /// counter summed over shards in shard order. For a 1-shard cluster
    /// this *is* the shard's report (bitwise).
    pub merged: SimReport,
    /// Per-shard reports, indexed by shard.
    pub shards: Vec<ShardRun>,
    /// Jobs the dispatcher dropped: arrivals with no eligible shard,
    /// stranded jobs whose retry re-release was infeasible, or retry
    /// budgets exhausted. Zero on the fault-free path.
    pub jobs_dropped: u64,
    /// Stranded-job re-releases successfully routed to a surviving
    /// shard. Zero on the fault-free path.
    pub jobs_retried: u64,
    /// Jobs the admission policy turned away at arrival — a class
    /// disjoint from `jobs_dropped` (rejection is a *choice*; drops are
    /// capacity/feasibility failures). Zero under
    /// [`AdmissionPolicy::AcceptAll`].
    pub jobs_rejected: u64,
    /// Hedge copies dispatched by the overload policy. Zero under
    /// [`HedgePolicy::Disabled`](crate::admission::HedgePolicy::Disabled).
    pub jobs_hedged: u64,
    /// Hedge duels the *hedge copy* won (strictly better quality than
    /// the primary; ties go to the primary).
    pub hedges_won: u64,
    /// Max-quality mass of the dropped jobs — what a healthy cluster
    /// could have earned from them. Feeds
    /// [`ClusterReport::degraded_quality`].
    pub dropped_max_quality: f64,
    /// Max-quality mass of the rejected jobs; like
    /// `dropped_max_quality`, charged against
    /// [`ClusterReport::degraded_quality`] so admission control cannot
    /// inflate delivered quality by shrinking the denominator.
    pub rejected_max_quality: f64,
}

impl ClusterReport {
    /// Total metered energy, if the cluster has shards and every shard
    /// was metered (summed in shard order). An empty shard list was
    /// never metered, so it reports `None`, not `Some(0.0)`.
    pub fn measured_energy(&self) -> Option<f64> {
        if self.shards.is_empty() {
            return None;
        }
        self.shards
            .iter()
            .map(|s| s.measured_energy)
            .try_fold(0.0, |acc, e| e.map(|e| acc + e))
    }

    /// Largest per-shard job count — with [`ClusterReport::min_shard_jobs`]
    /// a quick balance check on the routing policy.
    pub fn max_shard_jobs(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.report.jobs_total())
            .max()
            .unwrap_or(0)
    }

    /// Smallest per-shard job count.
    pub fn min_shard_jobs(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.report.jobs_total())
            .min()
            .unwrap_or(0)
    }

    /// Degraded-mode normalized quality: earned quality over the
    /// quality a fault-free, admit-everything cluster could have earned
    /// *including* the jobs the dispatcher dropped or rejected. Equal
    /// to `merged.normalized_quality()` when nothing was dropped or
    /// rejected. A run with no quality mass at all (e.g. an empty
    /// arrival stream) reports a NaN-free `1.0`.
    pub fn degraded_quality(&self) -> f64 {
        let denom = self.merged.max_quality + self.dropped_max_quality + self.rejected_max_quality;
        if denom > 0.0 {
            self.merged.total_quality / denom
        } else {
            1.0
        }
    }

    /// Export the merged report plus per-shard and fault gauges into a
    /// registry.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry) {
        self.merged.export_metrics(reg);
        for s in &self.shards {
            reg.set_gauge(
                format!("cluster.shard{}.quality", s.shard),
                s.report.total_quality,
            );
            reg.set_gauge(
                format!("cluster.shard{}.energy", s.shard),
                s.report.energy_joules,
            );
            reg.set_gauge(
                format!("cluster.shard{}.jobs", s.shard),
                s.report.jobs_total() as f64,
            );
        }
        reg.set_gauge("cluster.jobs_dropped", self.jobs_dropped as f64);
        reg.set_gauge("cluster.jobs_retried", self.jobs_retried as f64);
        reg.set_gauge("cluster.jobs_rejected", self.jobs_rejected as f64);
        reg.set_gauge("cluster.jobs_hedged", self.jobs_hedged as f64);
        reg.set_gauge("cluster.hedges_won", self.hedges_won as f64);
        reg.set_gauge("cluster.degraded_quality", self.degraded_quality());
        if let Some(e) = self.measured_energy() {
            reg.set_gauge("cluster.measured_energy", e);
        }
    }
}

/// Field-by-field counter sum (destructured so a new [`SimCounters`]
/// field is a compile error here instead of a silent merge bug).
fn add_counters(into: &mut SimCounters, from: &SimCounters) {
    let SimCounters {
        jobs_total,
        jobs_satisfied,
        jobs_partial,
        jobs_zero,
        jobs_discarded,
        invocations,
        invocations_kept,
        plans_installed,
        plans_kept,
    } = from;
    into.jobs_total += jobs_total;
    into.jobs_satisfied += jobs_satisfied;
    into.jobs_partial += jobs_partial;
    into.jobs_zero += jobs_zero;
    into.jobs_discarded += jobs_discarded;
    into.invocations += invocations;
    into.invocations_kept += invocations_kept;
    into.plans_installed += plans_installed;
    into.plans_kept += plans_kept;
}

/// Re-timestamps an epoch simulation's events from epoch-local time to
/// absolute cluster time. With `base == ZERO` (the fault-free single
/// epoch) the mapping is the identity on integer microseconds, so the
/// fault-free event stream is untouched.
struct OffsetObserver<'a, O> {
    inner: &'a mut O,
    base: SimTime,
}

impl<O: Observer> Observer for OffsetObserver<'_, O> {
    const ENABLED: bool = O::ENABLED;

    #[inline]
    fn record(&mut self, at: SimTime, event: Event) {
        self.inner
            .record(self.base + at.saturating_since(SimTime::ZERO), event);
    }
}

/// A cluster of `N` identical simulated machines behind one dispatcher.
///
/// Each shard runs the unmodified [`Simulator`] over its routed slice of
/// the arrival stream with its own policy instance; shards execute in
/// parallel on the rayon pool and merge deterministically (see the
/// module docs for the contract). An optional [`FaultPlan`] injects
/// crash/brownout windows per shard.
#[derive(Clone, Debug)]
pub struct ClusterEngine {
    shards: usize,
    routing: RoutingPolicy,
    seed: u64,
    shard_seeds: Option<Vec<u64>>,
    meter: Option<PowerMeter>,
    fault: FaultPlan,
    overload: OverloadPolicy,
}

impl ClusterEngine {
    /// A cluster of `shards` machines, round-robin routing, base seed 0,
    /// no metering, no faults, no overload protection.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "a cluster needs at least one shard");
        ClusterEngine {
            shards,
            routing: RoutingPolicy::RoundRobin,
            seed: 0,
            shard_seeds: None,
            meter: None,
            fault: FaultPlan::none(shards),
            overload: OverloadPolicy::default(),
        }
    }

    /// Builder: routing policy.
    pub fn with_routing(mut self, routing: RoutingPolicy) -> Self {
        self.routing = routing;
        self
    }

    /// Builder: cluster base seed (shard `i` derives
    /// [`split_seed`]`(seed, i)`).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: explicit per-shard seeds, overriding the derived split.
    /// Must supply exactly one seed per shard.
    pub fn with_shard_seeds(mut self, seeds: Vec<u64>) -> Self {
        assert_eq!(seeds.len(), self.shards, "one seed per shard");
        self.shard_seeds = Some(seeds);
        self
    }

    /// Builder: meter every shard's schedule with a [`PowerMeter`]
    /// (its noise stream re-seeded per shard from the shard seed).
    pub fn with_meter(mut self, meter: PowerMeter) -> Self {
        self.meter = Some(meter);
        self
    }

    /// Builder: inject a deterministic fault plan. The plan must cover
    /// exactly this cluster's shards. [`FaultPlan::none`] (the default)
    /// is bitwise-identical to the fault-free path.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        assert_eq!(
            plan.shards(),
            self.shards,
            "fault plan must cover every shard"
        );
        self.fault = plan;
        self
    }

    /// Builder: overload-protection policy (admission + retry budget +
    /// hedging); set one mechanism with `OverloadPolicy { admission,
    /// ..OverloadPolicy::default() }`. The default policy is
    /// bitwise-identical to running without one.
    pub fn with_overload(mut self, overload: OverloadPolicy) -> Self {
        self.overload = overload;
        self
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The routing policy.
    pub fn routing(&self) -> &RoutingPolicy {
        &self.routing
    }

    /// The injected fault plan ([`FaultPlan::none`] by default).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault
    }

    /// The seed shard `i` runs with.
    pub fn shard_seed(&self, shard: usize) -> u64 {
        match &self.shard_seeds {
            Some(seeds) => seeds[shard],
            None => split_seed(self.seed, shard as u64),
        }
    }

    /// Run the cluster: route `jobs`, simulate every shard (in parallel)
    /// on a machine configured like `cfg`, merge. `make_policy(i)`
    /// builds shard `i`'s scheduling policy (one fresh instance per
    /// fault epoch).
    pub fn run<F>(&self, cfg: &SimConfig<'_>, jobs: &JobSet, make_policy: F) -> ClusterReport
    where
        F: Fn(usize) -> Box<dyn SchedulingPolicy> + Sync + Send,
    {
        self.run_observed(cfg, jobs, make_policy, |_| NoopObserver)
            .0
    }

    /// [`ClusterEngine::run`] with one observer per shard, built by
    /// `make_observer(i)` and returned in shard order. Each shard's
    /// event stream opens with a shard-tagged
    /// [`Event::ShardAssign`]; fault windows bracket their epochs with
    /// [`Event::ShardDown`]/[`Event::ShardUp`], crashes report their
    /// stranded jobs as [`Event::Redispatch`], and metered runs tag
    /// their [`Event::PowerSample`]s with the shard index. Observers
    /// are passive: the cluster report is bitwise-identical with or
    /// without them.
    pub fn run_observed<O, F, M>(
        &self,
        cfg: &SimConfig<'_>,
        jobs: &JobSet,
        make_policy: F,
        make_observer: M,
    ) -> (ClusterReport, Vec<O>)
    where
        O: Observer + Send,
        F: Fn(usize) -> Box<dyn SchedulingPolicy> + Sync + Send,
        M: Fn(usize) -> O + Sync + Send,
    {
        self.run_observed_with_dispatch(cfg, jobs, make_policy, make_observer, &mut NoopObserver)
    }

    /// [`ClusterEngine::run_observed`] plus a *dispatcher-level*
    /// observer: the pre-pass records its admission rejects, retry
    /// re-releases, and hedge dispatches into `dispatch_obs` as it makes
    /// them (scan order, non-decreasing timestamps), before the shards
    /// run. Like every observer, it is passive — the report is
    /// bitwise-identical with a [`NoopObserver`].
    pub fn run_observed_with_dispatch<O, F, M, D>(
        &self,
        cfg: &SimConfig<'_>,
        jobs: &JobSet,
        make_policy: F,
        make_observer: M,
        dispatch_obs: &mut D,
    ) -> (ClusterReport, Vec<O>)
    where
        O: Observer + Send,
        F: Fn(usize) -> Box<dyn SchedulingPolicy> + Sync + Send,
        M: Fn(usize) -> O + Sync + Send,
        D: Observer,
    {
        let dispatch = dispatch_observed(
            jobs,
            self.shards,
            &self.routing,
            cfg.model,
            cfg.quality,
            &self.fault,
            &self.overload,
            cfg.end,
            dispatch_obs,
        );
        let shard_jobs = &dispatch.shard_jobs;
        // Group stranding records by crashed shard for event emission.
        let mut redispatched: Vec<Vec<(SimTime, JobId)>> = vec![Vec::new(); self.shards];
        for &(t, job, from) in &dispatch.redispatches {
            redispatched[from as usize].push((t, job));
        }
        // Hedge duels: both copies run, so the merge must harvest their
        // per-shard outcomes and settle first-wins. Each shard gets its
        // duelling copies as an id-sorted `(id, duel slot)` list.
        let mut duel_slots: Vec<Vec<(u32, u32)>> = vec![Vec::new(); self.shards];
        let mut duels = 0u32;
        for h in dispatch.hedges.iter().filter(|h| h.duel) {
            duel_slots[h.from as usize].push((h.job.id.0, 2 * duels));
            duel_slots[h.to as usize].push((h.job.id.0, 2 * duels + 1));
            duels += 1;
        }
        for slots in &mut duel_slots {
            slots.sort_unstable();
        }

        let runs: Vec<(ShardRun, O, Vec<DuelOutcome>)> = (0..self.shards)
            .into_par_iter()
            .map(|i| {
                let mut obs = make_observer(i);
                if O::ENABLED {
                    obs.record(
                        SimTime::ZERO,
                        Event::ShardAssign {
                            shard: i as u32,
                            jobs: shard_jobs[i].len() as u32,
                        },
                    );
                }
                let (report, trace, outcomes) = run_shard_epochs(
                    cfg,
                    i,
                    &shard_jobs[i],
                    &self.fault,
                    &redispatched[i],
                    &duel_slots[i],
                    &make_policy,
                    self.meter.is_some(),
                    &mut obs,
                );
                let seed = self.shard_seed(i);
                let measured = self.meter.as_ref().map(|m| {
                    let m = PowerMeter { seed, ..m.clone() };
                    measured_shard_energy(
                        &m,
                        cfg.model,
                        cfg.num_cores,
                        cfg.end,
                        &trace,
                        i as u32,
                        &mut obs,
                    )
                });
                (
                    ShardRun {
                        shard: i,
                        seed,
                        report,
                        measured_energy: measured,
                    },
                    obs,
                    outcomes,
                )
            })
            .collect();

        let mut shards = Vec::with_capacity(self.shards);
        let mut observers = Vec::with_capacity(self.shards);
        // Duel `k`'s primary and hedge outcomes `(processed, quality)`
        // land in slots `2k` and `2k + 1`; `None` marks a copy that
        // never settled.
        let mut settled: Vec<Option<(f64, f64)>> = vec![None; 2 * duels as usize];
        for (run, obs, outcomes) in runs {
            shards.push(run);
            observers.push(obs);
            for (slot, w, q) in outcomes {
                settled[slot as usize] = Some((w, q));
            }
        }

        // Merge in shard order, seeded from shard 0's report so a
        // 1-shard cluster is the plain engine run to the bit.
        let mut merged = shards[0].report.clone();
        for s in &shards[1..] {
            merged.total_quality += s.report.total_quality;
            merged.max_quality += s.report.max_quality;
            merged.energy_joules += s.report.energy_joules;
            add_counters(&mut merged.counters, &s.report.counters);
        }

        // First-wins settlement of hedge duels. Both copies ran and
        // were counted once each by their shards; the cluster delivered
        // the *better* outcome exactly once. The loser's quality,
        // max-quality mass, and job-class count come back out of the
        // merged report; its energy (and the scheduler bookkeeping —
        // invocations, plans, discards) stays, because that work really
        // happened. Quality comparison uses `total_cmp`, ties go to the
        // primary, so the settlement is deterministic.
        let mut hedges_won = 0u64;
        let duelled = dispatch.hedges.iter().filter(|h| h.duel);
        for (h, outcomes) in duelled.zip(settled.chunks_exact(2)) {
            let &[Some((pw, pq)), Some((hw, hq))] = outcomes else {
                continue;
            };
            let hedge_wins = hq.total_cmp(&pq) == Ordering::Greater;
            if hedge_wins {
                hedges_won += 1;
            }
            let (lw, lq) = if hedge_wins { (pw, pq) } else { (hw, hq) };
            merged.total_quality -= lq;
            merged.max_quality -= cfg.quality.max_job_quality(&h.job);
            merged.counters.jobs_total -= 1;
            // Re-derive the loser's settle class exactly as the engine
            // classified it (same tolerance, same thresholds).
            if demand_met(lw, h.job.demand) {
                merged.counters.jobs_satisfied -= 1;
            } else if lw > 1e-9 {
                merged.counters.jobs_partial -= 1;
            } else {
                merged.counters.jobs_zero -= 1;
            }
        }

        merged.policy = format!(
            "cluster/{}x/{}/{}",
            self.shards,
            self.routing.label(),
            shards[0].report.policy
        );
        let dropped_max_quality: f64 = dispatch
            .dropped
            .iter()
            .map(|(_, j)| cfg.quality.max_job_quality(j))
            .sum();
        let rejected_max_quality: f64 = dispatch
            .rejected
            .iter()
            .map(|(_, j)| cfg.quality.max_job_quality(j))
            .sum();

        (
            ClusterReport {
                routing: self.routing.label().to_string(),
                merged,
                shards,
                jobs_dropped: dispatch.dropped.len() as u64,
                jobs_retried: dispatch.retried,
                jobs_rejected: dispatch.rejected.len() as u64,
                jobs_hedged: dispatch.hedges.len() as u64,
                hedges_won,
                dropped_max_quality,
                rejected_max_quality,
            },
            observers,
        )
    }
}

/// Run one shard's simulation as a sequence of fault epochs and merge
/// the epoch reports.
///
/// Each epoch runs the plain engine in *epoch-local* time (releases and
/// deadlines shifted by the epoch start, horizon = epoch length) so
/// engine-internal anchors like the quantum tick grid behave exactly as
/// in a fresh run; an [`OffsetObserver`] re-timestamps events and the
/// returned trace slices back to absolute time. Brownout epochs run on
/// [`effective_cores`] and a proportionally reduced power budget; crash
/// epochs run nothing (routing plus stranding guarantee they hold no
/// jobs). Jobs spanning a non-final epoch boundary are truncated at the
/// boundary (drain-on-reconfigure: the shard settles in-flight work
/// when its capacity state changes). With no fault windows this is one
/// healthy epoch over `[0, end)` — bitwise the fault-free path.
/// `duels` lists this shard's duelling copies as id-sorted
/// `(id, duel slot)` pairs: their `(slot, processed, quality)` outcomes
/// are harvested from the per-epoch detailed stats so the cluster merge
/// can settle first-wins. With an empty list (every default-path run)
/// nothing is harvested —
/// [`Simulator::run_observed`] is itself a thin wrapper over the
/// detailed run, so requesting stats changes no simulation arithmetic.
#[allow(clippy::too_many_arguments)]
fn run_shard_epochs<O, F>(
    cfg: &SimConfig<'_>,
    shard: usize,
    jobs: &JobSet,
    plan: &FaultPlan,
    redispatched: &[(SimTime, JobId)],
    duels: &[(u32, u32)],
    make_policy: &F,
    metered: bool,
    obs: &mut O,
) -> (SimReport, SimTrace, Vec<DuelOutcome>)
where
    O: Observer,
    F: Fn(usize) -> Box<dyn SchedulingPolicy> + Sync + Send,
{
    let epochs = plan.epochs(shard, cfg.end);
    let all = jobs.jobs();
    let mut cursor = 0usize;
    let mut redisp = redispatched.iter().peekable();
    let mut merged: Option<SimReport> = None;
    let mut full_trace = SimTrace::default();
    let mut duel_outcomes: Vec<DuelOutcome> = Vec::new();
    // Where the last outcome's id sat in `duels`.
    let mut near = 0;

    for (k, ep) in epochs.iter().enumerate() {
        let is_final = k + 1 == epochs.len();
        if O::ENABLED {
            if let Some(kind) = ep.fault {
                let outage = match kind {
                    FaultKind::Crash => OutageKind::Crash,
                    FaultKind::Brownout { .. } => OutageKind::Brownout,
                };
                obs.record(
                    ep.start,
                    Event::ShardDown {
                        shard: shard as u32,
                        kind: outage,
                    },
                );
            }
        }
        // Epoch membership is by release; the final epoch also takes
        // any arrivals at or past the horizon (the engine screens them
        // exactly as the fault-free path does).
        let hi = if is_final {
            all.len()
        } else {
            cursor + all[cursor..].partition_point(|j| j.release < ep.end)
        };
        let slice = &all[cursor..hi];
        cursor = hi;

        if matches!(ep.fault, Some(FaultKind::Crash)) {
            // Routing never targets a crashed shard and the dispatch
            // pass stranded everything caught by the crash, so a crash
            // epoch holds no simulatable jobs.
            assert!(
                slice.iter().all(|j| j.release >= cfg.end),
                "job released inside a crash epoch"
            );
            if O::ENABLED {
                while let Some(&&(t, job)) = redisp.peek() {
                    if t == ep.start {
                        obs.record(
                            t,
                            Event::Redispatch {
                                job,
                                from: shard as u32,
                            },
                        );
                        redisp.next();
                    } else {
                        break;
                    }
                }
            }
        } else {
            let (cores, budget) = match ep.fault {
                Some(FaultKind::Brownout { loss }) => (
                    effective_cores(cfg.num_cores, loss),
                    cfg.budget * (1.0 - loss),
                ),
                _ => (cfg.num_cores, cfg.budget),
            };
            let local_end = SimTime::ZERO + ep.end.saturating_since(ep.start);
            let local_jobs: Vec<Job> = slice
                .iter()
                .map(|j| {
                    // Drain-on-reconfigure: a job spanning a non-final
                    // epoch boundary settles (with whatever quality its
                    // processed fraction earned) when the capacity
                    // state changes.
                    let deadline = if !is_final && j.deadline > ep.end {
                        ep.end
                    } else {
                        j.deadline
                    };
                    Job {
                        release: SimTime::ZERO + j.release.saturating_since(ep.start),
                        deadline: SimTime::ZERO + deadline.saturating_since(ep.start),
                        ..*j
                    }
                })
                .collect();
            let local_set = JobSet::new_unchecked(local_jobs);
            let scfg = SimConfig {
                num_cores: cores,
                budget,
                model: cfg.model,
                quality: cfg.quality,
                end: local_end,
                record_trace: cfg.record_trace || metered,
                overhead: cfg.overhead,
            };
            let mut policy = make_policy(shard);
            let mut off = OffsetObserver {
                inner: obs,
                base: ep.start,
            };
            let (rep, trace, stats) =
                Simulator::run_detailed_observed(&scfg, policy.as_mut(), &local_set, &mut off);
            if !duels.is_empty() {
                for o in stats.outcomes() {
                    match search_near(duels, o.id.0, near) {
                        Ok(i) => {
                            duel_outcomes.push((duels[i].1, o.processed, o.quality));
                            near = i;
                        }
                        Err(i) => near = i,
                    }
                }
            }
            for s in trace.slices() {
                full_trace.push(TraceSlice {
                    start: ep.start + s.start.saturating_since(SimTime::ZERO),
                    end: ep.start + s.end.saturating_since(SimTime::ZERO),
                    ..*s
                });
            }
            merged = Some(match merged {
                None => rep,
                Some(mut m) => {
                    m.total_quality += rep.total_quality;
                    m.max_quality += rep.max_quality;
                    m.energy_joules += rep.energy_joules;
                    add_counters(&mut m.counters, &rep.counters);
                    m
                }
            });
        }
        if O::ENABLED && ep.fault.is_some() && ep.end < cfg.end {
            obs.record(
                ep.end,
                Event::ShardUp {
                    shard: shard as u32,
                },
            );
        }
    }

    let mut report = merged.unwrap_or_else(|| SimReport {
        // The shard was down for the whole run: an empty report under
        // the policy's name.
        policy: make_policy(shard).name(),
        ..SimReport::default()
    });
    // Epoch horizons are local; the shard's report spans the full run.
    report.sim_seconds = cfg.end.as_secs_f64();
    (report, full_trace, duel_outcomes)
}

/// [`slice::binary_search`] for `id` in the id-sorted `duels`, but
/// galloping outward from index `near`. Copies settle in roughly
/// deadline order, which on a release-ordered stream is roughly id
/// order, so a search from the previous outcome's index is short.
fn search_near(duels: &[(u32, u32)], id: u32, near: usize) -> Result<usize, usize> {
    // Bracket the first index whose id is ≥ `id` in `[lo, hi]`.
    let (mut lo, mut hi) = (near.min(duels.len()), near.min(duels.len()));
    let mut step = 1;
    while lo > 0 && duels[lo - 1].0 >= id {
        hi = lo - 1;
        lo = lo.saturating_sub(step);
        step *= 2;
    }
    while hi < duels.len() && duels[hi].0 < id {
        lo = hi + 1;
        hi = (hi + step).min(duels.len());
        step *= 2;
    }
    let i = lo + duels[lo..hi].partition_point(|d| d.0 < id);
    match duels.get(i) {
        Some(d) if d.0 == id => Ok(i),
        _ => Err(i),
    }
}

/// Meter one shard's executed schedule: replay the recorded trace as a
/// per-core speed profile, price it through the machine's *dynamic*
/// power curve (matching [`SimReport::energy_joules`]'s scope), and let
/// the shard's [`PowerMeter`] sample it. `PowerSample` events carry the
/// shard index as their node tag. A crashed or browned-out stretch
/// simply has no (or fewer) trace slices, so the metered draw falls
/// with the outage.
fn measured_shard_energy<O: Observer>(
    meter: &PowerMeter,
    model: &dyn PowerModel,
    num_cores: usize,
    end: SimTime,
    trace: &SimTrace,
    shard: u32,
    obs: &mut O,
) -> f64 {
    let mut per_core: Vec<Vec<(SimTime, SimTime, f64)>> = vec![Vec::new(); num_cores];
    for s in trace.slices() {
        if s.core < per_core.len() {
            per_core[s.core].push((s.start, s.end, s.speed));
        }
    }
    for v in &mut per_core {
        v.sort_by_key(|&(start, _, _)| start);
    }
    let speed_at = |slices: &[(SimTime, SimTime, f64)], t: SimTime| -> f64 {
        let idx = slices.partition_point(|&(_, e, _)| e <= t);
        match slices.get(idx) {
            Some(&(s, _, sp)) if s <= t => sp,
            _ => 0.0,
        }
    };
    meter.measure_window_observed(
        shard,
        SimTime::ZERO,
        end,
        |t| {
            per_core
                .iter()
                .map(|slices| model.dynamic_power(speed_at(slices, t)))
                .sum()
        },
        obs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::{HedgePolicy, RetryPolicy};
    use crate::fault::FaultWindow;
    use qes_core::obs::TraceObserver;
    use qes_core::power::PolynomialPower;
    use qes_core::quality::ExpQuality;
    use qes_core::time::SimDuration;

    /// The unprotected pre-pass: [`dispatch_protected`] under the
    /// default [`OverloadPolicy`].
    fn dispatch(
        jobs: &JobSet,
        shards: usize,
        routing: &RoutingPolicy,
        model: &dyn PowerModel,
        plan: &FaultPlan,
        end: SimTime,
    ) -> DispatchPlan {
        dispatch_protected(
            jobs,
            shards,
            routing,
            model,
            &ExpQuality::PAPER_DEFAULT,
            plan,
            &OverloadPolicy::default(),
            end,
        )
    }

    fn stream(n: usize, gap_ms: u64, demand: f64) -> JobSet {
        let jobs: Vec<Job> = (0..n)
            .map(|i| {
                let at = SimTime::from_millis(i as u64 * gap_ms);
                Job::new(i as u32, at, at + SimDuration::from_millis(150), demand).unwrap()
            })
            .collect();
        JobSet::new(jobs).unwrap()
    }

    #[test]
    fn jsq_prefers_the_emptier_shard_and_breaks_ties_low() {
        // Two simultaneous arrivals: both shards empty -> shard 0 wins the
        // tie; the second sees shard 0 loaded and goes to shard 1.
        let jobs = JobSet::new(vec![
            Job::new(0, SimTime::ZERO, SimTime::from_millis(150), 100.0).unwrap(),
            Job::new(1, SimTime::ZERO, SimTime::from_millis(150), 100.0).unwrap(),
            Job::new(2, SimTime::from_millis(1), SimTime::from_millis(151), 100.0).unwrap(),
        ])
        .unwrap();
        let a = dispatch(
            &jobs,
            2,
            &RoutingPolicy::Jsq,
            &PolynomialPower::PAPER_SIM,
            &FaultPlan::none(2),
            SimTime::MAX,
        )
        .assignment;
        // Third arrival: both shards hold one in-flight job; tie -> 0.
        assert_eq!(a, vec![0, 1, 0]);
    }

    #[test]
    fn jsq_retires_expired_windows() {
        // Second arrival lands after the first job's deadline: shard 0 is
        // empty again and wins the tie.
        let jobs = JobSet::new(vec![
            Job::new(0, SimTime::ZERO, SimTime::from_millis(150), 100.0).unwrap(),
            Job::new(
                1,
                SimTime::from_millis(200),
                SimTime::from_millis(350),
                100.0,
            )
            .unwrap(),
        ])
        .unwrap();
        let a = dispatch(
            &jobs,
            2,
            &RoutingPolicy::Jsq,
            &PolynomialPower::PAPER_SIM,
            &FaultPlan::none(2),
            SimTime::MAX,
        )
        .assignment;
        assert_eq!(a, vec![0, 0]);
    }

    #[test]
    fn least_energy_spreads_simultaneous_load() {
        // The probe is convex in load, so stacking two simultaneous jobs
        // on one shard costs more than spreading them.
        let jobs = JobSet::new(vec![
            Job::new(0, SimTime::ZERO, SimTime::from_millis(150), 300.0).unwrap(),
            Job::new(1, SimTime::ZERO, SimTime::from_millis(150), 300.0).unwrap(),
        ])
        .unwrap();
        let a = dispatch(
            &jobs,
            2,
            &RoutingPolicy::LeastEnergy,
            &PolynomialPower::PAPER_SIM,
            &FaultPlan::none(2),
            SimTime::MAX,
        )
        .assignment;
        assert_eq!(a, vec![0, 1]);
    }

    #[test]
    fn least_energy_ties_break_to_lowest_index() {
        // Five identical simultaneous jobs over three shards: equal
        // probe deltas tie toward the lowest index, and convexity keeps
        // stacking costlier than spreading — the assignment cycles.
        let jobs = JobSet::new(
            (0..5)
                .map(|i| Job::new(i, SimTime::ZERO, SimTime::from_millis(150), 300.0).unwrap())
                .collect(),
        )
        .unwrap();
        let a = dispatch(
            &jobs,
            3,
            &RoutingPolicy::LeastEnergy,
            &PolynomialPower::PAPER_SIM,
            &FaultPlan::none(3),
            SimTime::MAX,
        )
        .assignment;
        assert_eq!(a, vec![0, 1, 2, 0, 1]);
    }

    #[test]
    fn least_energy_survives_nan_power_models() {
        // A degenerate model whose probe deltas are all NaN: total_cmp
        // still yields a deterministic lowest-index choice, no panic.
        struct NanPower;
        impl PowerModel for NanPower {
            fn dynamic_power(&self, _s: f64) -> f64 {
                f64::NAN
            }
            fn static_power(&self) -> f64 {
                0.0
            }
            fn speed_for_dynamic_power(&self, _p: f64) -> f64 {
                0.0
            }
        }
        let jobs = stream(20, 1, 100.0);
        let a = dispatch(
            &jobs,
            4,
            &RoutingPolicy::LeastEnergy,
            &NanPower,
            &FaultPlan::none(4),
            SimTime::MAX,
        )
        .assignment;
        assert_eq!(a.len(), jobs.len());
        assert!(a.iter().all(|&s| s < 4));
        assert_eq!(
            a,
            dispatch(
                &jobs,
                4,
                &RoutingPolicy::LeastEnergy,
                &NanPower,
                &FaultPlan::none(4),
                SimTime::MAX
            )
            .assignment
        );
        // NaN sorts above every finite delta under total_cmp, so every
        // decision is the all-tie lowest-index pick: shard 0.
        assert!(a.iter().all(|&s| s == 0));
    }

    #[test]
    fn random_routing_is_deterministic_per_seed_and_in_range() {
        let jobs = stream(50, 2, 150.0);
        let r = RoutingPolicy::Random { seed: 9 };
        let a = dispatch(
            &jobs,
            4,
            &r,
            &PolynomialPower::PAPER_SIM,
            &FaultPlan::none(4),
            SimTime::MAX,
        )
        .assignment;
        let b = dispatch(
            &jobs,
            4,
            &r,
            &PolynomialPower::PAPER_SIM,
            &FaultPlan::none(4),
            SimTime::MAX,
        )
        .assignment;
        assert_eq!(a, b);
        assert!(a.iter().all(|&s| s < 4));
        let c = dispatch(
            &jobs,
            4,
            &RoutingPolicy::Random { seed: 10 },
            &PolynomialPower::PAPER_SIM,
            &FaultPlan::none(4),
            SimTime::MAX,
        )
        .assignment;
        assert_ne!(a, c, "different seed should reshuffle some assignment");
    }

    #[test]
    fn feedback_without_faults_routes_least_pending_demand() {
        // Two simultaneous arrivals spread (tie -> 0, then 1); a third
        // goes where pending demand is lowest, not where the count is.
        let jobs = JobSet::new(vec![
            Job::new(0, SimTime::ZERO, SimTime::from_millis(150), 300.0).unwrap(),
            Job::new(1, SimTime::ZERO, SimTime::from_millis(150), 100.0).unwrap(),
            Job::new(2, SimTime::from_millis(1), SimTime::from_millis(151), 100.0).unwrap(),
        ])
        .unwrap();
        let a = dispatch(
            &jobs,
            2,
            &RoutingPolicy::Feedback,
            &PolynomialPower::PAPER_SIM,
            &FaultPlan::none(2),
            SimTime::MAX,
        )
        .assignment;
        // Shard 0 carries 300 units, shard 1 only 100: the third job
        // joins shard 1 even though the job counts tie.
        assert_eq!(a, vec![0, 1, 1]);
    }

    #[test]
    fn feedback_skips_crashed_and_sheds_from_browned_out_shards() {
        let jobs = stream(12, 1, 100.0);
        let horizon = SimTime::from_secs(1);
        // Shard 0 crashed, shard 1 at 40 % capacity, shard 2 healthy.
        let plan = FaultPlan::none(3)
            .with_window(
                0,
                FaultWindow {
                    start: SimTime::ZERO,
                    end: horizon,
                    kind: FaultKind::Crash,
                },
            )
            .with_window(
                1,
                FaultWindow {
                    start: SimTime::ZERO,
                    end: horizon,
                    kind: FaultKind::Brownout { loss: 0.6 },
                },
            );
        let d = dispatch(
            &jobs,
            3,
            &RoutingPolicy::Feedback,
            &PolynomialPower::PAPER_SIM,
            &plan,
            horizon,
        );
        assert!(d.assignment.iter().all(|&s| s != 0), "crashed shard used");
        let to_healthy = d.assignment.iter().filter(|&&s| s == 2).count();
        let to_browned = d.assignment.iter().filter(|&&s| s == 1).count();
        assert!(
            to_healthy > to_browned,
            "feedback should shed load from the browned-out shard \
             ({to_browned} browned vs {to_healthy} healthy)"
        );
        assert!(d.dropped.is_empty());
    }

    #[test]
    fn crash_strands_and_retries_in_flight_jobs() {
        // Two shards; shard 0 crashes at 50 ms. Jobs arriving before
        // the crash alternate 0/1 (round-robin); jobs on shard 0 with
        // deadlines past the crash are stranded and re-released 10 ms
        // later onto shard 1.
        let jobs = stream(4, 20, 100.0); // releases 0, 20, 40, 60 ms
        let horizon = SimTime::from_secs(1);
        let plan = FaultPlan::none(2)
            .with_window(
                0,
                FaultWindow {
                    start: SimTime::from_millis(50),
                    end: horizon,
                    kind: FaultKind::Crash,
                },
            )
            .with_retry_delay(SimDuration::from_millis(10));
        let d = dispatch(
            &jobs,
            2,
            &RoutingPolicy::RoundRobin,
            &PolynomialPower::PAPER_SIM,
            &plan,
            horizon,
        );
        // Jobs 0 and 2 went to shard 0 and were stranded at 50 ms
        // (deadlines 150/190 ms are past the crash).
        assert_eq!(d.redispatches.len(), 2);
        assert_eq!(d.retried, 2);
        assert!(d.dropped.is_empty());
        // Every survivor lives on shard 1; conservation holds.
        assert_eq!(d.shard_jobs[0].len(), 0);
        assert_eq!(d.shard_jobs[1].len(), 4);
        // Retried copies keep their original deadlines but release at
        // crash + delay.
        let retried: Vec<&Job> = d.shard_jobs[1]
            .iter()
            .filter(|j| j.release == SimTime::from_millis(60) && j.id.0 != 3)
            .collect();
        assert_eq!(retried.len(), 2);
        assert!(retried.iter().all(|j| j.deadline
            == SimTime::from_millis(150) + SimDuration::from_millis(20 * (j.id.0 as u64 / 2) * 2)
            || j.deadline > j.release));
    }

    #[test]
    fn infeasible_retries_and_total_outages_drop_jobs() {
        // One shard, crashed from 10 ms to the horizon: the in-flight
        // job is stranded with nowhere to go, and later arrivals find
        // no eligible shard at all.
        let jobs = stream(3, 20, 100.0); // releases 0, 20, 40 ms
        let horizon = SimTime::from_secs(1);
        let plan = FaultPlan::none(1).with_window(
            0,
            FaultWindow {
                start: SimTime::from_millis(10),
                end: horizon,
                kind: FaultKind::Crash,
            },
        );
        let d = dispatch(
            &jobs,
            1,
            &RoutingPolicy::RoundRobin,
            &PolynomialPower::PAPER_SIM,
            &plan,
            horizon,
        );
        assert_eq!(d.shard_jobs[0].len(), 0);
        assert_eq!(d.dropped.len(), 3, "stranded + 2 blocked arrivals");
        assert_eq!(d.retried, 0);
        assert_eq!(d.assignment, vec![0, u32::MAX, u32::MAX]);
    }

    #[test]
    fn split_seed_is_injective_over_small_lanes() {
        let mut seen = std::collections::HashSet::new();
        for base in [0u64, 1, 42, u64::MAX] {
            for lane in 0..64u64 {
                assert!(
                    seen.insert(split_seed(base, lane)),
                    "collision at {base}/{lane}"
                );
            }
        }
    }

    /// A window of `(deadline_us, demand)` entries.
    fn window(entries: &[(u64, f64)]) -> InFlight {
        entries
            .iter()
            .zip(0..)
            .map(|(&(deadline_us, demand), i)| InFlightJob {
                deadline_us,
                demand,
                slot: i,
                pos: i,
            })
            .collect()
    }

    #[test]
    fn probe_speed_matches_hand_computation() {
        // 100 units due in 100 ms, 50 more due in 200 ms (cum 150).
        let w = window(&[(100_000, 100.0), (200_000, 50.0)]);
        let (s, s2) = probe_speeds(&w, 0, (200_000, 150.0));
        // max(100/100ms, 150/200ms) = max(1.0, 0.75) GHz.
        assert!((s - 1.0).abs() < 1e-12, "{s}");
        // With the candidate: cum 300 over 200 ms = 1.5 GHz.
        assert!((s2 - 1.5).abs() < 1e-12, "{s2}");
    }

    #[test]
    fn probe_speed_clamps_zero_slack_windows() {
        // A window entry due exactly "now" used to underflow
        // `d_us - now_us` (debug panic, release wraparound); the clamp
        // prices it over the 1 µs floor instead.
        let w = window(&[(1_000, 100.0)]);
        let (s, _) = probe_speeds(&w, 1_000, (2_000, 0.0));
        assert!(s.is_finite());
        assert!((s - 100_000.0).abs() < 1e-6, "{s}");
        // A candidate whose deadline is already past must not divide by
        // zero or wrap around either.
        let (_, s2) = probe_speeds(&w, 2_000, (1_500, 50.0));
        assert!(s2.is_finite());
        assert!(s2 > 0.0);
    }

    #[test]
    fn search_near_agrees_with_binary_search_from_any_start() {
        let duels: Vec<(u32, u32)> = (0..50).map(|i| (3 * i + 1, i)).collect();
        for near in 0..duels.len() + 3 {
            for id in 0..160 {
                assert_eq!(
                    search_near(&duels, id, near),
                    duels.binary_search_by_key(&id, |&(d, _)| d),
                    "id {id} from {near}"
                );
            }
        }
        assert_eq!(search_near(&[], 5, 0), Err(0));
    }

    #[test]
    fn invalid_hedge_fractions_never_hedge() {
        // Out-of-range fractions used to reach an unchecked add (a
        // debug-build overflow panic for huge values); they now turn
        // hedging off and route the stream as usual.
        let jobs = stream(10, 5, 100.0);
        for fraction in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            1.0,
            -0.5,
            1e30,
        ] {
            let d = dispatch_protected(
                &jobs,
                2,
                &RoutingPolicy::RoundRobin,
                &PolynomialPower::PAPER_SIM,
                &ExpQuality::PAPER_DEFAULT,
                &FaultPlan::none(2),
                &OverloadPolicy {
                    hedge: HedgePolicy::SlackFraction { fraction },
                    ..OverloadPolicy::default()
                },
                SimTime::from_secs(1),
            );
            assert!(d.hedges.is_empty(), "fraction {fraction}");
            assert_eq!(
                d.shard_jobs.iter().map(JobSet::len).sum::<usize>(),
                jobs.len()
            );
        }
    }

    #[test]
    fn measured_energy_is_none_for_empty_or_partially_metered_clusters() {
        let base = ClusterReport {
            routing: "jsq".into(),
            merged: SimReport::default(),
            shards: Vec::new(),
            jobs_dropped: 0,
            jobs_retried: 0,
            jobs_rejected: 0,
            jobs_hedged: 0,
            hedges_won: 0,
            dropped_max_quality: 0.0,
            rejected_max_quality: 0.0,
        };
        // An empty cluster was never metered.
        assert_eq!(base.measured_energy(), None);

        let run = |energy: Option<f64>| ShardRun {
            shard: 0,
            seed: 0,
            report: SimReport::default(),
            measured_energy: energy,
        };
        let metered = ClusterReport {
            shards: vec![run(Some(1.5)), run(Some(2.5))],
            ..base.clone()
        };
        assert_eq!(metered.measured_energy(), Some(4.0));
        let partial = ClusterReport {
            shards: vec![run(Some(1.5)), run(None)],
            ..base
        };
        assert_eq!(partial.measured_energy(), None);
    }

    #[test]
    fn degraded_quality_counts_dropped_mass() {
        let mut rep = ClusterReport {
            routing: "feedback".into(),
            merged: SimReport {
                total_quality: 6.0,
                max_quality: 8.0,
                ..SimReport::default()
            },
            shards: Vec::new(),
            jobs_dropped: 2,
            jobs_retried: 1,
            jobs_rejected: 0,
            jobs_hedged: 0,
            hedges_won: 0,
            dropped_max_quality: 2.0,
            rejected_max_quality: 0.0,
        };
        // 6 earned out of (8 simulated + 2 dropped) possible.
        assert!((rep.degraded_quality() - 0.6).abs() < 1e-12);
        // Rejected mass widens the denominator exactly like dropped
        // mass: 6 out of (8 + 2 + 2).
        rep.rejected_max_quality = 2.0;
        assert!((rep.degraded_quality() - 0.5).abs() < 1e-12);
        rep.rejected_max_quality = 0.0;
        rep.dropped_max_quality = 0.0;
        assert!((rep.degraded_quality() - rep.merged.normalized_quality()).abs() < 1e-12);
    }

    #[test]
    fn degraded_quality_is_nan_free_with_no_quality_mass() {
        // Zero arrivals (or an all-rejected stream with no simulated
        // mass) must not divide 0/0.
        let rep = ClusterReport {
            routing: "round-robin".into(),
            merged: SimReport::default(),
            shards: Vec::new(),
            jobs_dropped: 0,
            jobs_retried: 0,
            jobs_rejected: 0,
            jobs_hedged: 0,
            hedges_won: 0,
            dropped_max_quality: 0.0,
            rejected_max_quality: 0.0,
        };
        let q = rep.degraded_quality();
        assert!(q.is_finite());
        assert_eq!(q, 1.0);
    }

    #[test]
    fn slack_floor_rejects_hopeless_arrivals_only() {
        // One 1 GHz shard. The first job fits comfortably (needs
        // ~0.67 GHz); stacking a 4000-unit job behind it would need
        // ~27 GHz, so its achievable fraction is hopeless and it is
        // rejected, not dropped.
        let jobs = JobSet::new(vec![
            Job::new(0, SimTime::ZERO, SimTime::from_millis(150), 100.0).unwrap(),
            Job::new(1, SimTime::ZERO, SimTime::from_millis(150), 4000.0).unwrap(),
        ])
        .unwrap();
        let overload = OverloadPolicy {
            admission: AdmissionPolicy::SlackFloor {
                floor: 0.5,
                capacity_ghz: 1.0,
            },
            ..OverloadPolicy::default()
        };
        let mut obs = TraceObserver::new();
        let d = dispatch_observed(
            &jobs,
            1,
            &RoutingPolicy::RoundRobin,
            &PolynomialPower::PAPER_SIM,
            &ExpQuality::PAPER_DEFAULT,
            &FaultPlan::none(1),
            &overload,
            SimTime::from_secs(1),
            &mut obs,
        );
        assert_eq!(d.assignment, vec![0, u32::MAX]);
        assert_eq!(d.rejected.len(), 1);
        assert_eq!(d.rejected[0].1.id.0, 1);
        assert!(d.dropped.is_empty(), "rejection is not a drop");
        // The reject surfaced as a dispatcher event.
        assert!(matches!(
            obs.events().as_slice(),
            [(_, Event::AdmissionReject { job: JobId(1), .. })]
        ));
    }

    #[test]
    fn backpressure_sheds_above_cap_and_resumes_after_drain() {
        // Cap 250 demand units, resume 100. Two 150-unit jobs fill the
        // single shard past the cap; the third arrival is shed. After
        // the windows retire, a late arrival is admitted again.
        let mk = |id: u32, at_ms: u64| {
            Job::new(
                id,
                SimTime::from_millis(at_ms),
                SimTime::from_millis(at_ms + 100),
                150.0,
            )
            .unwrap()
        };
        let jobs = JobSet::new(vec![mk(0, 0), mk(1, 1), mk(2, 2), mk(3, 500)]).unwrap();
        let overload = OverloadPolicy {
            admission: AdmissionPolicy::Backpressure {
                cap: 250.0,
                resume: 100.0,
            },
            ..OverloadPolicy::default()
        };
        let d = dispatch_protected(
            &jobs,
            1,
            &RoutingPolicy::RoundRobin,
            &PolynomialPower::PAPER_SIM,
            &ExpQuality::PAPER_DEFAULT,
            &FaultPlan::none(1),
            &overload,
            SimTime::from_secs(1),
        );
        assert_eq!(d.assignment, vec![0, 0, u32::MAX, 0]);
        assert_eq!(d.rejected.len(), 1);
        assert_eq!(d.rejected[0].1.id.0, 2);
    }

    #[test]
    fn hedging_dispatches_a_twin_to_another_shard() {
        // Two shards, one job with 100 ms of slack, hedge at 50 %.
        let jobs = JobSet::new(vec![Job::new(
            0,
            SimTime::ZERO,
            SimTime::from_millis(100),
            200.0,
        )
        .unwrap()])
        .unwrap();
        let overload = OverloadPolicy {
            hedge: HedgePolicy::SlackFraction { fraction: 0.5 },
            ..OverloadPolicy::default()
        };
        let d = dispatch_protected(
            &jobs,
            2,
            &RoutingPolicy::RoundRobin,
            &PolynomialPower::PAPER_SIM,
            &ExpQuality::PAPER_DEFAULT,
            &FaultPlan::none(2),
            &overload,
            SimTime::from_secs(1),
        );
        assert_eq!(d.hedges.len(), 1);
        let h = d.hedges[0];
        assert_eq!(h.at, SimTime::from_millis(50));
        assert_eq!(h.from, 0);
        assert_eq!(h.to, 1);
        assert!(h.duel, "both copies survive a fault-free run");
        // The twin keeps the original deadline but releases at the
        // hedge instant.
        assert_eq!(d.shard_jobs[1].len(), 1);
        let twin = d.shard_jobs[1].iter().next().unwrap();
        assert_eq!(twin.id.0, 0);
        assert_eq!(twin.release, SimTime::from_millis(50));
        assert_eq!(twin.deadline, SimTime::from_millis(100));
        // Conservation with a duel: 1 arrival, 2 stream entries.
        assert_eq!(
            d.shard_jobs.iter().map(JobSet::len).sum::<usize>(),
            jobs.len() + 1
        );
    }

    #[test]
    fn hedge_is_cancelled_when_the_primary_strands_first() {
        // The primary shard crashes before the hedge instant: the
        // pending hedge must not fire (the retry path owns the job).
        let jobs = JobSet::new(vec![Job::new(
            0,
            SimTime::ZERO,
            SimTime::from_millis(200),
            100.0,
        )
        .unwrap()])
        .unwrap();
        let plan = FaultPlan::none(2)
            .with_window(
                0,
                FaultWindow {
                    start: SimTime::from_millis(20),
                    end: SimTime::from_millis(180),
                    kind: FaultKind::Crash,
                },
            )
            .with_retry_delay(SimDuration::from_millis(10));
        let overload = OverloadPolicy {
            hedge: HedgePolicy::SlackFraction { fraction: 0.5 },
            ..OverloadPolicy::default()
        };
        let d = dispatch_protected(
            &jobs,
            2,
            &RoutingPolicy::RoundRobin,
            &PolynomialPower::PAPER_SIM,
            &ExpQuality::PAPER_DEFAULT,
            &FaultPlan::none(2),
            &overload,
            SimTime::from_secs(1),
        );
        // Sanity: fault-free, the hedge fires.
        assert_eq!(d.hedges.len(), 1);
        let d2 = dispatch_protected(
            &jobs,
            2,
            &RoutingPolicy::RoundRobin,
            &PolynomialPower::PAPER_SIM,
            &ExpQuality::PAPER_DEFAULT,
            &plan,
            &overload,
            SimTime::from_secs(1),
        );
        assert!(d2.hedges.is_empty(), "stranded primary cancels the hedge");
        assert_eq!(d2.retried, 1);
        // The retried copy alone survives: plain conservation.
        assert_eq!(d2.shard_jobs.iter().map(JobSet::len).sum::<usize>(), 1);
    }

    #[test]
    fn retry_budget_drops_after_max_attempts() {
        // Both shards crash in sequence, repeatedly stranding the job.
        // With a 1-attempt budget the second strand gives up.
        let job = Job::new(0, SimTime::ZERO, SimTime::from_millis(400), 100.0).unwrap();
        let jobs = JobSet::new(vec![job]).unwrap();
        let plan = FaultPlan::none(2)
            .with_window(
                0,
                FaultWindow {
                    start: SimTime::from_millis(10),
                    end: SimTime::from_millis(390),
                    kind: FaultKind::Crash,
                },
            )
            .with_window(
                1,
                FaultWindow {
                    start: SimTime::from_millis(30),
                    end: SimTime::from_millis(390),
                    kind: FaultKind::Crash,
                },
            )
            .with_retry_delay(SimDuration::from_millis(10));
        let budgeted = OverloadPolicy {
            retry: RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            },
            ..OverloadPolicy::default()
        };
        let d = dispatch_protected(
            &jobs,
            2,
            &RoutingPolicy::RoundRobin,
            &PolynomialPower::PAPER_SIM,
            &ExpQuality::PAPER_DEFAULT,
            &plan,
            &budgeted,
            SimTime::from_secs(1),
        );
        // Strand on shard 0 at 10 ms -> retry to shard 1 at 20 ms ->
        // strand again at 30 ms -> budget (1) exhausted -> drop.
        assert_eq!(d.retried, 1);
        assert_eq!(d.dropped.len(), 1);
        assert_eq!(d.redispatches.len(), 2);
        assert_eq!(d.shard_jobs.iter().map(JobSet::len).sum::<usize>(), 0);
        // The unbudgeted default keeps retrying instead (second retry
        // lands at 40 ms, after both crashes started, and both shards
        // are down -> still dropped, but after two routed retries).
        let d2 = dispatch_protected(
            &jobs,
            2,
            &RoutingPolicy::RoundRobin,
            &PolynomialPower::PAPER_SIM,
            &ExpQuality::PAPER_DEFAULT,
            &plan,
            &OverloadPolicy::default(),
            SimTime::from_secs(1),
        );
        assert!(d2.retried >= d.retried);
    }
}
