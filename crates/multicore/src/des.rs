//! **DES (Dynamic Equal Sharing)** — the paper's multicore scheduler
//! (§IV-D).
//!
//! DES divides the global multicore problem into per-core single-core
//! problems by equal sharing of jobs and power. Each invocation runs four
//! steps:
//!
//! 1. **Ready-job-distribution** — deal waiting jobs to cores with C-RR.
//! 2. **Budget-free-independent-core-scheduling** — per core, compute the
//!    Energy-OPT schedule pretending power were unlimited; read off each
//!    core's instantaneous power request `P_i(t)` (all jobs re-release at
//!    `t`, so the YDS profile is non-increasing and `P_i(t)` is the peak).
//!    If `Σ P_i(t) ≤ H`, these schedules already complete every job within
//!    the budget — done.
//! 3. **Dynamic-power-distribution** — otherwise water-fill the budget
//!    over the requests.
//! 4. **Budget-bounded-independent-core-scheduling** — per core, run
//!    Online-QE under the granted power.
//!
//! [`ArchKind`] selects the §V-A degradations (No-DVFS, S-DVFS), and an
//! optional [`DiscreteSpeedSet`] enables the §V-F discrete-speed variant.

use qes_core::job::JobId;
use qes_core::job::{Job, JobSet};
use qes_core::power::DiscreteSpeedSet;
use qes_core::schedule::CoreSchedule;
use qes_singlecore::energy_opt::energy_opt;
use qes_singlecore::online_qe::{OnlineMode, QeSolver, ReadyJob};

use crate::arch::{fixed_speed_plan, ArchKind};
use crate::crr::CrrDistributor;
use crate::discrete::{rectify_speeds, snap_plan_up};
use crate::policy::{PolicyDecision, SchedulingPolicy, SystemView, TriggerRequest};
use crate::water_filling::{water_filling_with_rounds, WaterFillingCache};

/// How DES distributes ready jobs to cores (ablation knob; the paper's
/// design is [`JobSharing::Crr`], §IV-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum JobSharing {
    /// Cumulative round-robin: the dealing cursor persists across
    /// invocations (the paper's choice).
    #[default]
    Crr,
    /// Plain round-robin restarting at core 0 every invocation — the
    /// strawman §IV-B argues against; kept for the ablation study.
    RestartRr,
}

/// How DES distributes the power budget (ablation knob; the paper's
/// design is [`PowerSharing::WaterFilling`], §IV-C).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PowerSharing {
    /// Dynamic water-filling over the per-core requests (the paper's
    /// choice).
    #[default]
    WaterFilling,
    /// Static equal sharing: every core owns `H/m` regardless of load —
    /// what the baselines use; kept for the ablation study.
    StaticEqual,
}

/// How DES recomputes per-core schedules across invocations.
///
/// Both modes are **bit-identical by construction** (asserted by the
/// differential suite, `tests/differential.rs`): they share the same
/// closed-form power probe and the same plan-construction functions, and
/// the caching mode only skips a recomputation when its inputs —
/// invocation instant, live job set with sunk-work frontier, and grant —
/// are exactly the inputs the cached result was computed from, so the
/// recomputation is a pure function that would return the cached value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RecomputeMode {
    /// Rebuild every core's plan from scratch on every invocation — the
    /// reference the differential suite compares against.
    Full,
    /// Keep a per-core deadline-sorted ready index with resumable prefix
    /// demand sums: the power probe reads the stored prefix sums instead
    /// of re-sorting, a core's cached plan is reused while the index's
    /// dirty flag is clear at the same instant under the same grant,
    /// water-filling re-levels only when the request vector changes, and
    /// the budget-bounded step feeds the index straight into a per-core
    /// warm [`QeSolver`] (no per-invocation materialization).
    #[default]
    IncrementalQe,
}

/// What produced a cached plan: the step-2 early exit (budget-free
/// Energy-OPT) or a budget-bounded solve under an exact grant (bits).
/// The branch is part of the cache key — two invocations at the same
/// instant over the same job set still differ if the *system-wide*
/// budget check flipped in between.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PlanKey {
    Free,
    Granted(u64),
}

/// Per-core ready index and plan cache for
/// [`RecomputeMode::IncrementalQe`]: the live job set in canonical
/// (deadline, id) order with left-to-right prefix sums of remaining
/// demand, updated by suffix diff each invocation, plus the last plan
/// computed from it.
///
/// The prefix sums resume from the first diverging position, which is
/// bit-identical to re-summing from the left — so everything derived
/// from them (the power probe, the Online-QE solve) matches a
/// from-scratch computation exactly.
#[derive(Clone, Debug, Default)]
struct CoreQe {
    /// Live jobs, (deadline, id)-sorted — exactly the materialized list
    /// [`RecomputeMode::Full`] hands to Online-QE.
    jobs: Vec<ReadyJob>,
    /// `cum[i]` = Σ remaining demand of `jobs[..=i]`, summed left to
    /// right.
    cum: Vec<f64>,
    /// Set when the index changed since the cached plan was stored.
    dirty: bool,
    /// Invocation instant of the cached plan, in µs. Plans are
    /// time-dependent (YDS stretches to the deadlines as seen from
    /// `now`), so reuse requires the same instant — which happens
    /// whenever several triggers coincide at one event time.
    now_us: u64,
    /// What produced `plan`; `None` means nothing cached.
    key: Option<PlanKey>,
    plan: CoreSchedule,
    /// Warm Online-QE solver (scratch reuse only — bitwise inert).
    solver: QeSolver,
}

impl CoreQe {
    /// Rebuild the index from this invocation's live set, resuming the
    /// prefix sums after the longest unchanged prefix.
    fn update(&mut self, live: impl Iterator<Item = ReadyJob>, scratch: &mut Vec<ReadyJob>) {
        scratch.clear();
        scratch.extend(live);
        scratch.sort_unstable_by_key(|r| (r.job.deadline, r.job.id));
        let same = |a: &ReadyJob, b: &ReadyJob| {
            a.job.id == b.job.id
                && a.job.deadline == b.job.deadline
                && a.job.demand.to_bits() == b.job.demand.to_bits()
                && a.processed.to_bits() == b.processed.to_bits()
        };
        let mut p = 0;
        while p < self.jobs.len() && p < scratch.len() && same(&self.jobs[p], &scratch[p]) {
            p += 1;
        }
        if p == self.jobs.len() && p == scratch.len() {
            return;
        }
        self.dirty = true;
        self.jobs.truncate(p);
        self.jobs.extend_from_slice(&scratch[p..]);
        self.cum.truncate(p);
        let mut acc = if p == 0 { 0.0 } else { self.cum[p - 1] };
        for r in &self.jobs[p..] {
            acc += r.remaining();
            self.cum.push(acc);
        }
    }

    /// The cached plan, if it was computed at `now_us` under `key` from
    /// the index as it stands.
    fn cached(&self, now_us: u64, key: PlanKey) -> Option<&CoreSchedule> {
        (!self.dirty && self.now_us == now_us && self.key == Some(key)).then_some(&self.plan)
    }

    /// Cache `plan`, computed at `now_us` under `key` from the current
    /// index.
    fn store(&mut self, now_us: u64, key: PlanKey, plan: CoreSchedule) {
        self.now_us = now_us;
        self.key = Some(key);
        self.plan = plan;
        self.dirty = false;
    }
}

/// Always-on observability counters for [`DesPolicy`]: plain integer
/// adds on paths that already branch, far too cheap to gate. Drained
/// through [`SchedulingPolicy::metrics`] at the end of an observed run
/// (unobserved runs simply never read them).
#[derive(Clone, Debug, Default)]
struct DesStats {
    /// `on_trigger` calls.
    triggers: u64,
    /// Queued jobs dealt to cores (C-RR step 1).
    jobs_dealt: u64,
    /// Invocations resolved by the step-2 early exit (Σ requests ≤ H).
    free_exits: u64,
    /// Invocations that ran the budget-bounded steps 3–4.
    budget_bound: u64,
    /// Cores resolved by the keep-plan rule.
    keeps: u64,
    /// Cores whose plan was reused from the per-core cache.
    cache_hits: u64,
    /// Cores whose plan was recomputed (free or granted).
    cache_misses: u64,
    /// Fresh budget-free Energy-OPT materializations.
    free_solves: u64,
    /// Fresh budget-bounded Online-QE solves.
    qe_solves: u64,
    /// Jobs the §V-D discard loop abandoned.
    discards: u64,
    /// Water-filling peel/level passes run outside the cache
    /// ([`RecomputeMode::Full`] only; the caching mode counts in
    /// [`WaterFillingCache`]).
    wf_levelings: u64,
    /// Peeling rounds across those passes.
    wf_rounds: u64,
}

/// The DES scheduling policy.
#[derive(Clone, Debug)]
pub struct DesPolicy {
    arch: ArchKind,
    crr: CrrDistributor,
    discrete: Option<DiscreteSpeedSet>,
    triggers: TriggerRequest,
    job_sharing: JobSharing,
    power_sharing: PowerSharing,
    mode: OnlineMode,
    recompute: RecomputeMode,
    wf_cache: WaterFillingCache,
    /// Per core: every plan installed since the core's last
    /// budget-bounded (or discrete) recomputation came from the step-2
    /// early exit. Part of the *decision procedure* (maintained
    /// identically by every [`RecomputeMode`]), not a cache: it licenses
    /// the keep-plan rule in `on_trigger`.
    free_streak: Vec<bool>,
    /// Per-core ready indexes and plan caches
    /// ([`RecomputeMode::IncrementalQe`] only).
    core_qe: Vec<CoreQe>,
    /// Shared warm solver for [`RecomputeMode::Full`] and the discrete
    /// ladder path. Purely an allocation amortizer.
    qe_scratch: QeSolver,
    /// Sort buffer for [`CoreQe::update`].
    sort_scratch: Vec<ReadyJob>,
    /// Observability counters (see [`DesStats`]).
    stats: DesStats,
}

impl DesPolicy {
    /// Full DES on core-level DVFS (the paper's design target).
    pub fn new() -> Self {
        Self::on_arch(ArchKind::CDvfs)
    }

    /// DES degraded to the given architecture (§V-A).
    pub fn on_arch(arch: ArchKind) -> Self {
        DesPolicy {
            arch,
            crr: CrrDistributor::new(),
            discrete: None,
            triggers: TriggerRequest::paper_default(),
            job_sharing: JobSharing::Crr,
            power_sharing: PowerSharing::WaterFilling,
            mode: OnlineMode::Eager,
            recompute: RecomputeMode::default(),
            wf_cache: WaterFillingCache::new(),
            free_streak: Vec::new(),
            core_qe: Vec::new(),
            qe_scratch: QeSolver::default(),
            sort_scratch: Vec::new(),
            stats: DesStats::default(),
        }
    }

    /// DES with discrete speed scaling (§V-F); implies C-DVFS.
    pub fn with_discrete(set: DiscreteSpeedSet) -> Self {
        DesPolicy {
            discrete: Some(set),
            ..Self::on_arch(ArchKind::CDvfs)
        }
    }

    /// Override the triggering events (default: paper's §V-B settings).
    pub fn with_triggers(mut self, t: TriggerRequest) -> Self {
        self.triggers = t;
        self
    }

    /// Ablation: choose the job-distribution policy (default: C-RR).
    pub fn with_job_sharing(mut self, j: JobSharing) -> Self {
        self.job_sharing = j;
        self
    }

    /// Ablation: choose the power-distribution policy (default: WF).
    pub fn with_power_sharing(mut self, p: PowerSharing) -> Self {
        self.power_sharing = p;
        self
    }

    /// Ablation: how the budget-bounded step realizes its volumes
    /// (default: eager — see `OnlineMode`).
    pub fn with_mode(mut self, mode: OnlineMode) -> Self {
        self.mode = mode;
        self
    }

    /// Choose the recomputation strategy (default:
    /// [`RecomputeMode::IncrementalQe`]).
    pub fn with_recompute(mut self, r: RecomputeMode) -> Self {
        self.recompute = r;
        self
    }

    /// The architecture this instance runs on.
    pub fn arch(&self) -> ArchKind {
        self.arch
    }

    /// Step 3: distribute the budget per the configured policy. In the
    /// caching mode water-filling re-levels only when the request vector
    /// or budget changed since the previous invocation.
    fn distribute_power(&mut self, requests: &[f64], budget: f64, m: usize) -> Vec<f64> {
        match self.power_sharing {
            PowerSharing::WaterFilling => {
                if self.recompute == RecomputeMode::IncrementalQe {
                    self.wf_cache.grants(requests, budget).to_vec()
                } else {
                    let (grants, rounds) = water_filling_with_rounds(requests, budget);
                    self.stats.wf_levelings += 1;
                    self.stats.wf_rounds += rounds;
                    grants
                }
            }
            PowerSharing::StaticEqual => vec![budget / m as f64; m],
        }
    }

    /// Step 2's power request in closed form. With every job re-released
    /// at `now`, the unconstrained YDS profile is non-increasing, so its
    /// initial (peak) speed — the probe value `P_i(t)` — is the maximum
    /// prefix density over deadline-ordered jobs. This replaces a full
    /// Energy-OPT solve per core per invocation; the schedule itself is
    /// only materialized on the early-exit branch. Shared verbatim by
    /// both [`RecomputeMode`]s so their requests agree bit-for-bit.
    fn probe_request(view: &SystemView<'_>, live: impl Iterator<Item = ReadyJob>) -> f64 {
        let now_us = view.now.as_micros();
        // The id tiebreak makes the summation order — and so the float
        // result — a function of the job set, not the caller's order.
        let mut dw: Vec<(u64, u32, f64)> = live
            .map(|r| (r.job.deadline.as_micros(), r.job.id.0, r.remaining()))
            .collect();
        dw.sort_unstable_by_key(|&(d, id, _)| (d, id));
        let mut cum = 0.0;
        let mut speed: f64 = 0.0;
        for &(d_us, _, w) in &dw {
            cum += w;
            speed = speed.max(cum * 1000.0 / (d_us - now_us) as f64);
        }
        view.model.dynamic_power(speed)
    }

    /// [`Self::probe_request`] read off a core's ready index: the jobs
    /// are already (deadline, id)-sorted and `cum` holds exactly the
    /// left-to-right prefix sums the probe would compute, so the result
    /// is bit-identical — only the sort and the summation are skipped.
    fn probe_from_index(view: &SystemView<'_>, cq: &CoreQe) -> f64 {
        let now_us = view.now.as_micros();
        let mut speed: f64 = 0.0;
        for (r, &cum) in cq.jobs.iter().zip(&cq.cum) {
            let d_us = r.job.deadline.as_micros();
            speed = speed.max(cum * 1000.0 / (d_us - now_us) as f64);
        }
        view.model.dynamic_power(speed)
    }

    /// The step-2 early-exit schedule for one core: unconstrained
    /// Energy-OPT over the live jobs re-released at `now` with their
    /// remaining demands (the sunk work needs no future power).
    fn free_schedule(view: &SystemView<'_>, ready: &[ReadyJob]) -> CoreSchedule {
        let jobs: Vec<Job> = ready
            .iter()
            .map(|r| Job {
                release: view.now,
                demand: r.remaining(),
                ..r.job
            })
            .collect();
        energy_opt(&JobSet::new_unchecked(jobs)).schedule
    }
}

impl Default for DesPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedulingPolicy for DesPolicy {
    fn name(&self) -> String {
        let mut n = format!("DES/{}", self.arch.name());
        if self.discrete.is_some() {
            n.push_str("/discrete");
        }
        if self.job_sharing == JobSharing::RestartRr {
            n.push_str("/restart-rr");
        }
        if self.power_sharing == PowerSharing::StaticEqual {
            n.push_str("/static-power");
        }
        if self.mode == OnlineMode::Efficient {
            n.push_str("/efficient");
        }
        match self.recompute {
            RecomputeMode::Full => n.push_str("/full-recompute"),
            RecomputeMode::IncrementalQe => {}
        }
        n
    }

    fn triggers(&self) -> TriggerRequest {
        self.triggers
    }

    fn on_trigger(&mut self, view: &SystemView<'_>) -> PolicyDecision {
        let m = view.num_cores();
        let now = view.now;
        self.stats.triggers += 1;

        // Step 1: C-RR distribution of the waiting queue.
        let live_queue: Vec<&ReadyJob> = view
            .queue
            .iter()
            .filter(|r| r.job.deadline > now && r.remaining() > 1e-9)
            .collect();
        if self.job_sharing == JobSharing::RestartRr {
            // Ablation: forget the cumulative cursor every invocation.
            self.crr = CrrDistributor::new();
        }
        let dealt = self.crr.assign(live_queue.len(), m);
        let mut assignments = Vec::with_capacity(live_queue.len());
        // Newly dealt jobs, kept apart from the *borrowed* core views: a
        // core that receives no new work and needs no recomputation never
        // copies its job list.
        let mut extra: Vec<Vec<ReadyJob>> = vec![Vec::new(); m];
        for (r, &core) in live_queue.iter().zip(&dealt) {
            assignments.push((r.job.id, core));
            extra[core].push(**r);
        }
        self.stats.jobs_dealt += assignments.len() as u64;
        // One core's live set (current jobs + newly dealt), borrowed.
        let live_iter = |c: usize| view.cores[c].live_jobs(now).chain(extra[c].iter().copied());
        // The same set materialized in canonical (deadline, id) order for
        // plan construction — the order Online-QE itself canonicalizes
        // to, so every computed plan is a function of the job set alone.
        let materialize = |c: usize| -> Vec<ReadyJob> {
            let mut v: Vec<ReadyJob> = live_iter(c).collect();
            v.sort_unstable_by_key(|r| (r.job.deadline, r.job.id));
            v
        };

        let mut plans: Vec<Option<CoreSchedule>> = Vec::with_capacity(m);
        let mut discarded: Vec<JobId> = Vec::new();
        let mut ambient = vec![0.0; m];

        match self.arch {
            ArchKind::NoDvfs => {
                // Fixed speed funded by the static equal share; cores
                // cannot scale down, so they draw it even when idle.
                let s_fix = view.model.speed_for_dynamic_power(view.budget / m as f64);
                for c in 0..m {
                    let (plan, disc) = fixed_speed_plan(now, &materialize(c), s_fix);
                    plans.push(Some(plan));
                    discarded.extend(disc);
                }
                ambient = vec![s_fix; m];
            }
            ArchKind::SDvfs => {
                // One shared clock: the maximum request, clamped by the
                // equal share (WF over identical requests).
                let h_max = (0..m)
                    .map(|c| Self::probe_request(view, live_iter(c)))
                    .fold(0.0, f64::max);
                let shared = h_max.min(view.budget / m as f64);
                let s_shared = view.model.speed_for_dynamic_power(shared);
                for c in 0..m {
                    let (plan, disc) = fixed_speed_plan(now, &materialize(c), s_shared);
                    plans.push(Some(plan));
                    discarded.extend(disc);
                }
                // Idle cores stay locked to the shared clock.
                ambient = vec![s_shared; m];
            }
            ArchKind::CDvfs => {
                let cached = self.recompute == RecomputeMode::IncrementalQe;
                if self.free_streak.len() != m {
                    self.free_streak = vec![false; m];
                }
                if cached {
                    if self.core_qe.len() != m {
                        self.core_qe = std::iter::repeat_with(CoreQe::default).take(m).collect();
                    }
                    // Refresh every core's ready index up front: the
                    // probe, the cache check, and the solves below all
                    // read it.
                    for c in 0..m {
                        self.core_qe[c].update(live_iter(c), &mut self.sort_scratch);
                    }
                }
                let now_us = now.as_micros();
                // Requests depend on `now`, so they are recomputed every
                // invocation — but via the closed form, not a YDS solve,
                // and off the stored prefix sums when the index is on.
                let requests: Vec<f64> = if cached {
                    (0..m)
                        .map(|c| Self::probe_from_index(view, &self.core_qe[c]))
                        .collect()
                } else {
                    (0..m)
                        .map(|c| Self::probe_request(view, live_iter(c)))
                        .collect()
                };
                let total: f64 = requests.iter().sum();
                let empty = |qe: &[CoreQe], c: usize| {
                    if cached {
                        qe[c].jobs.is_empty()
                    } else {
                        live_iter(c).next().is_none()
                    }
                };
                // Hoisted out of the match: `distribute_power` needs
                // `&mut self` (WF cache), which cannot overlap the borrow
                // of `self.discrete` below. Only the budget-bound paths
                // use the grants.
                let grants = if self.discrete.is_some() || total > view.budget {
                    self.distribute_power(&requests, view.budget, m)
                } else {
                    Vec::new()
                };
                match &self.discrete {
                    None if total <= view.budget => {
                        // Step 2 early exit: the unconstrained schedules
                        // already fit the budget and complete every job.
                        self.stats.free_exits += 1;
                        for (c, dealt) in extra.iter().enumerate() {
                            // Keep rule — shared by both recompute modes,
                            // so it is part of the decision procedure,
                            // not a cache: a core that received no new
                            // work and is still executing a budget-free
                            // plan keeps it. Energy-OPT is
                            // time-consistent along its own execution
                            // (re-solving over the remaining demands
                            // reproduces the tail of the running plan),
                            // so a recompute could only re-derive what is
                            // already installed.
                            if self.free_streak[c] && dealt.is_empty() && view.cores[c].busy {
                                self.stats.keeps += 1;
                                plans.push(None);
                                continue;
                            }
                            self.free_streak[c] = true;
                            if empty(&self.core_qe, c) {
                                // No live work: Energy-OPT over nothing.
                                plans.push(Some(CoreSchedule::default()));
                                if cached {
                                    self.core_qe[c].store(
                                        now_us,
                                        PlanKey::Free,
                                        CoreSchedule::default(),
                                    );
                                }
                                continue;
                            }
                            let hit = if cached {
                                self.core_qe[c].cached(now_us, PlanKey::Free)
                            } else {
                                None
                            };
                            if let Some(plan) = hit {
                                self.stats.cache_hits += 1;
                                plans.push(Some(plan.clone()));
                                continue;
                            }
                            self.stats.cache_misses += 1;
                            self.stats.free_solves += 1;
                            if cached {
                                let plan = Self::free_schedule(view, &self.core_qe[c].jobs);
                                plans.push(Some(plan.clone()));
                                self.core_qe[c].store(now_us, PlanKey::Free, plan);
                            } else {
                                plans.push(Some(Self::free_schedule(view, &materialize(c))));
                            }
                        }
                    }
                    None => {
                        // Steps 3–4: distribute power, then Online-QE per
                        // core. The budget binds here, so the grant is
                        // spent eagerly by default (see `OnlineMode`).
                        self.stats.budget_bound += 1;
                        for (c, &grant) in grants.iter().enumerate() {
                            self.free_streak[c] = false;
                            let key = PlanKey::Granted(grant.to_bits());
                            if empty(&self.core_qe, c) || grant <= 0.0 {
                                // Nothing live, or a zero grant (s* = 0):
                                // Online-QE returns an empty plan and no
                                // discards without looking at the jobs.
                                plans.push(Some(CoreSchedule::default()));
                                if cached {
                                    self.core_qe[c].store(now_us, key, CoreSchedule::default());
                                }
                                continue;
                            }
                            let hit = if cached {
                                self.core_qe[c].cached(now_us, key)
                            } else {
                                None
                            };
                            if let Some(plan) = hit {
                                // A reused plan had no discards: any
                                // discard would have been settled by the
                                // engine, changing the live set.
                                self.stats.cache_hits += 1;
                                plans.push(Some(plan.clone()));
                                continue;
                            }
                            self.stats.cache_misses += 1;
                            self.stats.qe_solves += 1;
                            let out = if cached {
                                let CoreQe { jobs, solver, .. } = &mut self.core_qe[c];
                                solver.solve(now, jobs, view.model, grant, self.mode)
                            } else {
                                self.qe_scratch.solve(
                                    now,
                                    &materialize(c),
                                    view.model,
                                    grant,
                                    self.mode,
                                )
                            };
                            discarded.extend(out.discarded);
                            plans.push(Some(out.schedule.clone()));
                            if cached {
                                self.core_qe[c].store(now_us, key, out.schedule);
                            }
                        }
                    }
                    Some(set) => {
                        // §V-F: always rectify the WF grants to discrete
                        // speeds, then Online-QE under the rectified power
                        // with slice speeds snapped onto the ladder. The
                        // per-core cache does not apply to the ladder path
                        // (plans are recomputed in full).
                        self.free_streak.fill(false);
                        let speeds = rectify_speeds(&grants, set, view.model, view.budget);
                        for (c, &cap) in speeds.iter().enumerate() {
                            self.stats.qe_solves += 1;
                            let grant = view.model.dynamic_power(cap);
                            let out = self.qe_scratch.solve(
                                now,
                                &materialize(c),
                                view.model,
                                grant,
                                self.mode,
                            );
                            discarded.extend(out.discarded);
                            plans.push(Some(snap_plan_up(&out.schedule, set)));
                        }
                    }
                }
            }
        }

        self.stats.discards += discarded.len() as u64;
        PolicyDecision {
            assignments,
            plans,
            discarded,
            ambient_speeds: ambient,
        }
    }

    fn metrics(&self, sink: &mut dyn FnMut(&'static str, u64)) {
        let s = &self.stats;
        sink("des.triggers", s.triggers);
        sink("des.jobs_dealt", s.jobs_dealt);
        sink("des.free_exits", s.free_exits);
        sink("des.budget_bound", s.budget_bound);
        sink("des.keep_plan", s.keeps);
        sink("des.cache_hit", s.cache_hits);
        sink("des.cache_miss", s.cache_misses);
        sink("des.free_solve", s.free_solves);
        sink("des.qe_solve", s.qe_solves);
        sink("des.discards", s.discards);
        // Water-filling work: cached modes level inside the cache, Full
        // levels directly — merge both views into one pair of counters.
        sink("des.wf_hits", self.wf_cache.hits());
        sink(
            "des.wf_levelings",
            s.wf_levelings + self.wf_cache.levelings(),
        );
        sink("des.wf_rounds", s.wf_rounds + self.wf_cache.rounds());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::CoreView;
    use qes_core::power::{PolynomialPower, PowerModel};
    use qes_core::time::SimTime;

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
    fn distributes_queue_round_robin() {
        let mut des = DesPolicy::new();
        let queue = vec![
            rj(0, 0, 150, 50.0),
            rj(1, 0, 150, 50.0),
            rj(2, 0, 150, 50.0),
        ];
        let cores = vec![CoreView::default(), CoreView::default()];
        let d = des.on_trigger(&view(ms(0), &queue, &cores, 40.0));
        let targets: Vec<usize> = d.assignments.iter().map(|&(_, c)| c).collect();
        assert_eq!(targets, vec![0, 1, 0]);
        // Cumulative: the next invocation starts at core 1.
        let queue2 = vec![rj(3, 0, 300, 50.0)];
        let d2 = des.on_trigger(&view(ms(0), &queue2, &cores, 40.0));
        assert_eq!(d2.assignments[0].1, 1);
    }

    #[test]
    fn light_load_uses_budget_free_schedules() {
        // One small job per core: unconstrained YDS fits the budget, all
        // jobs complete, and speeds are the slow deadline-stretching ones.
        let mut des = DesPolicy::new();
        let queue = vec![rj(0, 0, 150, 30.0), rj(1, 0, 150, 30.0)];
        let cores = vec![CoreView::default(), CoreView::default()];
        let d = des.on_trigger(&view(ms(0), &queue, &cores, 40.0));
        let mut total = 0.0;
        for p in d.plans.iter().flatten() {
            total += p.speed_plan().total_volume();
            // 30 units over 150 ms = 0.2 GHz.
            assert!(p.speed_plan().max_speed() < 0.3);
        }
        assert!((total - 60.0).abs() < 0.1);
        assert!(d.discarded.is_empty());
        assert!(d.ambient_speeds.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn heavy_load_water_fills_and_respects_budget() {
        let mut des = DesPolicy::new();
        // Two cores, very unequal load; tiny budget forces WF.
        let queue = vec![
            rj(0, 0, 100, 300.0),
            rj(1, 0, 100, 20.0),
            rj(2, 0, 100, 300.0),
        ];
        let cores = vec![CoreView::default(), CoreView::default()];
        let budget = 10.0;
        let d = des.on_trigger(&view(ms(0), &queue, &cores, budget));
        // Instantaneous power at any slice boundary must fit the budget.
        let mut instants = Vec::new();
        for p in d.plans.iter().flatten() {
            for s in p.slices() {
                instants.push(s.start);
                instants.push(s.end);
            }
        }
        for &t in &instants {
            let power: f64 = d
                .plans
                .iter()
                .flatten()
                .map(|p| MODEL.dynamic_power(p.speed_plan().speed_at(t)))
                .sum();
            assert!(power <= budget + 1e-6, "power {power} at {t:?}");
        }
    }

    #[test]
    fn heavy_loaded_core_gets_more_power_than_light_one() {
        let mut des = DesPolicy::new();
        // Core 0 gets the heavy job, core 1 the light one (C-RR order).
        let queue = vec![rj(0, 0, 100, 400.0), rj(1, 0, 100, 40.0)];
        let cores = vec![CoreView::default(), CoreView::default()];
        let d = des.on_trigger(&view(ms(0), &queue, &cores, 15.0));
        let peak = |i: usize| {
            d.plans[i]
                .as_ref()
                .map(|p| p.speed_plan().peak_power(&MODEL))
                .unwrap_or(0.0)
        };
        assert!(peak(0) > peak(1), "heavy {} vs light {}", peak(0), peak(1));
    }

    #[test]
    fn no_dvfs_runs_fixed_speed_with_ambient_draw() {
        let mut des = DesPolicy::on_arch(ArchKind::NoDvfs);
        let queue = vec![rj(0, 0, 150, 30.0)];
        let cores = vec![CoreView::default(), CoreView::default()];
        let budget = 40.0; // share 20 W → 2 GHz fixed
        let d = des.on_trigger(&view(ms(0), &queue, &cores, budget));
        for p in d.plans.iter().flatten() {
            for s in p.slices() {
                assert!((s.speed - 2.0).abs() < 1e-9);
            }
        }
        assert!(d.ambient_speeds.iter().all(|&s| (s - 2.0).abs() < 1e-9));
    }

    #[test]
    fn s_dvfs_locks_all_cores_to_shared_speed() {
        let mut des = DesPolicy::on_arch(ArchKind::SDvfs);
        // Unequal load: shared speed = max request clamped by share.
        let queue = vec![rj(0, 0, 100, 150.0), rj(1, 0, 100, 10.0)];
        let cores = vec![CoreView::default(), CoreView::default()];
        let d = des.on_trigger(&view(ms(0), &queue, &cores, 40.0));
        // Max request: 150 units/100 ms = 1.5 GHz → 11.25 W < 20 W share.
        let expect = 1.5;
        for p in d.plans.iter().flatten() {
            for s in p.slices() {
                assert!((s.speed - expect).abs() < 1e-6, "speed {}", s.speed);
            }
        }
        for &s in &d.ambient_speeds {
            assert!((s - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn s_dvfs_clamps_shared_speed_at_equal_share() {
        let mut des = DesPolicy::on_arch(ArchKind::SDvfs);
        // A hot core wanting 4 GHz (80 W) with a 40 W budget over 2 cores:
        // clamp at 20 W → 2 GHz.
        let queue = vec![rj(0, 0, 100, 400.0)];
        let cores = vec![CoreView::default(), CoreView::default()];
        let d = des.on_trigger(&view(ms(0), &queue, &cores, 40.0));
        let plan = d.plans[0].as_ref().unwrap();
        assert!((plan.speed_plan().max_speed() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn discrete_mode_emits_only_ladder_speeds() {
        let set = crate::discrete::default_ladder(&MODEL);
        let mut des = DesPolicy::with_discrete(set.clone());
        let queue = vec![
            rj(0, 0, 100, 170.0),
            rj(1, 0, 100, 90.0),
            rj(2, 0, 100, 260.0),
        ];
        let cores = vec![CoreView::default(), CoreView::default()];
        let d = des.on_trigger(&view(ms(0), &queue, &cores, 30.0));
        for p in d.plans.iter().flatten() {
            for s in p.slices() {
                let on_ladder = set.speeds().iter().any(|&l| (l - s.speed).abs() < 1e-9);
                assert!(on_ladder, "speed {} not on ladder", s.speed);
            }
        }
    }

    #[test]
    fn empty_system_is_a_noop() {
        let mut des = DesPolicy::new();
        let cores = vec![CoreView::default(); 4];
        let d = des.on_trigger(&view(ms(100), &[], &cores, 320.0));
        assert!(d.assignments.is_empty());
        assert!(d.discarded.is_empty());
        for p in d.plans.iter().flatten() {
            assert!(p.is_empty());
        }
    }

    #[test]
    fn expired_queue_jobs_are_not_assigned() {
        let mut des = DesPolicy::new();
        let queue = vec![rj(0, 0, 50, 30.0), rj(1, 0, 150, 30.0)];
        let cores = vec![CoreView::default()];
        let d = des.on_trigger(&view(ms(100), &queue, &cores, 20.0));
        assert_eq!(d.assignments.len(), 1);
        assert_eq!(d.assignments[0].0, JobId(1));
    }

    #[test]
    fn restart_rr_always_deals_from_core_zero() {
        let mut des = DesPolicy::new().with_job_sharing(JobSharing::RestartRr);
        let cores = vec![
            CoreView::default(),
            CoreView::default(),
            CoreView::default(),
        ];
        for round in 0..3 {
            let queue = vec![rj(round, 0, 300, 10.0)];
            let d = des.on_trigger(&view(ms(0), &queue, &cores, 60.0));
            assert_eq!(
                d.assignments[0].1, 0,
                "round {round} should restart at core 0"
            );
        }
        // Whereas C-RR advances the cursor.
        let mut des = DesPolicy::new();
        let mut targets = Vec::new();
        for round in 0..3 {
            let queue = vec![rj(10 + round, 0, 300, 10.0)];
            let d = des.on_trigger(&view(ms(0), &queue, &cores, 60.0));
            targets.push(d.assignments[0].1);
        }
        assert_eq!(targets, vec![0, 1, 2]);
    }

    #[test]
    fn static_power_sharing_caps_each_core_at_equal_share() {
        // One hot core wanting far more than H/m: WF would grant it extra;
        // static sharing must cap its speed at the share speed.
        let mut des = DesPolicy::new().with_power_sharing(PowerSharing::StaticEqual);
        let queue = vec![rj(0, 0, 100, 400.0), rj(1, 0, 100, 10.0)];
        let cores = vec![CoreView::default(), CoreView::default()];
        let d = des.on_trigger(&view(ms(0), &queue, &cores, 40.0));
        let share_speed = MODEL.speed_for_dynamic_power(20.0);
        for p in d.plans.iter().flatten() {
            assert!(
                p.speed_plan().max_speed() <= share_speed + 1e-9,
                "speed {} exceeds the static share {}",
                p.speed_plan().max_speed(),
                share_speed
            );
        }
    }

    #[test]
    fn efficient_mode_stretches_where_eager_front_loads() {
        // One overloaded-enough job that WF engages: eager runs at s_max
        // (constant grant speed), efficient applies Energy-OPT stretching
        // (slower than s_max somewhere).
        let queue = vec![rj(0, 0, 100, 300.0), rj(1, 0, 100, 300.0)];
        let cores = vec![CoreView::default(), CoreView::default()];
        let budget = 20.0; // forces the WF path (each core wants 3 GHz = 45 W)
        let mut eager = DesPolicy::new();
        let de = eager.on_trigger(&view(ms(0), &queue, &cores, budget));
        let mut efficient = DesPolicy::new().with_mode(OnlineMode::Efficient);
        let df = efficient.on_trigger(&view(ms(0), &queue, &cores, budget));
        let span = |d: &crate::policy::PolicyDecision| -> u64 {
            d.plans
                .iter()
                .flatten()
                .filter_map(|p| p.slices().last().map(|s| s.end.as_micros()))
                .max()
                .unwrap_or(0)
        };
        // Both saturated plans cover the window; eager never ends later.
        assert!(span(&de) <= span(&df) + 1_000);
        // Under saturation both run at the grant speed: volumes match.
        let vol = |d: &crate::policy::PolicyDecision| -> f64 {
            d.plans
                .iter()
                .flatten()
                .map(|p| p.speed_plan().total_volume())
                .sum()
        };
        assert!(
            (vol(&de) - vol(&df)).abs() < 1.0,
            "{} vs {}",
            vol(&de),
            vol(&df)
        );
    }

    #[test]
    fn policy_names() {
        assert_eq!(DesPolicy::new().name(), "DES/C-DVFS");
        assert_eq!(DesPolicy::on_arch(ArchKind::NoDvfs).name(), "DES/No-DVFS");
        let set = crate::discrete::default_ladder(&MODEL);
        assert_eq!(DesPolicy::with_discrete(set).name(), "DES/C-DVFS/discrete");
        assert_eq!(
            DesPolicy::new().with_recompute(RecomputeMode::Full).name(),
            "DES/C-DVFS/full-recompute"
        );
        // The default is IncrementalQe, which carries no suffix.
        assert_eq!(
            DesPolicy::new()
                .with_recompute(RecomputeMode::IncrementalQe)
                .name(),
            "DES/C-DVFS"
        );
    }

    #[test]
    fn closed_form_probe_matches_energy_opt_initial_speed() {
        // The probe request must equal the power at the YDS initial speed
        // of the re-released job set — the quantity `budget_free_probe`
        // used to extract from a full Energy-OPT solve.
        use qes_singlecore::energy_opt::energy_opt;
        let now = ms(40);
        let cases: Vec<Vec<ReadyJob>> = vec![
            vec![],
            vec![rj(0, 0, 150, 50.0)],
            vec![
                rj(0, 0, 150, 50.0),
                rj(1, 10, 90, 120.0),
                rj(2, 0, 300, 7.5),
            ],
            vec![
                ReadyJob {
                    job: Job::new(3, ms(0), ms(200), 80.0).unwrap(),
                    processed: 33.25,
                },
                rj(4, 0, 41, 10.0),
                rj(5, 0, 500, 400.0),
                rj(6, 0, 77, 3.0),
            ],
        ];
        for ready in cases {
            let live: Vec<ReadyJob> = ready
                .iter()
                .filter(|r| r.job.deadline > now && r.remaining() > 1e-9)
                .copied()
                .collect();
            let queue: [ReadyJob; 0] = [];
            let cores = [CoreView {
                jobs: &live,
                busy: false,
            }];
            let v = view(now, &queue, &cores, 40.0);
            let closed = DesPolicy::probe_request(&v, live.iter().copied());
            let jobs: Vec<Job> = live
                .iter()
                .map(|r| Job {
                    release: now,
                    demand: r.remaining(),
                    ..r.job
                })
                .collect();
            let yds = MODEL.dynamic_power(energy_opt(&JobSet::new_unchecked(jobs)).initial_speed());
            assert!(
                (closed - yds).abs() <= 1e-9 * yds.max(1.0),
                "closed {closed} vs YDS {yds} for {} jobs",
                live.len()
            );
        }
    }

    /// One differential step: `(now ms, waiting queue, per-core jobs,
    /// budget)`.
    type Step = (u64, Vec<ReadyJob>, Vec<Vec<ReadyJob>>, f64);

    /// Drive a Full policy and the caching mode through the same trigger
    /// sequence and require bitwise-equal decisions at every step.
    fn assert_differential_equal(steps: &[Step]) {
        let mut full = DesPolicy::new().with_recompute(RecomputeMode::Full);
        let mut inc = DesPolicy::new().with_recompute(RecomputeMode::IncrementalQe);
        for (i, (now_ms, queue, core_jobs, budget)) in steps.iter().enumerate() {
            let cores: Vec<CoreView<'_>> = core_jobs
                .iter()
                .map(|j| CoreView {
                    jobs: j,
                    busy: false,
                })
                .collect();
            let v = view(ms(*now_ms), queue, &cores, *budget);
            let df = full.on_trigger(&v);
            let di = inc.on_trigger(&v);
            assert_eq!(df.assignments, di.assignments, "step {i}");
            assert_eq!(df.discarded, di.discarded, "step {i}");
            assert_eq!(df.plans.len(), di.plans.len(), "step {i}");
            for (c, (pf, pi)) in df.plans.iter().zip(&di.plans).enumerate() {
                let sf = pf.as_ref().map(|p| p.slices());
                let si = pi.as_ref().map(|p| p.slices());
                assert_eq!(sf, si, "step {i} core {c} plans diverge");
            }
            assert_eq!(df.ambient_speeds, di.ambient_speeds, "step {i}");
        }
    }

    #[test]
    fn incremental_reuses_bitwise_identical_plans() {
        let busy = |id, r, d, w, done| ReadyJob {
            job: Job::new(id, ms(r), ms(d), w).unwrap(),
            processed: done,
        };
        // A same-instant re-trigger (the Tier-A reuse case), an advance
        // where one core's state moved and the other's did not, and a
        // budget squeeze that engages water-filling with a starved core.
        let steps: Vec<Step> = vec![
            // t=0: deal two jobs across two cores (light: early exit).
            (
                0,
                vec![rj(0, 0, 150, 60.0), rj(1, 0, 150, 30.0)],
                vec![vec![], vec![]],
                40.0,
            ),
            // t=0 again, same instant, jobs now on cores: reuse legal.
            (
                0,
                vec![],
                vec![vec![rj(0, 0, 150, 60.0)], vec![rj(1, 0, 150, 30.0)]],
                40.0,
            ),
            // t=50: core 0 ran (sunk work moved), core 1 untouched.
            (
                50,
                vec![rj(2, 50, 200, 100.0)],
                vec![vec![busy(0, 0, 150, 60.0, 25.0)], vec![rj(1, 0, 150, 30.0)]],
                40.0,
            ),
            // t=60: tiny budget forces WF; the heavy core starves the
            // light one toward a zero/low grant.
            (
                60,
                vec![],
                vec![
                    vec![busy(0, 0, 150, 60.0, 25.0), rj(3, 0, 160, 500.0)],
                    vec![rj(1, 0, 150, 30.0)],
                ],
                6.0,
            ),
            // t=60 same instant re-trigger under WF: Tier-A reuse on the
            // granted branch.
            (
                60,
                vec![],
                vec![
                    vec![busy(0, 0, 150, 60.0, 25.0), rj(3, 0, 160, 500.0)],
                    vec![rj(1, 0, 150, 30.0)],
                ],
                6.0,
            ),
        ];
        assert_differential_equal(&steps);
    }

    #[test]
    fn incremental_plan_survives_job_list_reordering() {
        // The engine's `swap_remove` permutes per-core job lists without
        // changing the set; the ready index (and so the plan) must not
        // care. `busy: false` keeps the keep-plan rule out of the way so
        // the cache path itself is exercised.
        let a = rj(0, 0, 150, 60.0);
        let b = rj(1, 0, 180, 45.0);
        let c = rj(2, 0, 210, 30.0);
        let mut inc = DesPolicy::new();
        let order1 = vec![a, b, c];
        let cores1 = vec![CoreView {
            jobs: &order1,
            busy: false,
        }];
        let v1 = view(ms(10), &[], &cores1, 40.0);
        let d1 = inc.on_trigger(&v1);
        let order2 = vec![c, a, b];
        let cores2 = vec![CoreView {
            jobs: &order2,
            busy: false,
        }];
        let v2 = view(ms(10), &[], &cores2, 40.0);
        let d2 = inc.on_trigger(&v2);
        assert!(d1.plans[0].is_some());
        assert_eq!(
            d1.plans[0].as_ref().map(|p| p.slices()),
            d2.plans[0].as_ref().map(|p| p.slices()),
            "reordering the job list must not invalidate or change the plan"
        );
    }

    #[test]
    fn busy_core_on_free_streak_keeps_its_plan() {
        // Once a core is executing a budget-free plan and receives no
        // new work, re-triggering must keep the installed plan (`None`)
        // rather than recompute — in both recompute modes, since the
        // keep rule is part of the decision procedure.
        for mode in [RecomputeMode::Full, RecomputeMode::IncrementalQe] {
            let jobs = vec![rj(0, 0, 150, 60.0), rj(1, 0, 180, 45.0)];
            let mut p = DesPolicy::new().with_recompute(mode);
            let cores = vec![CoreView {
                jobs: &jobs,
                busy: true,
            }];
            let v1 = view(ms(10), &[], &cores, 40.0);
            let d1 = p.on_trigger(&v1);
            assert!(d1.plans[0].is_some(), "{mode:?}: first plan installed");
            let v2 = view(ms(20), &[], &cores, 40.0);
            let d2 = p.on_trigger(&v2);
            assert!(
                d2.plans[0].is_none(),
                "{mode:?}: clean busy core must keep its plan"
            );
            // An idle core (plan ran out) must recompute even on a streak.
            let idle = vec![CoreView {
                jobs: &jobs,
                busy: false,
            }];
            let v3 = view(ms(30), &[], &idle, 40.0);
            let d3 = p.on_trigger(&v3);
            assert!(
                d3.plans[0].is_some(),
                "{mode:?}: idle core must get a fresh plan"
            );
        }
    }
}
