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
//!    the budget — done. The request is read in closed form (the maximum
//!    prefix density), and a schedule is built only on this early exit:
//!    with one common release, Energy-OPT is a sequence of critical
//!    prefixes of the deadline-ordered jobs, which
//!    [`energy_opt_common_release`] solves straight off the core's ready
//!    index.
//! 3. **Dynamic-power-distribution** — otherwise water-fill the budget
//!    over the requests.
//! 4. **Budget-bounded-independent-core-scheduling** — per core, run
//!    Online-QE under the granted power, again straight off the core's
//!    ready index ([`QeSolver::solve_sorted`]).
//!
//! [`ArchKind`] selects the §V-A degradations (No-DVFS, S-DVFS), and an
//! optional [`DiscreteSpeedSet`] enables the §V-F discrete-speed variant.
//! Every variant reads the same per-core ready index, refreshed at the
//! top of each invocation; the general solvers ([`energy_opt`],
//! [`QeSolver::solve`]) are the oracles debug builds re-run against it
//! on every invocation.

use qes_core::job::JobId;
#[cfg(debug_assertions)]
use qes_core::job::{Job, JobSet};
use qes_core::power::DiscreteSpeedSet;
use qes_core::schedule::CoreSchedule;
#[cfg(debug_assertions)]
use qes_singlecore::energy_opt::energy_opt;
use qes_singlecore::energy_opt::energy_opt_common_release;
use qes_singlecore::online_qe::{OnlineMode, QeSolver, ReadyJob};

use crate::arch::{fixed_speed_plan, ArchKind};
use crate::crr::CrrDistributor;
use crate::discrete::{rectify_speeds, snap_plan_up};
use crate::policy::{PolicyDecision, SchedulingPolicy, SystemView, TriggerRequest};
use crate::water_filling::water_filling_with_rounds;

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

/// Per-core ready index: the live job set in canonical (deadline, id)
/// order with left-to-right prefix sums of remaining demand, updated by
/// suffix diff each invocation. It is DES's only per-core input, for
/// every architecture: the power probe, the budget-free and
/// budget-bounded solves and the fixed-speed plans all read it.
///
/// The prefix sums resume from the first diverging position, which is
/// bit-identical to re-summing from the left — so everything derived
/// from them matches a from-scratch computation exactly. Debug builds
/// check the index against a freshly sorted live set, and the probe
/// against the sorting reference `DesPolicy::probe_request`, on every
/// invocation.
#[derive(Clone, Debug, Default)]
struct CoreQe {
    /// Live jobs, (deadline, id)-sorted — the order Online-QE itself
    /// canonicalizes to, so every plan is a function of the job set.
    jobs: Vec<ReadyJob>,
    /// `cum[i]` = Σ remaining demand of `jobs[..=i]`, summed left to
    /// right.
    cum: Vec<f64>,
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
            a.job == b.job && a.processed.to_bits() == b.processed.to_bits()
        };
        let mut p = 0;
        while p < self.jobs.len() && p < scratch.len() && same(&self.jobs[p], &scratch[p]) {
            p += 1;
        }
        if p == self.jobs.len() && p == scratch.len() {
            return;
        }
        self.jobs.truncate(p);
        self.jobs.extend_from_slice(&scratch[p..]);
        self.cum.truncate(p);
        let mut acc = if p == 0 { 0.0 } else { self.cum[p - 1] };
        for r in &self.jobs[p..] {
            acc += r.remaining();
            self.cum.push(acc);
        }
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
    /// Fresh budget-free Energy-OPT materializations.
    free_solves: u64,
    /// Fresh budget-bounded Online-QE solves.
    qe_solves: u64,
    /// Jobs the §V-D discard loop abandoned.
    discards: u64,
    /// Water-filling peel/level passes.
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
    /// Per core: every plan installed since the core's last
    /// budget-bounded (or discrete) recomputation came from the step-2
    /// early exit. Part of the *decision procedure*, not a cache: it
    /// licenses the keep-plan rule in `on_trigger`.
    free_streak: Vec<bool>,
    /// Per-core ready indexes, refreshed at the top of every invocation.
    core_qe: Vec<CoreQe>,
    /// Sort buffer for [`CoreQe::update`].
    sort_scratch: Vec<ReadyJob>,
    /// Step-2 power request per core, kept across invocations.
    requests: Vec<f64>,
    /// Step-3 grant per core, kept across invocations.
    grants: Vec<f64>,
    /// Water-filling's outstanding-request scratch.
    wf_rest: Vec<f64>,
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
            free_streak: Vec::new(),
            core_qe: Vec::new(),
            sort_scratch: Vec::new(),
            requests: Vec::new(),
            grants: Vec::new(),
            wf_rest: Vec::new(),
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

    /// The architecture this instance runs on.
    pub fn arch(&self) -> ArchKind {
        self.arch
    }

    /// Step 3: distribute the budget over `self.requests` per the
    /// configured policy, into `self.grants`.
    fn distribute_power(&mut self, budget: f64) {
        match self.power_sharing {
            PowerSharing::WaterFilling => {
                let rounds = water_filling_with_rounds(
                    &self.requests,
                    budget,
                    &mut self.grants,
                    &mut self.wf_rest,
                );
                self.stats.wf_levelings += 1;
                self.stats.wf_rounds += rounds;
            }
            PowerSharing::StaticEqual => {
                let m = self.requests.len();
                self.grants.clear();
                self.grants.resize(m, budget / m as f64);
            }
        }
    }

    /// Step 2's power request in closed form. With every job re-released
    /// at `now`, the unconstrained YDS profile is non-increasing, so its
    /// initial (peak) speed — the probe value `P_i(t)` — is the maximum
    /// prefix density over deadline-ordered jobs. This replaces a full
    /// Energy-OPT solve per core per invocation; the schedule itself is
    /// only materialized on the early-exit branch. DES reads the same
    /// quantity off its ready index ([`Self::probe_from_index`]); this
    /// sorting form is the reference that debug builds and tests check
    /// it against.
    #[cfg(any(test, debug_assertions))]
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

    /// `probe_request` read off a core's ready index: the jobs
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
    /// remaining demands (the sunk work needs no future power), solved
    /// straight off the core's ready index. Its jobs are already live and
    /// (deadline, id)-sorted, which is the common-release fast path's
    /// input, so nothing is copied. The fast path repeats the general
    /// solver's float operations, so the plan is bit-identical; debug
    /// builds re-solve with the general [`energy_opt`] and check.
    fn free_schedule_from_index(view: &SystemView<'_>, cq: &CoreQe) -> CoreSchedule {
        let plan = energy_opt_common_release(view.now, &cq.jobs, |r| {
            (r.job.id, r.job.deadline, r.remaining())
        });
        #[cfg(debug_assertions)]
        {
            let jobs: Vec<Job> = cq
                .jobs
                .iter()
                .map(|r| Job {
                    release: view.now,
                    demand: r.remaining(),
                    ..r.job
                })
                .collect();
            debug_assert_eq!(
                slice_bits(&plan),
                slice_bits(&energy_opt(&JobSet::new_unchecked(jobs)).schedule),
                "common-release Energy-OPT diverged from the general solver"
            );
        }
        plan
    }

    /// Step 4 (and the §V-F ladder's solve) for one core, straight off
    /// its ready index with [`QeSolver::solve_sorted`]: the index is
    /// exactly the live, sorted list [`QeSolver::solve`] would build, so
    /// the plan and discards are bit-identical; debug builds re-solve
    /// with `solve` and check.
    fn granted_schedule_from_index(
        view: &SystemView<'_>,
        cq: &mut CoreQe,
        grant: f64,
        mode: OnlineMode,
    ) -> (CoreSchedule, Vec<JobId>) {
        let CoreQe { jobs, solver, .. } = cq;
        let (plan, discarded) = solver.solve_sorted(view.now, jobs, view.model, grant, mode);
        #[cfg(debug_assertions)]
        {
            let reference = solver.solve(view.now, jobs, view.model, grant, mode);
            debug_assert_eq!(
                slice_bits(&plan),
                slice_bits(&reference.schedule),
                "sorted-index Online-QE diverged from the general solve"
            );
            debug_assert_eq!(
                discarded, reference.discarded,
                "sorted-index Online-QE discarded different jobs"
            );
        }
        (plan, discarded)
    }
}

/// Every slice's job, endpoints and speed bits: what the debug
/// cross-checks and the warm-vs-cold index tests compare.
#[cfg(any(test, debug_assertions))]
fn slice_bits(p: &CoreSchedule) -> Vec<(JobId, u64, u64, u64)> {
    p.slices()
        .iter()
        .map(|s| {
            (
                s.job,
                s.start.as_micros(),
                s.end.as_micros(),
                s.speed.to_bits(),
            )
        })
        .collect()
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
        // Newly dealt jobs, kept apart from the *borrowed* core views;
        // the keep rule below also reads which cores received any.
        let mut extra: Vec<Vec<ReadyJob>> = vec![Vec::new(); m];
        for (r, &core) in live_queue.iter().zip(&dealt) {
            assignments.push((r.job.id, core));
            extra[core].push(**r);
        }
        self.stats.jobs_dealt += assignments.len() as u64;
        // One core's live set (current jobs + newly dealt), borrowed.
        let live_iter = |c: usize| view.cores[c].live_jobs(now).chain(extra[c].iter().copied());
        // Refresh every core's ready index up front: every architecture's
        // probe and plans below read it.
        if self.core_qe.len() != m {
            self.core_qe = std::iter::repeat_with(CoreQe::default).take(m).collect();
        }
        for (c, cq) in self.core_qe.iter_mut().enumerate() {
            cq.update(live_iter(c), &mut self.sort_scratch);
        }
        #[cfg(debug_assertions)]
        for (c, cq) in self.core_qe.iter().enumerate() {
            let mut live: Vec<ReadyJob> = live_iter(c).collect();
            live.sort_unstable_by_key(|r| (r.job.deadline, r.job.id));
            let key = |r: &ReadyJob| (r.job, r.processed.to_bits());
            debug_assert_eq!(
                cq.jobs.iter().map(key).collect::<Vec<_>>(),
                live.iter().map(key).collect::<Vec<_>>(),
                "core {c}: ready index diverged from the sorted live set"
            );
            debug_assert_eq!(
                Self::probe_from_index(view, cq).to_bits(),
                Self::probe_request(view, live_iter(c)).to_bits(),
                "core {c}: indexed probe diverged from the sorting probe"
            );
        }

        let mut plans: Vec<Option<CoreSchedule>> = Vec::with_capacity(m);
        let mut discarded: Vec<JobId> = Vec::new();
        let mut ambient = vec![0.0; m];

        match self.arch {
            ArchKind::NoDvfs | ArchKind::SDvfs => {
                // No-DVFS: a fixed speed funded by the static equal share.
                // S-DVFS: one shared clock at the maximum request, clamped
                // by the equal share (WF over identical requests).
                let share = view.budget / m as f64;
                let power = match self.arch {
                    ArchKind::SDvfs => self
                        .core_qe
                        .iter()
                        .map(|cq| Self::probe_from_index(view, cq))
                        .fold(0.0, f64::max)
                        .min(share),
                    _ => share,
                };
                let speed = view.model.speed_for_dynamic_power(power);
                for cq in &self.core_qe {
                    let (plan, disc) = fixed_speed_plan(now, &cq.jobs, speed);
                    plans.push(Some(plan));
                    discarded.extend(disc);
                }
                // Neither can scale an idle core down: it draws the
                // fixed or shared clock too.
                ambient = vec![speed; m];
            }
            ArchKind::CDvfs => {
                if self.free_streak.len() != m {
                    self.free_streak = vec![false; m];
                }
                // Requests depend on `now`, so they are recomputed every
                // invocation — but via the closed form off the stored
                // prefix sums, not a YDS solve.
                self.requests.clear();
                self.requests.extend(
                    self.core_qe
                        .iter()
                        .map(|cq| Self::probe_from_index(view, cq)),
                );
                let total: f64 = self.requests.iter().sum();
                // Only the budget-bound paths read the grants.
                if self.discrete.is_some() || total > view.budget {
                    self.distribute_power(view.budget);
                }
                match &self.discrete {
                    None if total <= view.budget => {
                        // Step 2 early exit: the unconstrained schedules
                        // already fit the budget and complete every job.
                        self.stats.free_exits += 1;
                        for (c, dealt) in extra.iter().enumerate() {
                            // Keep rule — part of the decision procedure,
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
                            if self.core_qe[c].jobs.is_empty() {
                                // No live work: Energy-OPT over nothing.
                                plans.push(Some(CoreSchedule::default()));
                                continue;
                            }
                            self.stats.free_solves += 1;
                            plans
                                .push(Some(Self::free_schedule_from_index(view, &self.core_qe[c])));
                        }
                    }
                    None => {
                        // Steps 3–4: distribute power, then Online-QE per
                        // core. The budget binds here, so the grant is
                        // spent eagerly by default (see `OnlineMode`).
                        self.stats.budget_bound += 1;
                        for (c, cq) in self.core_qe.iter_mut().enumerate() {
                            let grant = self.grants[c];
                            self.free_streak[c] = false;
                            if cq.jobs.is_empty() || grant <= 0.0 {
                                // Nothing live, or a zero grant (s* = 0):
                                // Online-QE returns an empty plan and no
                                // discards without looking at the jobs.
                                plans.push(Some(CoreSchedule::default()));
                                continue;
                            }
                            self.stats.qe_solves += 1;
                            let (plan, disc) =
                                Self::granted_schedule_from_index(view, cq, grant, self.mode);
                            discarded.extend(disc);
                            plans.push(Some(plan));
                        }
                    }
                    Some(set) => {
                        // §V-F: always rectify the WF grants to discrete
                        // speeds, then Online-QE under the rectified power
                        // with slice speeds snapped onto the ladder. Every
                        // core is solved, empty or not.
                        self.free_streak.fill(false);
                        let speeds = rectify_speeds(&self.grants, set, view.model, view.budget);
                        for (cq, &cap) in self.core_qe.iter_mut().zip(&speeds) {
                            self.stats.qe_solves += 1;
                            let grant = view.model.dynamic_power(cap);
                            let (plan, disc) =
                                Self::granted_schedule_from_index(view, cq, grant, self.mode);
                            discarded.extend(disc);
                            plans.push(Some(snap_plan_up(&plan, set)));
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
        sink("des.free_solve", s.free_solves);
        sink("des.qe_solve", s.qe_solves);
        sink("des.discards", s.discards);
        sink("des.wf_levelings", s.wf_levelings);
        sink("des.wf_rounds", s.wf_rounds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::CoreView;
    use qes_core::job::{Job, JobSet};
    use qes_core::power::{PolynomialPower, PowerModel};
    use qes_core::time::SimTime;
    use qes_singlecore::energy_opt::energy_opt;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
    }

    #[test]
    fn closed_form_probe_matches_energy_opt_initial_speed() {
        // The probe request must equal the power at the YDS initial speed
        // of the re-released job set — the quantity `budget_free_probe`
        // used to extract from a full Energy-OPT solve.
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

    /// Run `des` on `v`, and a clone of it whose ready indexes were
    /// dropped on the same view, and require bitwise-equal decisions:
    /// assignments, plan slices, discards and ambient speeds. The warm
    /// index is resumed by suffix diff; the cold one is rebuilt from
    /// nothing. Returns the warm policy's decision.
    fn decide_against_cold_index(
        des: &mut DesPolicy,
        v: &SystemView<'_>,
        ctx: &str,
    ) -> PolicyDecision {
        let mut cold = des.clone();
        cold.core_qe.clear();
        let dw = des.on_trigger(v);
        let dc = cold.on_trigger(v);
        assert_eq!(dw.assignments, dc.assignments, "{ctx}: assignments");
        let plans = |d: &PolicyDecision| -> Vec<_> {
            d.plans.iter().map(|p| p.as_ref().map(slice_bits)).collect()
        };
        assert_eq!(plans(&dw), plans(&dc), "{ctx}: plans");
        assert_eq!(dw.discarded, dc.discarded, "{ctx}: discards");
        let ambient = |d: &PolicyDecision| -> Vec<u64> {
            d.ambient_speeds.iter().map(|s| s.to_bits()).collect()
        };
        assert_eq!(ambient(&dw), ambient(&dc), "{ctx}: ambient speeds");
        dw
    }

    /// One scripted step: `(now ms, waiting queue, per-core jobs,
    /// budget)`, with every core idle.
    type Step = (u64, Vec<ReadyJob>, Vec<Vec<ReadyJob>>, f64);

    /// Drive C-DVFS DES through `steps`, checking every decision against
    /// a cold index. Returns the decisions.
    fn run_against_cold_index(steps: &[Step]) -> Vec<PolicyDecision> {
        let mut des = DesPolicy::new();
        steps
            .iter()
            .enumerate()
            .map(|(i, (now_ms, queue, core_jobs, budget))| {
                let cores: Vec<CoreView<'_>> = core_jobs
                    .iter()
                    .map(|j| CoreView {
                        jobs: j,
                        busy: false,
                    })
                    .collect();
                let v = view(ms(*now_ms), queue, &cores, *budget);
                decide_against_cold_index(&mut des, &v, &format!("step {i}"))
            })
            .collect()
    }

    #[test]
    fn same_instant_retriggers_match_a_cold_index() {
        let busy = |id, r, d, w, done| ReadyJob {
            job: Job::new(id, ms(r), ms(d), w).unwrap(),
            processed: done,
        };
        // Same-instant re-triggers on both the budget-free and the
        // budget-bound branch, an advance where one core's state moved
        // and the other's did not, and a budget squeeze that engages
        // water-filling with a starved core. Every step re-solves.
        let steps: Vec<Step> = vec![
            // t=0: deal two jobs across two cores (light: early exit).
            (
                0,
                vec![rj(0, 0, 150, 60.0), rj(1, 0, 150, 30.0)],
                vec![vec![], vec![]],
                40.0,
            ),
            // t=0 again, same instant, jobs now on cores.
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
            // t=60 same instant re-trigger under WF.
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
        let d = run_against_cold_index(&steps);
        // A re-trigger with nothing changed re-derives the same plans.
        for (a, b) in [(0, 1), (3, 4)] {
            let slices = |i: usize| -> Vec<_> {
                d[i].plans
                    .iter()
                    .map(|p| p.as_ref().map(|p| p.slices()))
                    .collect()
            };
            assert_eq!(slices(a), slices(b), "steps {a} and {b}");
        }
    }

    #[test]
    fn permuted_job_lists_match_a_cold_index() {
        // The engine's `swap_remove` permutes per-core job lists without
        // changing the set; neither the ready index nor the plan may
        // care. `busy: false` keeps the keep-plan rule out of the way so
        // every step solves, on the budget-free branch (40 W) and the
        // budget-bound one (1 W against a 2.3 W request).
        let a = rj(0, 0, 150, 60.0);
        let b = rj(1, 0, 180, 45.0);
        let c = rj(2, 0, 210, 30.0);
        let steps: Vec<Step> = vec![
            (10, vec![], vec![vec![a, b, c]], 40.0),
            (10, vec![], vec![vec![c, a, b]], 40.0),
            (10, vec![], vec![vec![b, c, a]], 1.0),
            (10, vec![], vec![vec![a, c, b]], 1.0),
        ];
        let d = run_against_cold_index(&steps);
        for (x, y) in [(0, 1), (2, 3)] {
            assert!(d[x].plans[0].is_some());
            assert_eq!(
                d[x].plans[0].as_ref().map(|p| p.slices()),
                d[y].plans[0].as_ref().map(|p| p.slices()),
                "reordering the job list must not change the plan"
            );
        }
    }

    /// Uniform draw from `0..n`.
    fn below(rng: &mut StdRng, n: u64) -> u64 {
        rng.gen::<u64>() % n
    }

    /// One random trigger sequence on `m` cores: waiting jobs arrive,
    /// dealt jobs join their core's list, sunk work grows (sometimes to
    /// completion), lists are permuted and cores flip between busy and
    /// idle. Times repeat (same-instant re-triggers) or advance by as
    /// little as 1 µs, deadlines can sit 1 µs after `now`, some jobs are
    /// non-partial, and budgets range from zero to ample. Every decision
    /// is checked against a cold index.
    fn drive_random_sequence(des: &mut DesPolicy, rng: &mut StdRng, ctx: &str) {
        let m = 1 + below(rng, 4) as usize;
        let mut core_jobs: Vec<Vec<ReadyJob>> = vec![Vec::new(); m];
        let mut now_us = below(rng, 1_000_000);
        let mut next_id = 0u32;
        for step in 0..12 {
            if step > 0 && !rng.gen_bool(0.3) {
                now_us += 1 + below(rng, 60_000);
            }
            let now = SimTime::from_micros(now_us);
            let mut queue = Vec::new();
            for _ in 0..below(rng, 4) {
                let window = match below(rng, 4) {
                    0 => 1,
                    _ => 1 + below(rng, 300_000),
                };
                let demand = match below(rng, 10) {
                    0 => 0.0,
                    _ => 0.5 + 300.0 * rng.gen::<f64>(),
                };
                let job = Job::with_partial(
                    next_id,
                    now,
                    SimTime::from_micros(now_us + window),
                    demand,
                    rng.gen_bool(0.7),
                )
                .unwrap();
                next_id += 1;
                let processed = if rng.gen_bool(0.2) {
                    demand * rng.gen::<f64>()
                } else {
                    0.0
                };
                queue.push(ReadyJob { job, processed });
            }
            let budget = match below(rng, 4) {
                0 => 0.0,
                1 => 5.0 * rng.gen::<f64>(),
                2 => 5.0 + 60.0 * rng.gen::<f64>(),
                _ => 1_000.0,
            };
            let busy: Vec<bool> = (0..m).map(|_| rng.gen_bool(0.5)).collect();
            let cores: Vec<CoreView<'_>> = core_jobs
                .iter()
                .zip(&busy)
                .map(|(jobs, &busy)| CoreView { jobs, busy })
                .collect();
            let v = view(now, &queue, &cores, budget);
            let d = decide_against_cold_index(des, &v, &format!("{ctx} step {step}"));

            // Dealt jobs join their cores; discarded ones leave.
            for &(id, c) in &d.assignments {
                let r = queue.iter().find(|r| r.job.id == id).unwrap();
                core_jobs[c].push(*r);
            }
            for jobs in &mut core_jobs {
                jobs.retain(|r| !d.discarded.contains(&r.job.id));
                // Expired and finished jobs usually settle; some linger
                // so the live filter stays exercised.
                jobs.retain(|r| {
                    (r.job.deadline > now && r.remaining() > 1e-9) || rng.gen_bool(0.2)
                });
                for r in jobs.iter_mut() {
                    match below(rng, 4) {
                        0 => r.processed = r.job.demand,
                        1 => r.processed += r.remaining() * rng.gen::<f64>(),
                        _ => {}
                    }
                }
                // Fisher–Yates, like the engine's `swap_remove` churn.
                for i in (1..jobs.len()).rev() {
                    jobs.swap(i, below(rng, i as u64 + 1) as usize);
                }
            }
        }
    }

    #[test]
    fn warm_index_matches_a_cold_index_for_every_variant() {
        let variants = [
            DesPolicy::new(),
            DesPolicy::new().with_mode(OnlineMode::Efficient),
            DesPolicy::on_arch(ArchKind::SDvfs),
            DesPolicy::on_arch(ArchKind::NoDvfs),
            DesPolicy::with_discrete(crate::discrete::default_ladder(&MODEL)),
            DesPolicy::new().with_job_sharing(JobSharing::RestartRr),
            DesPolicy::new().with_power_sharing(PowerSharing::StaticEqual),
        ];
        let mut totals = DesStats::default();
        for case in 0..256u64 {
            for base in &variants {
                let mut des = base.clone();
                let mut rng = StdRng::seed_from_u64(case);
                let ctx = format!("case {case} {}", des.name());
                drive_random_sequence(&mut des, &mut rng, &ctx);
                let s = &des.stats;
                totals.free_solves += s.free_solves;
                totals.keeps += s.keeps;
                totals.qe_solves += s.qe_solves;
                totals.discards += s.discards;
            }
        }
        // The sequences reach every branch the index feeds.
        assert!(totals.free_solves > 0, "no budget-free solve");
        assert!(totals.keeps > 0, "no kept plan");
        assert!(totals.qe_solves > 0, "no budget-bound solve");
        assert!(totals.discards > 0, "no discard");
    }

    #[test]
    fn busy_core_on_free_streak_keeps_its_plan() {
        // Once a core is executing a budget-free plan and receives no
        // new work, re-triggering must keep the installed plan (`None`)
        // rather than recompute.
        let jobs = vec![rj(0, 0, 150, 60.0), rj(1, 0, 180, 45.0)];
        let mut p = DesPolicy::new();
        let cores = vec![CoreView {
            jobs: &jobs,
            busy: true,
        }];
        let v1 = view(ms(10), &[], &cores, 40.0);
        let d1 = p.on_trigger(&v1);
        assert!(d1.plans[0].is_some(), "first plan installed");
        let v2 = view(ms(20), &[], &cores, 40.0);
        let d2 = p.on_trigger(&v2);
        assert!(d2.plans[0].is_none(), "clean busy core must keep its plan");
        // An idle core (plan ran out) must recompute even on a streak.
        let idle = vec![CoreView {
            jobs: &jobs,
            busy: false,
        }];
        let v3 = view(ms(30), &[], &idle, 40.0);
        let d3 = p.on_trigger(&v3);
        assert!(d3.plans[0].is_some(), "idle core must get a fresh plan");
    }
}
