//! The three workloads: how each one's inputs are generated from a seed,
//! how one untraced simulation run is made, and the checks every run's
//! outputs must pass.

use qes_cluster::{
    AdmissionPolicy, ClusterEngine, ClusterReport, FaultPlan, HedgePolicy, OverloadPolicy,
    RetryPolicy, RoutingPolicy,
};
use qes_core::power::PolynomialPower;
use qes_core::quality::ExpQuality;
use qes_core::time::{SimDuration, SimTime};
use qes_core::{JobSet, UNITS_PER_GHZ_SECOND};
use qes_multicore::{DesPolicy, SchedulingPolicy};
use qes_sim::{SimConfig, SimCounters, SimReport, Simulator};
use qes_workload::{DiurnalWorkload, WebSearchWorkload};

/// The paper's power model, `P = 5·s²` per core (§V-B).
pub const MODEL: PolynomialPower = PolynomialPower::PAPER_SIM;
/// The paper's quality function, `c = 0.003` (§V-B).
pub const QUALITY: ExpQuality = ExpQuality::PAPER_DEFAULT;

/// Cores and dynamic power budget of the paper's §V-B machine.
const PAPER_CORES: usize = 16;
const PAPER_BUDGET_W: f64 = 320.0;
/// Paper-default and top-of-sweep arrival rates (req/s).
const PAPER_RATE: f64 = 120.0;
const OVERLOAD_RATE: f64 = 250.0;

/// The protected cluster: four 8-core, 320 W shards.
const SHARDS: usize = 4;
const SHARD_CORES: usize = 8;
const SHARD_BUDGET_W: f64 = 320.0;
/// Host threads a run uses. The cluster's shards also run on one lane:
/// on a 2-vCPU host, two lanes made a run's throughput swing by more
/// than 20 % between runs of one seed.
pub const LANES: usize = 1;
/// Mean request demand of the paper's bounded-Pareto distribution, in
/// processing units; sizes the diurnal stream's mean rate.
const MEAN_DEMAND: f64 = 192.0;

/// One of the benchmark's named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The §V-B machine at the paper-default 120 req/s over 1800 s.
    DesPaper,
    /// The same machine at 250 req/s, the top of the paper's rate sweep.
    DesOverload,
    /// A diurnal stream on four faulty 8-core shards behind admission,
    /// retry budgets and hedging.
    ClusterProtected,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::DesPaper,
        Workload::DesOverload,
        Workload::ClusterProtected,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DesPaper => "des_paper",
            Workload::DesOverload => "des_overload",
            Workload::ClusterProtected => "cluster_protected",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How much this workload's run wall grows with the host probe's
    /// time under contention ([`crate::host`]): the slope of log wall on
    /// log probe time over runs of one seed on a 2-vCPU KVM guest,
    /// rounded down so that the correction does not overshoot.
    pub fn contention_sensitivity(self) -> f64 {
        match self {
            // Fitted 1.6 over 77 runs (correlation 0.92).
            Workload::DesPaper => 1.5,
            // Fitted 1.1 over 44 runs (correlation 0.81).
            Workload::DesOverload => 1.0,
            // Fitted 0.36 to 0.79 over three batches of 11 to 14 runs
            // (correlation 0.57 to 0.73): the stream and its copies are
            // memory-bound, which the probe does not measure.
            Workload::ClusterProtected => 0.4,
        }
    }

    /// Whether the workload runs the cluster front end.
    pub fn is_cluster(self) -> bool {
        self == Workload::ClusterProtected
    }
}

/// How much simulated work one run of a workload is.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Size {
    /// Simulated horizon of the `des_*` streams, in seconds.
    pub des_seconds: u64,
    /// Job count of the cluster stream.
    pub cluster_jobs: usize,
}

impl Size {
    /// The sizes the benchmark measures: the paper's 1800 s horizon and
    /// a 1M-job cluster stream.
    pub const FULL: Size = Size {
        des_seconds: 1800,
        cluster_jobs: 1_000_000,
    };
    /// A few-second smoke size for the benchmark's own tests.
    pub const TINY: Size = Size {
        des_seconds: 20,
        cluster_jobs: 20_000,
    };
}

/// A workload's generated inputs: everything up to the first simulation
/// call.
pub struct Prepared {
    pub workload: Workload,
    pub jobs: JobSet,
    pub end: SimTime,
    /// The cluster engine (routing, fault plan, overload stack); `None`
    /// for the single-machine workloads.
    pub engine: Option<ClusterEngine>,
    pub seed: u64,
    pub size: Size,
}

/// Generate the request stream of `w` from `seed`.
pub fn generate(w: Workload, seed: u64, size: Size) -> JobSet {
    let horizon = SimTime::from_secs(size.des_seconds);
    match w {
        Workload::DesPaper => WebSearchWorkload::new(PAPER_RATE)
            .with_horizon(horizon)
            .generate(seed),
        Workload::DesOverload => WebSearchWorkload::new(OVERLOAD_RATE)
            .with_horizon(horizon)
            .generate(seed),
        Workload::ClusterProtected => {
            // Mean rate sized for ~90 % utilization of all four shards
            // at the nominal 2 GHz, swinging ±50 % every 15 minutes.
            let per_shard = 0.9 * SHARD_CORES as f64 * 2.0 * UNITS_PER_GHZ_SECOND / MEAN_DEMAND;
            DiurnalWorkload::millions_of_users(per_shard * SHARDS as f64)
                .generate_exact(size.cluster_jobs, seed)
        }
    }
    .expect("the benchmark's workload parameters are valid")
}

/// The overload stack of `cluster_protected`: slack-floor admission
/// against the shard's sustainable 16 GHz (8 cores at the nominal 2 GHz
/// the 40 W/core budget allows), an exponential retry budget and
/// slack-fraction hedging.
pub fn protected_overload() -> OverloadPolicy {
    OverloadPolicy {
        admission: AdmissionPolicy::SlackFloor {
            floor: 0.05,
            capacity_ghz: 16.0,
        },
        retry: RetryPolicy::exponential(3, SimDuration::from_millis(5)),
        hedge: HedgePolicy::SlackFraction { fraction: 0.5 },
    }
}

/// The cluster engine of `cluster_protected` over a stream ending at
/// `end`: feedback routing, a fault plan sampled from `seed` (about one
/// 3 s outage per shard per 100 s, half of them crashes) and the
/// [`protected_overload`] stack.
pub fn protected_engine(end: SimTime, seed: u64) -> ClusterEngine {
    ClusterEngine::new(SHARDS)
        .with_routing(RoutingPolicy::Feedback)
        .with_fault_plan(FaultPlan::seeded(SHARDS, end, seed, 97.0, 3.0, 0.5))
        .with_overload(protected_overload())
}

/// Generate `w`'s inputs: the stream and, for the cluster, the fault
/// plan and engine. This is what `setup_s` times.
pub fn prepare(w: Workload, seed: u64, size: Size) -> Prepared {
    Prepared::from_jobs(w, generate(w, seed, size), seed, size)
}

impl Prepared {
    /// Complete `jobs`, the stream of `w` at `seed`, into runnable inputs
    /// (sampling the cluster's fault plan).
    pub fn from_jobs(w: Workload, jobs: JobSet, seed: u64, size: Size) -> Prepared {
        let (end, engine) = if w.is_cluster() {
            let end = jobs
                .last_deadline()
                .expect("the cluster stream is non-empty");
            (end, Some(protected_engine(end, seed)))
        } else {
            (SimTime::from_secs(size.des_seconds), None)
        };
        Prepared {
            workload: w,
            jobs,
            end,
            engine,
            seed,
            size,
        }
    }

    /// The simulated machine (one shard of the cluster).
    pub fn sim_config(&self) -> SimConfig<'static> {
        let (num_cores, budget) = if self.workload.is_cluster() {
            (SHARD_CORES, SHARD_BUDGET_W)
        } else {
            (PAPER_CORES, PAPER_BUDGET_W)
        };
        SimConfig {
            num_cores,
            budget,
            model: &MODEL,
            quality: &QUALITY,
            end: self.end,
            record_trace: false,
            overhead: SimDuration::ZERO,
        }
    }

    /// One untraced simulation run of the paper's DES policy.
    pub fn run(&self) -> Outcome {
        match &self.engine {
            None => {
                let mut policy = DesPolicy::new();
                let (report, _) = Simulator::run(&self.sim_config(), &mut policy, &self.jobs);
                Outcome::single(self.jobs.len(), &report)
            }
            Some(engine) => {
                let cfg = self.sim_config();
                let report = rayon::with_threads(LANES, || {
                    engine.run(&cfg, &self.jobs, |_| {
                        Box::new(DesPolicy::new()) as Box<dyn SchedulingPolicy>
                    })
                });
                Outcome::cluster(self.jobs.len(), &report)
            }
        }
    }
}

/// The simulated results of one run: what must repeat bit for bit
/// across runs, traced or not, and what the correctness checks read.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// Jobs in the generated stream.
    pub arrivals: u64,
    /// `normalized_quality()` of the machine, `degraded_quality()` of
    /// the cluster.
    pub quality: f64,
    /// Simulated dynamic energy (J).
    pub energy_j: f64,
    /// The (merged) engine counters.
    pub counters: SimCounters,
    pub max_quality: f64,
    pub dropped: u64,
    pub rejected: u64,
    pub retried: u64,
    pub hedged: u64,
    pub hedges_won: u64,
    /// Job copies the shards simulated, before duel settlement.
    pub copies: u64,
}

impl Outcome {
    pub(crate) fn single(arrivals: usize, r: &SimReport) -> Outcome {
        Outcome {
            arrivals: arrivals as u64,
            quality: r.normalized_quality(),
            energy_j: r.energy_joules,
            counters: r.counters.clone(),
            max_quality: r.max_quality,
            dropped: 0,
            rejected: 0,
            retried: 0,
            hedged: 0,
            hedges_won: 0,
            copies: r.jobs_total() as u64,
        }
    }

    pub(crate) fn cluster(arrivals: usize, r: &ClusterReport) -> Outcome {
        Outcome {
            arrivals: arrivals as u64,
            quality: r.degraded_quality(),
            energy_j: r.merged.energy_joules,
            counters: r.merged.counters.clone(),
            max_quality: r.merged.max_quality,
            dropped: r.jobs_dropped,
            rejected: r.jobs_rejected,
            retried: r.jobs_retried,
            hedged: r.jobs_hedged,
            hedges_won: r.hedges_won,
            copies: r.shards.iter().map(|s| s.report.jobs_total() as u64).sum(),
        }
    }

    /// Bit-exact equality, so `-0.0 ≠ 0.0` and NaN equals itself.
    pub fn same_bits(&self, other: &Outcome) -> bool {
        let ints = |o: &Outcome| {
            (
                o.arrivals,
                o.dropped,
                o.rejected,
                o.retried,
                o.hedged,
                o.hedges_won,
                o.copies,
            )
        };
        let floats = |o: &Outcome| [o.quality, o.energy_j, o.max_quality].map(f64::to_bits);
        ints(self) == ints(other)
            && floats(self) == floats(other)
            && self.counters == other.counters
    }

    /// The checks every run must pass, plus the published seed-42
    /// fingerprint at full size.
    pub fn check(&self, p: &Prepared) -> Result<(), String> {
        let c = &self.counters;
        if c.jobs_total as u64 + self.dropped + self.rejected != self.arrivals {
            return Err(format!(
                "conservation: {} simulated + {} dropped + {} rejected != {} arrivals",
                c.jobs_total, self.dropped, self.rejected, self.arrivals
            ));
        }
        if c.jobs_satisfied + c.jobs_partial + c.jobs_zero != c.jobs_total {
            return Err(format!("job classes do not sum to jobs_total: {c:?}"));
        }
        if !(self.quality > 0.0 && self.quality <= 1.0) {
            return Err(format!("quality {} outside (0, 1]", self.quality));
        }
        if !(self.energy_j.is_finite() && self.energy_j > 0.0) {
            return Err(format!("energy {} not positive and finite", self.energy_j));
        }
        if self.copies < c.jobs_total as u64 || self.hedges_won > self.hedged {
            return Err(format!(
                "hedge accounting: {} copies for {} jobs, {} of {} hedges won",
                self.copies, c.jobs_total, self.hedges_won, self.hedged
            ));
        }
        if p.seed == REFERENCE_SEED && p.size == Size::FULL {
            let (q, e) = reference(p.workload);
            if self.quality.to_bits() != q.to_bits() || self.energy_j.to_bits() != e.to_bits() {
                return Err(format!(
                    "seed {REFERENCE_SEED} fingerprint: quality {:?} energy {:?}, expected {q:?} {e:?}",
                    self.quality, self.energy_j
                ));
            }
        }
        Ok(())
    }
}

/// The seed whose results are pinned.
pub const REFERENCE_SEED: u64 = 42;

/// `(quality, energy_j)` of each workload at [`REFERENCE_SEED`] and full
/// size, to the bit.
fn reference(w: Workload) -> (f64, f64) {
    match w {
        Workload::DesPaper => (0.9953757689472178, 362323.5810600694),
        Workload::DesOverload => (0.7490913429807065, 575736.1486106319),
        Workload::ClusterProtected => (0.7999251870191162, 3586615.656285232),
    }
}
