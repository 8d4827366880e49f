//! The traced run: wall time attributed to each layer by timing calls
//! into the layers' public functions from here, outside the crates.
//!
//! * the policy boundary is a [`TimedPolicy`] wrapped around
//!   `DesPolicy`, timing every `on_trigger` call;
//! * engine events are counted by a [`CountingObserver`] on the engine's
//!   passive observer hook;
//! * the cluster's dispatch pre-pass is timed by calling
//!   `dispatch_protected` with the engine's arguments, and inside
//!   `ClusterEngine::run` by the gap from entry to the first
//!   `make_policy` call;
//! * each shard's span runs from its first `make_policy(i)` call to the
//!   drop of its last policy; the merge from the last shard's end to the
//!   return of `run`.
//!
//! Spans and per-call samples stay in memory until the run ends.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use qes_cluster::dispatch_protected;
use qes_core::obs::{Event, Observer};
use qes_core::time::SimTime;
use qes_multicore::{DesPolicy, PolicyDecision, SchedulingPolicy, SystemView, TriggerRequest};
use qes_sim::Simulator;

use crate::workload::{protected_overload, Outcome, Prepared, LANES, QUALITY};

/// One timed interval, in nanoseconds since the recorder's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The enclosing span's name (`None` for a root).
    pub parent: Option<&'static str>,
    /// Shard index, for per-shard spans.
    pub shard: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Default)]
struct Log {
    spans: Vec<Span>,
    /// Wall time of every policy decision, in nanoseconds.
    decide_ns: Vec<u64>,
    /// `SchedulingPolicy::metrics` counters summed over policy instances.
    counters: BTreeMap<&'static str, u64>,
    /// Per shard: first policy creation and last policy drop.
    shard_life: BTreeMap<usize, (u64, u64)>,
}

/// In-memory span and sample store shared by every timed policy.
pub struct Recorder {
    origin: Instant,
    log: Mutex<Log>,
}

impl Recorder {
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            origin: Instant::now(),
            log: Mutex::default(),
        })
    }

    /// Nanoseconds since the recorder's origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn log(&self) -> std::sync::MutexGuard<'_, Log> {
        // A poisoned log only means a timed policy panicked mid-run; the
        // run is then reported failed, so the partial log is harmless.
        self.log.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record a finished span.
    pub fn span(&self, name: &'static str, parent: Option<&'static str>, start_ns: u64) {
        let end_ns = self.now();
        self.log().spans.push(Span {
            name,
            parent,
            shard: None,
            start_ns,
            end_ns,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.log().spans.clone()
    }
}

/// `DesPolicy` behind a stopwatch: every decision is timed, and on drop
/// the instance's call times, counters and lifetime go to the recorder.
pub struct TimedPolicy {
    inner: DesPolicy,
    shard: usize,
    born_ns: u64,
    decide_ns: Vec<u64>,
    rec: Arc<Recorder>,
}

impl TimedPolicy {
    pub fn new(shard: usize, rec: &Arc<Recorder>) -> TimedPolicy {
        TimedPolicy {
            inner: DesPolicy::new(),
            shard,
            born_ns: rec.now(),
            decide_ns: Vec::new(),
            rec: Arc::clone(rec),
        }
    }
}

impl SchedulingPolicy for TimedPolicy {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn triggers(&self) -> TriggerRequest {
        self.inner.triggers()
    }

    fn on_trigger(&mut self, view: &SystemView<'_>) -> PolicyDecision {
        let t = Instant::now();
        let d = self.inner.on_trigger(view);
        self.decide_ns.push(t.elapsed().as_nanos() as u64);
        d
    }

    fn metrics(&self, sink: &mut dyn FnMut(&'static str, u64)) {
        self.inner.metrics(sink)
    }
}

impl Drop for TimedPolicy {
    fn drop(&mut self) {
        let end = self.rec.now();
        let mut log = self.rec.log();
        log.decide_ns.append(&mut self.decide_ns);
        let counters = &mut log.counters;
        self.inner
            .metrics(&mut |name, v| *counters.entry(name).or_default() += v);
        let life = log
            .shard_life
            .entry(self.shard)
            .or_insert((self.born_ns, end));
        life.0 = life.0.min(self.born_ns);
        life.1 = life.1.max(end);
    }
}

/// Counts the engine's heap dequeues (deadline, plan-end and quantum
/// events) on the passive observer hook.
#[derive(Default)]
pub struct CountingObserver {
    pub dequeues: u64,
}

impl Observer for CountingObserver {
    const ENABLED: bool = true;

    fn record(&mut self, _at: SimTime, event: Event) {
        if let Event::Dequeue { .. } = event {
            self.dequeues += 1;
        }
    }
}

/// A traced run's result: the simulated outcome (which must equal the
/// untraced one bit for bit) and the per-layer readings.
pub struct Traced {
    pub outcome: Outcome,
    /// Wall time of the simulation call.
    pub wall_s: f64,
    pub layers: Layers,
}

/// Per-layer readings of one traced run. Cluster-only fields stay zero
/// on the single-machine workloads, whose runs never reach that layer.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub dispatch_busy_s: f64,
    pub dispatch_in_run_s: f64,
    pub duels: u64,
    pub shard_spans_s: Vec<f64>,
    pub shard_phase_s: f64,
    pub merge_s: f64,
    /// Simulation time summed over shards (the single machine's run wall).
    pub sim_s: f64,
    pub events: u64,
    pub decide_ns: Vec<u64>,
    pub counters: BTreeMap<&'static str, u64>,
}

/// One traced run of `p`, recording spans into `rec`.
pub fn traced_run(p: &Prepared, rec: &Arc<Recorder>) -> Traced {
    let cfg = p.sim_config();
    let mut layers = Layers::default();
    let root = rec.now();
    let (outcome, wall_s) = match &p.engine {
        None => {
            let mut policy = TimedPolicy::new(0, rec);
            let mut obs = CountingObserver::default();
            let start = rec.now();
            let t = Instant::now();
            let (report, _) = Simulator::run_observed(&cfg, &mut policy, &p.jobs, &mut obs);
            let wall = t.elapsed().as_secs_f64();
            rec.span("simulator.run", Some("traced_run"), start);
            drop(policy);
            layers.events = obs.dequeues;
            layers.sim_s = wall;
            (Outcome::single(p.jobs.len(), &report), wall)
        }
        Some(engine) => {
            // The pre-pass on its own, with exactly the engine's arguments.
            let t = rec.now();
            let plan = dispatch_protected(
                &p.jobs,
                engine.shards(),
                engine.routing(),
                cfg.model,
                &QUALITY,
                engine.fault_plan(),
                &protected_overload(),
                cfg.end,
            );
            rec.span("dispatch", Some("traced_run"), t);
            layers.dispatch_busy_s = (rec.now() - t) as f64 * 1e-9;
            layers.duels = plan.hedges.iter().filter(|h| h.duel).count() as u64;
            drop(plan);

            let entry = rec.now();
            let t = Instant::now();
            let (report, observers) = rayon::with_threads(LANES, || {
                engine.run_observed(
                    &cfg,
                    &p.jobs,
                    |i| Box::new(TimedPolicy::new(i, rec)) as Box<dyn SchedulingPolicy>,
                    |_| CountingObserver::default(),
                )
            });
            let wall = t.elapsed().as_secs_f64();
            let exit = rec.now();
            rec.span("cluster.run", Some("traced_run"), entry);
            layers.events = observers.iter().map(|o| o.dequeues).sum();

            let life: Vec<(usize, (u64, u64))> =
                rec.log().shard_life.iter().map(|(&k, &v)| (k, v)).collect();
            let first = life.iter().map(|(_, l)| l.0).min().unwrap_or(entry);
            let last = life.iter().map(|(_, l)| l.1).max().unwrap_or(exit);
            {
                let mut log = rec.log();
                log.spans.push(Span {
                    name: "dispatch.in_run",
                    parent: Some("cluster.run"),
                    shard: None,
                    start_ns: entry,
                    end_ns: first,
                });
                for &(shard, (s, e)) in &life {
                    log.spans.push(Span {
                        name: "shard",
                        parent: Some("cluster.run"),
                        shard: Some(shard),
                        start_ns: s,
                        end_ns: e,
                    });
                }
                log.spans.push(Span {
                    name: "merge",
                    parent: Some("cluster.run"),
                    shard: None,
                    start_ns: last,
                    end_ns: exit,
                });
            }
            layers.dispatch_in_run_s = (first - entry) as f64 * 1e-9;
            layers.shard_spans_s = life
                .iter()
                .map(|(_, l)| (l.1 - l.0) as f64 * 1e-9)
                .collect();
            layers.shard_phase_s = (last - first) as f64 * 1e-9;
            layers.merge_s = (exit - last) as f64 * 1e-9;
            layers.sim_s = layers.shard_spans_s.iter().sum();
            (Outcome::cluster(p.jobs.len(), &report), wall)
        }
    };
    rec.span("traced_run", None, root);
    let mut log = rec.log();
    layers.decide_ns = std::mem::take(&mut log.decide_ns);
    layers.counters = std::mem::take(&mut log.counters);
    log.shard_life.clear();
    Traced {
        outcome,
        wall_s,
        layers,
    }
}
