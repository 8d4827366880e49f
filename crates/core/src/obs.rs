//! Zero-overhead observability: a static-dispatch [`Observer`] trait with
//! a compile-out [`NoopObserver`], plus two concrete observers — a
//! [`MetricsRegistry`] of named monotonic counters/gauges/histograms and a
//! bounded ring-buffer [`TraceObserver`] that serializes to CSV.
//!
//! # Design
//!
//! The simulator and the cluster substrate are generic over `O: Observer`
//! and guard every hook with `if O::ENABLED { ... }`. Because `ENABLED` is
//! an associated `const`, the branch — and the event construction feeding
//! it — is dead code for [`NoopObserver`] and is removed entirely by the
//! optimizer: an unobserved run compiles to the same hot loop as before the
//! observability layer existed. The repo benchmark (`benchmark/`) times
//! its workloads untraced, and with `--trace 1` reports the cost of
//! tracing as `trace.overhead_frac` (1 − untraced ÷ traced wall).
//!
//! Observers are **passive**: they must not influence the simulation. The
//! engine never reads observer state, so a traced run is bitwise-identical
//! to an untraced run on ⟨quality, energy⟩ and every counter
//! (`tests/observability.rs` enforces this differentially).
//!
//! # Event schema
//!
//! Every hook reports an [`Event`] stamped with the simulated instant. The
//! CSV serialization (columns `t_us,event,arg1,arg2`) is:
//!
//! | `event`          | `arg1`                          | `arg2`            |
//! |------------------|---------------------------------|-------------------|
//! | `arrivals`       | jobs released this instant      |                   |
//! | `dequeue`        | `deadline`/`plan_end`/`quantum` |                   |
//! | `trigger`        | cause (see [`TriggerCause`])    |                   |
//! | `invoke`         | `changed` or `kept`             |                   |
//! | `plan_install`   | core index                      | slices in plan    |
//! | `plan_keep`      | core index                      |                   |
//! | `settle`         | job id                          | `satisfied`/`partial`/`zero` |
//! | `discard`        | job id                          |                   |
//! | `power_sample`   | node index                      | watts             |
//! | `policy_counter` | counter name                    | counter value     |
//! | `shard_assign`   | shard index                     | jobs routed       |
//! | `shard_down`     | shard index                     | `crash`/`brownout` |
//! | `shard_up`       | shard index                     |                   |
//! | `redispatch`     | job id                          | crashed shard     |
//! | `admission_reject` | job id                        | admission policy  |
//! | `retry`          | job id                          | attempt number    |
//! | `hedge`          | job id                          | hedge target shard |
//!
//! A `settle` event also carries the job's processed volume and earned
//! quality; in-process observers read them, the CSV row does not.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::job::JobId;
use crate::time::SimTime;

/// Which simulator event was popped off the event heap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DequeueKind {
    /// A job's deadline expired.
    Deadline,
    /// A core ran its installed plan to completion.
    PlanEnd,
    /// The §IV-E grouped-scheduling quantum tick.
    Quantum,
}

impl DequeueKind {
    /// Stable lowercase label used in the CSV serialization.
    pub fn label(self) -> &'static str {
        match self {
            DequeueKind::Deadline => "deadline",
            DequeueKind::PlanEnd => "plan_end",
            DequeueKind::Quantum => "quantum",
        }
    }
}

/// Why the engine invoked the scheduling policy (§IV-E trigger taxonomy).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TriggerCause {
    /// Per-event arrival trigger (`on_arrival`).
    Arrival,
    /// The grouped arrival counter filled up.
    Counter,
    /// A core went idle with the idle trigger armed.
    Idle,
    /// A plan ran out (gated idle trigger after a `PlanEnd` event).
    PlanEnd,
    /// The periodic quantum trigger.
    Quantum,
}

impl TriggerCause {
    /// Stable lowercase label used in the CSV serialization.
    pub fn label(self) -> &'static str {
        match self {
            TriggerCause::Arrival => "arrival",
            TriggerCause::Counter => "counter",
            TriggerCause::Idle => "idle",
            TriggerCause::PlanEnd => "plan_end",
            TriggerCause::Quantum => "quantum",
        }
    }
}

/// How a job left the system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SettleOutcome {
    /// Demand met within the relative tolerance.
    Satisfied,
    /// Some, but not all, demand processed.
    Partial,
    /// No processing at all.
    Zero,
}

impl SettleOutcome {
    /// Stable lowercase label used in the CSV serialization.
    pub fn label(self) -> &'static str {
        match self {
            SettleOutcome::Satisfied => "satisfied",
            SettleOutcome::Partial => "partial",
            SettleOutcome::Zero => "zero",
        }
    }
}

/// What kind of capacity loss a shard outage event reports (mirrors the
/// cluster fault plan's window kinds without a crate dependency).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutageKind {
    /// Total outage: the shard accepts no work while down.
    Crash,
    /// Partial outage: the shard runs on reduced cores/budget.
    Brownout,
}

impl OutageKind {
    /// Stable lowercase label used in the CSV serialization.
    pub fn label(self) -> &'static str {
        match self {
            OutageKind::Crash => "crash",
            OutageKind::Brownout => "brownout",
        }
    }
}

/// A single observability event. `Copy`, allocation-free, cheap to
/// construct — hot paths build these only when `O::ENABLED`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Event {
    /// A batch of `count` jobs was released at this instant.
    Arrivals {
        /// Number of jobs released in the batch.
        count: u32,
    },
    /// A (non-stale) event was popped off the simulator heap.
    Dequeue {
        /// Which kind of heap event.
        kind: DequeueKind,
    },
    /// The engine decided to invoke the scheduling policy.
    Trigger {
        /// Which §IV-E trigger fired.
        cause: TriggerCause,
    },
    /// A policy invocation returned; `kept` means the decision was a pure
    /// keep (no assignments, no discards, no new plans, unchanged ambient
    /// speeds) and is therefore *not* counted as a policy invocation in
    /// [`invocations`](Event::Invoke).
    Invoke {
        /// True when the decision changed nothing.
        kept: bool,
    },
    /// A fresh plan was installed on a core.
    PlanInstall {
        /// Core index.
        core: u32,
        /// Number of slices in the installed plan.
        slices: u32,
    },
    /// The policy explicitly kept a core's running plan (`None` entry).
    PlanKeep {
        /// Core index.
        core: u32,
    },
    /// A job was scored: it completed, reached its deadline or the
    /// horizon, or was discarded. This is the only channel per-job
    /// outcomes leave the engine through.
    JobSettle {
        /// The job.
        job: JobId,
        /// How it scored.
        outcome: SettleOutcome,
        /// Volume processed over the job's lifetime (not serialized).
        processed: f64,
        /// Quality earned (not serialized).
        quality: f64,
    },
    /// The policy discarded a job before its deadline (§V-D).
    JobDiscard {
        /// The job.
        job: JobId,
    },
    /// A cluster power meter took one sample.
    PowerSample {
        /// Node index (0 for a single whole-cluster meter).
        node: u32,
        /// Measured power in watts (noise and meter overhead included).
        watts: f64,
    },
    /// A policy-internal counter, drained once at end of run via
    /// [`SchedulingPolicy::metrics`](../..//qes_multicore/policy/trait.SchedulingPolicy.html).
    PolicyCounter {
        /// Stable counter name (e.g. `des.qe_solve`).
        name: &'static str,
        /// Monotonic value at end of run.
        value: u64,
    },
    /// A cluster dispatcher bound one shard's routed slice of the arrival
    /// stream; emitted once per shard at the start of a sharded run, so
    /// every event stream carries its shard tag.
    ShardAssign {
        /// Shard index (0-based).
        shard: u32,
        /// Number of jobs routed to this shard.
        jobs: u32,
    },
    /// A fault window opened on a shard (cluster fault injection).
    ShardDown {
        /// Shard index (0-based).
        shard: u32,
        /// Crash (total outage) or brownout (reduced capacity).
        kind: OutageKind,
    },
    /// A fault window closed: the shard is back at full capacity.
    ShardUp {
        /// Shard index (0-based).
        shard: u32,
    },
    /// A job stranded on a crashed shard was re-released to the
    /// dispatcher for re-routing to a surviving shard.
    Redispatch {
        /// The stranded job.
        job: JobId,
        /// The shard that crashed under it.
        from: u32,
    },
    /// The cluster admission controller turned a job away at arrival
    /// (overload protection; distinct from a fault-path drop).
    AdmissionReject {
        /// The rejected job.
        job: JobId,
        /// Stable label of the admission policy that rejected it.
        policy: &'static str,
    },
    /// A stranded job was re-released with a retry-budgeted backoff
    /// delay (attempt numbers start at 1 for the first re-release).
    Retry {
        /// The retried job.
        job: JobId,
        /// Which retry attempt this re-release is.
        attempt: u32,
    },
    /// A hedge copy of a slow job was dispatched to a second shard
    /// (first-wins accounting; the losing copy's work is charged to
    /// energy but not quality).
    Hedge {
        /// The hedged job.
        job: JobId,
        /// The shard receiving the hedge copy.
        to: u32,
    },
}

impl Event {
    /// Stable lowercase event label (first CSV column after the timestamp).
    pub fn label(&self) -> &'static str {
        match self {
            Event::Arrivals { .. } => "arrivals",
            Event::Dequeue { .. } => "dequeue",
            Event::Trigger { .. } => "trigger",
            Event::Invoke { .. } => "invoke",
            Event::PlanInstall { .. } => "plan_install",
            Event::PlanKeep { .. } => "plan_keep",
            Event::JobSettle { .. } => "settle",
            Event::JobDiscard { .. } => "discard",
            Event::PowerSample { .. } => "power_sample",
            Event::PolicyCounter { .. } => "policy_counter",
            Event::ShardAssign { .. } => "shard_assign",
            Event::ShardDown { .. } => "shard_down",
            Event::ShardUp { .. } => "shard_up",
            Event::Redispatch { .. } => "redispatch",
            Event::AdmissionReject { .. } => "admission_reject",
            Event::Retry { .. } => "retry",
            Event::Hedge { .. } => "hedge",
        }
    }

    /// Serialize as one CSV row (no trailing newline), schema as in the
    /// module docs: `t_us,event,arg1,arg2`.
    pub fn to_csv_row(&self, at: SimTime) -> String {
        let t = at.as_micros();
        match *self {
            Event::Arrivals { count } => format!("{t},arrivals,{count},"),
            Event::Dequeue { kind } => format!("{t},dequeue,{},", kind.label()),
            Event::Trigger { cause } => format!("{t},trigger,{},", cause.label()),
            Event::Invoke { kept } => {
                format!("{t},invoke,{},", if kept { "kept" } else { "changed" })
            }
            Event::PlanInstall { core, slices } => format!("{t},plan_install,{core},{slices}"),
            Event::PlanKeep { core } => format!("{t},plan_keep,{core},"),
            Event::JobSettle { job, outcome, .. } => {
                format!("{t},settle,{},{}", job.0, outcome.label())
            }
            Event::JobDiscard { job } => format!("{t},discard,{},", job.0),
            Event::PowerSample { node, watts } => format!("{t},power_sample,{node},{watts:?}"),
            Event::PolicyCounter { name, value } => format!("{t},policy_counter,{name},{value}"),
            Event::ShardAssign { shard, jobs } => format!("{t},shard_assign,{shard},{jobs}"),
            Event::ShardDown { shard, kind } => {
                format!("{t},shard_down,{shard},{}", kind.label())
            }
            Event::ShardUp { shard } => format!("{t},shard_up,{shard},"),
            Event::Redispatch { job, from } => format!("{t},redispatch,{},{from}", job.0),
            Event::AdmissionReject { job, policy } => {
                format!("{t},admission_reject,{},{policy}", job.0)
            }
            Event::Retry { job, attempt } => format!("{t},retry,{},{attempt}", job.0),
            Event::Hedge { job, to } => format!("{t},hedge,{},{to}", job.0),
        }
    }
}

/// Static-dispatch observability sink.
///
/// Implementors receive every [`Event`] the instrumented code emits. The
/// contract:
///
/// * **Passive** — `record` must not feed anything back into the caller;
///   the simulation outcome must be bitwise-independent of the observer.
/// * **Compile-out** — call sites guard with `if O::ENABLED`, so an
///   implementation with `ENABLED = false` costs nothing at runtime.
/// * **Ordered** — events arrive in simulation order; timestamps are
///   non-decreasing within one run.
pub trait Observer {
    /// Whether this observer wants events at all. `false` removes every
    /// hook at compile time ([`NoopObserver`]).
    const ENABLED: bool;

    /// Receive one event stamped with the simulated instant.
    fn record(&mut self, at: SimTime, event: Event);
}

/// The default observer: sees nothing, costs nothing.
///
/// With `ENABLED = false` every `if O::ENABLED { obs.record(..) }` hook is
/// statically dead and the optimizer removes it — the compile-out
/// guarantee the repo benchmark's untraced runs rely on (its traced runs
/// report the difference as `trace.overhead_frac`).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopObserver;

impl Observer for NoopObserver {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _at: SimTime, _event: Event) {}
}

/// Forwarding impl so callers can pass `&mut observer` by reference.
impl<O: Observer> Observer for &mut O {
    const ENABLED: bool = O::ENABLED;

    #[inline(always)]
    fn record(&mut self, at: SimTime, event: Event) {
        (**self).record(at, event);
    }
}

/// A fixed-layout log-scale histogram: powers of two from 1 up, plus an
/// overflow bucket, tracking count/sum/min/max exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample (`+inf` when empty).
    pub min: f64,
    /// Largest sample (`-inf` when empty).
    pub max: f64,
    /// `buckets[i]` counts samples in `(2^(i-1), 2^i]` (bucket 0 is
    /// `<= 1`); the last bucket absorbs everything larger.
    pub buckets: [u64; Histogram::BUCKETS],
}

impl Histogram {
    /// Number of log2 buckets (covers up to `2^30` before overflowing).
    pub const BUCKETS: usize = 32;

    fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; Histogram::BUCKETS],
        }
    }

    /// Record one sample.
    pub fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        let idx = if v <= 1.0 {
            0
        } else {
            // ceil(log2(v)), clamped into the bucket array.
            let b = (v.log2().ceil() as usize).max(1);
            b.min(Histogram::BUCKETS - 1)
        };
        self.buckets[idx] += 1;
    }

    /// Arithmetic mean of the recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// An [`Observer`] that folds the event stream into named monotonic
/// counters, gauges, and [`Histogram`]s, with a deterministic JSON export.
///
/// Counter names are dot-separated and stable (see the module docs for the
/// engine-side names; policies contribute `policy.<name>` entries). Storage
/// is `BTreeMap`-backed, so iteration and JSON output are deterministic.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `by` to the named monotonic counter (creating it at zero).
    pub fn inc(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_insert(0) += by;
    }

    /// Set a named gauge to an absolute value.
    pub fn set_gauge(&mut self, name: impl Into<String>, value: f64) {
        self.gauges.insert(name.into(), value);
    }

    /// Record one sample into the named histogram.
    pub fn observe(&mut self, name: &'static str, v: f64) {
        self.histograms.entry(name).or_default().observe(v);
    }

    /// Read a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Read a gauge, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Read a histogram, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterate counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// Serialize the whole registry as pretty-printed JSON with
    /// deterministic key order (counters, then gauges, then histogram
    /// summaries).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {\n");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let comma = if i + 1 < self.counters.len() { "," } else { "" };
            let _ = writeln!(out, "    \"{k}\": {v}{comma}");
        }
        out.push_str("  },\n  \"gauges\": {\n");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            let comma = if i + 1 < self.gauges.len() { "," } else { "" };
            let _ = writeln!(out, "    \"{k}\": {v:?}{comma}");
        }
        out.push_str("  },\n  \"histograms\": {\n");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            let comma = if i + 1 < self.histograms.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "    \"{k}\": {{\"count\": {}, \"sum\": {:?}, \"min\": {:?}, \"max\": {:?}, \"mean\": {:?}}}{comma}",
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean()
            );
        }
        out.push_str("  }\n}\n");
        out
    }
}

impl Observer for MetricsRegistry {
    const ENABLED: bool = true;

    fn record(&mut self, _at: SimTime, event: Event) {
        match event {
            Event::Arrivals { count } => {
                self.inc("engine.arrival_batches", 1);
                self.inc("engine.arrivals", count as u64);
            }
            Event::Dequeue { kind } => match kind {
                DequeueKind::Deadline => self.inc("engine.dequeue.deadline", 1),
                DequeueKind::PlanEnd => self.inc("engine.dequeue.plan_end", 1),
                DequeueKind::Quantum => self.inc("engine.dequeue.quantum", 1),
            },
            Event::Trigger { cause } => match cause {
                TriggerCause::Arrival => self.inc("engine.trigger.arrival", 1),
                TriggerCause::Counter => self.inc("engine.trigger.counter", 1),
                TriggerCause::Idle => self.inc("engine.trigger.idle", 1),
                TriggerCause::PlanEnd => self.inc("engine.trigger.plan_end", 1),
                TriggerCause::Quantum => self.inc("engine.trigger.quantum", 1),
            },
            Event::Invoke { kept } => {
                if kept {
                    self.inc("engine.invocations_kept", 1);
                } else {
                    self.inc("engine.invocations", 1);
                }
            }
            Event::PlanInstall { slices, .. } => {
                self.inc("engine.plan.installed", 1);
                self.observe("engine.plan.slices", slices as f64);
            }
            Event::PlanKeep { .. } => self.inc("engine.plan.kept", 1),
            Event::JobSettle { outcome, .. } => match outcome {
                SettleOutcome::Satisfied => self.inc("engine.settle.satisfied", 1),
                SettleOutcome::Partial => self.inc("engine.settle.partial", 1),
                SettleOutcome::Zero => self.inc("engine.settle.zero", 1),
            },
            Event::JobDiscard { .. } => self.inc("engine.discard", 1),
            Event::PowerSample { node, watts } => {
                self.inc("cluster.power.samples", 1);
                self.observe("cluster.power.watts", watts);
                self.set_gauge(format!("cluster.node{node}.last_watts"), watts);
            }
            Event::PolicyCounter { name, value } => {
                // Drained once at end of run: a snapshot, not an increment.
                self.counters.insert(name, value);
            }
            Event::ShardAssign { shard, jobs } => {
                self.inc("cluster.shard.assignments", 1);
                self.inc("cluster.shard.jobs", jobs as u64);
                self.set_gauge(format!("cluster.shard{shard}.routed_jobs"), jobs as f64);
            }
            Event::ShardDown { kind, .. } => {
                self.inc("cluster.shard.down", 1);
                match kind {
                    OutageKind::Crash => self.inc("cluster.shard.down.crash", 1),
                    OutageKind::Brownout => self.inc("cluster.shard.down.brownout", 1),
                }
            }
            Event::ShardUp { .. } => self.inc("cluster.shard.up", 1),
            Event::Redispatch { .. } => self.inc("cluster.redispatch", 1),
            Event::AdmissionReject { .. } => self.inc("cluster.admission.rejected", 1),
            Event::Retry { .. } => self.inc("cluster.retry", 1),
            Event::Hedge { .. } => self.inc("cluster.hedge.dispatched", 1),
        }
    }
}

/// An [`Observer`] keeping the last `capacity` events in a ring buffer and
/// serializing them as CSV (schema in the module docs).
///
/// When the buffer is full the *oldest* events are dropped — the tail of a
/// run, where a mis-schedule usually settles, is what survives. The number
/// of dropped events is reported in the CSV block header.
#[derive(Clone, Debug)]
pub struct TraceObserver {
    buf: Vec<(SimTime, Event)>,
    capacity: usize,
    head: usize,
    dropped: u64,
}

impl TraceObserver {
    /// Default ring capacity (65 536 events).
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// CSV header row.
    pub const CSV_HEADER: &'static str = "t_us,event,arg1,arg2";

    /// A trace buffer with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// A trace buffer keeping the most recent `capacity` events
    /// (`capacity` is clamped to at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        TraceObserver {
            buf: Vec::new(),
            capacity: capacity.max(1),
            head: 0,
            dropped: 0,
        }
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// How many early events were evicted by the ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Buffered events, oldest first.
    pub fn events(&self) -> Vec<(SimTime, Event)> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Serialize the buffered events as a CSV block: a `# trace ...`
    /// comment line (event/dropped counts plus the caller's `label`), the
    /// header row, then one row per event, oldest first.
    pub fn to_csv(&self, label: &str) -> String {
        let events = self.events();
        let mut out = format!(
            "# trace {label} events={} dropped={}\n{}\n",
            events.len(),
            self.dropped,
            Self::CSV_HEADER
        );
        for (at, ev) in &events {
            out.push_str(&ev.to_csv_row(*at));
            out.push('\n');
        }
        out
    }

    /// Append the CSV block to `path` (creating the file if needed). Used
    /// by the `QES_TRACE` wiring in the experiment driver so one file can
    /// collect the traces of every run in a figure sweep.
    pub fn append_csv(&self, path: &str, label: &str) -> std::io::Result<()> {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(self.to_csv(label).as_bytes())
    }
}

impl Default for TraceObserver {
    fn default() -> Self {
        Self::new()
    }
}

impl Observer for TraceObserver {
    const ENABLED: bool = true;

    fn record(&mut self, at: SimTime, event: Event) {
        if self.buf.len() < self.capacity {
            self.buf.push((at, event));
        } else {
            self.buf[self.head] = (at, event);
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }
}

/// Fan out one event stream to two observers (e.g. metrics + trace in a
/// single run). Enabled iff either side is.
#[derive(Debug, Default)]
pub struct Tee<A, B>(
    /// First sink.
    pub A,
    /// Second sink.
    pub B,
);

impl<A: Observer, B: Observer> Observer for Tee<A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline]
    fn record(&mut self, at: SimTime, event: Event) {
        if A::ENABLED {
            self.0.record(at, event);
        }
        if B::ENABLED {
            self.1.record(at, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_free() {
        const { assert!(!NoopObserver::ENABLED) };
        let mut o = NoopObserver;
        o.record(SimTime::ZERO, Event::Invoke { kept: false });
    }

    #[test]
    fn registry_folds_events_into_counters() {
        let mut m = MetricsRegistry::new();
        m.record(SimTime::ZERO, Event::Arrivals { count: 3 });
        m.record(
            SimTime::from_millis(1),
            Event::Trigger {
                cause: TriggerCause::Counter,
            },
        );
        m.record(SimTime::from_millis(1), Event::Invoke { kept: false });
        m.record(SimTime::from_millis(2), Event::Invoke { kept: true });
        m.record(
            SimTime::from_millis(3),
            Event::PlanInstall { core: 0, slices: 4 },
        );
        m.record(
            SimTime::from_millis(4),
            Event::PolicyCounter {
                name: "des.qe_solve",
                value: 7,
            },
        );
        assert_eq!(m.counter("engine.arrivals"), 3);
        assert_eq!(m.counter("engine.arrival_batches"), 1);
        assert_eq!(m.counter("engine.trigger.counter"), 1);
        assert_eq!(m.counter("engine.invocations"), 1);
        assert_eq!(m.counter("engine.invocations_kept"), 1);
        assert_eq!(m.counter("des.qe_solve"), 7);
        let h = m.histogram("engine.plan.slices").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.max, 4.0);
        let json = m.to_json();
        assert!(json.contains("\"engine.invocations\": 1"));
        assert!(json.contains("\"des.qe_solve\": 7"));
    }

    #[test]
    fn histogram_buckets_and_mean() {
        let mut h = Histogram::default();
        for v in [0.5, 1.0, 2.0, 1e12] {
            h.observe(v);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.buckets[0], 2); // 0.5 and 1.0
        assert_eq!(h.buckets[1], 1); // 2.0
        assert_eq!(h.buckets[Histogram::BUCKETS - 1], 1); // overflow
        assert!((h.mean() - (3.5 + 1e12) / 4.0).abs() < 1e-3);
    }

    #[test]
    fn trace_ring_keeps_most_recent() {
        let mut t = TraceObserver::with_capacity(2);
        for i in 0..5u32 {
            t.record(SimTime::from_micros(i as u64), Event::Arrivals { count: i });
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        let evs = t.events();
        assert_eq!(evs[0].0, SimTime::from_micros(3));
        assert_eq!(evs[1].0, SimTime::from_micros(4));
        let csv = t.to_csv("unit");
        assert!(csv.starts_with("# trace unit events=2 dropped=3\n"));
        assert!(csv.contains("t_us,event,arg1,arg2\n"));
        assert!(csv.trim_end().ends_with("4,arrivals,4,"));
    }

    #[test]
    fn csv_rows_follow_schema() {
        let rows = [
            Event::Dequeue {
                kind: DequeueKind::PlanEnd,
            }
            .to_csv_row(SimTime::from_micros(10)),
            Event::JobSettle {
                job: JobId(3),
                outcome: SettleOutcome::Partial,
                processed: 12.5,
                quality: 0.25,
            }
            .to_csv_row(SimTime::from_micros(20)),
            Event::PowerSample {
                node: 1,
                watts: 12.5,
            }
            .to_csv_row(SimTime::from_micros(30)),
            Event::ShardAssign { shard: 2, jobs: 77 }.to_csv_row(SimTime::from_micros(40)),
            Event::ShardDown {
                shard: 1,
                kind: OutageKind::Crash,
            }
            .to_csv_row(SimTime::from_micros(50)),
            Event::ShardUp { shard: 1 }.to_csv_row(SimTime::from_micros(60)),
            Event::Redispatch {
                job: JobId(9),
                from: 1,
            }
            .to_csv_row(SimTime::from_micros(70)),
            Event::AdmissionReject {
                job: JobId(11),
                policy: "slack_floor",
            }
            .to_csv_row(SimTime::from_micros(80)),
            Event::Retry {
                job: JobId(9),
                attempt: 2,
            }
            .to_csv_row(SimTime::from_micros(90)),
            Event::Hedge {
                job: JobId(5),
                to: 3,
            }
            .to_csv_row(SimTime::from_micros(100)),
        ];
        assert_eq!(rows[0], "10,dequeue,plan_end,");
        assert_eq!(rows[1], "20,settle,3,partial");
        assert_eq!(rows[2], "30,power_sample,1,12.5");
        assert_eq!(rows[3], "40,shard_assign,2,77");
        assert_eq!(rows[4], "50,shard_down,1,crash");
        assert_eq!(rows[5], "60,shard_up,1,");
        assert_eq!(rows[6], "70,redispatch,9,1");
        assert_eq!(rows[7], "80,admission_reject,11,slack_floor");
        assert_eq!(rows[8], "90,retry,9,2");
        assert_eq!(rows[9], "100,hedge,5,3");
    }

    #[test]
    fn overload_events_fold_into_registry() {
        let mut reg = MetricsRegistry::new();
        reg.record(
            SimTime::ZERO,
            Event::AdmissionReject {
                job: JobId(1),
                policy: "backpressure",
            },
        );
        reg.record(
            SimTime::from_millis(1),
            Event::Retry {
                job: JobId(2),
                attempt: 1,
            },
        );
        reg.record(
            SimTime::from_millis(1),
            Event::Retry {
                job: JobId(2),
                attempt: 2,
            },
        );
        reg.record(
            SimTime::from_millis(2),
            Event::Hedge {
                job: JobId(3),
                to: 1,
            },
        );
        assert_eq!(reg.counter("cluster.admission.rejected"), 1);
        assert_eq!(reg.counter("cluster.retry"), 2);
        assert_eq!(reg.counter("cluster.hedge.dispatched"), 1);
    }

    #[test]
    fn shard_assign_folds_into_registry() {
        let mut reg = MetricsRegistry::new();
        reg.record(SimTime::ZERO, Event::ShardAssign { shard: 0, jobs: 10 });
        reg.record(SimTime::ZERO, Event::ShardAssign { shard: 1, jobs: 7 });
        assert_eq!(reg.counter("cluster.shard.assignments"), 2);
        assert_eq!(reg.counter("cluster.shard.jobs"), 17);
        assert_eq!(reg.gauge("cluster.shard1.routed_jobs"), Some(7.0));
    }

    #[test]
    fn fault_events_fold_into_registry() {
        let mut reg = MetricsRegistry::new();
        reg.record(
            SimTime::ZERO,
            Event::ShardDown {
                shard: 0,
                kind: OutageKind::Crash,
            },
        );
        reg.record(
            SimTime::from_millis(1),
            Event::ShardDown {
                shard: 1,
                kind: OutageKind::Brownout,
            },
        );
        reg.record(SimTime::from_millis(2), Event::ShardUp { shard: 0 });
        reg.record(
            SimTime::from_millis(2),
            Event::Redispatch {
                job: JobId(4),
                from: 0,
            },
        );
        assert_eq!(reg.counter("cluster.shard.down"), 2);
        assert_eq!(reg.counter("cluster.shard.down.crash"), 1);
        assert_eq!(reg.counter("cluster.shard.down.brownout"), 1);
        assert_eq!(reg.counter("cluster.shard.up"), 1);
        assert_eq!(reg.counter("cluster.redispatch"), 1);
    }

    #[test]
    fn tee_fans_out() {
        let mut tee = Tee(MetricsRegistry::new(), TraceObserver::with_capacity(8));
        tee.record(SimTime::ZERO, Event::Invoke { kept: false });
        assert_eq!(tee.0.counter("engine.invocations"), 1);
        assert_eq!(tee.1.len(), 1);
    }
}
