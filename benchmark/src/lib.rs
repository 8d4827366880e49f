//! The qes workspace benchmark: three workloads, one untraced run that
//! prints every end-to-end metric, and a traced run that attributes wall
//! time to the layers below. See `README.md` for why each workload
//! exists and what each metric should move.

pub mod host;
pub mod trace;
pub mod workload;

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use host::{Probe, Timing, REFERENCE_PROBE_S};
use trace::{traced_run, Recorder, Span, Traced};
use workload::{Outcome, Prepared};
pub use workload::{Size, Workload};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Fewest timed simulation runs a measurement makes, even past its
/// time budget.
const MIN_REPS: usize = 3;
/// How far a layer sum may stray from the untraced run wall it
/// attributes.
pub const ACCOUNTING_SHARE: f64 = 0.25;

/// One benchmark invocation.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// Time budget of the timed runs, in seconds.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end measurement.
    pub traced: bool,
    pub size: Size,
}

/// A named reading and its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The run conditions printed beside every result.
#[derive(Clone, Debug)]
pub struct Context {
    pub workload: &'static str,
    pub seed: u64,
    pub lanes: usize,
    pub nproc: usize,
    pub cpu_model: String,
    pub arrivals: u64,
    /// Timed simulation runs behind the reported medians.
    pub reps: usize,
    /// Median probe time over the timed runs, and the reference it is
    /// corrected to.
    pub probe_s: f64,
    /// Uncorrected median throughput, for comparison with `jobs_per_s`.
    pub raw_jobs_per_s: f64,
    /// `(wall_s, probe_s)` of every timed run.
    pub samples: Vec<(f64, f64)>,
}

/// What one invocation reports.
#[derive(Clone, Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub context: Context,
    /// The traced run's spans (empty when untraced).
    pub spans: Vec<Span>,
}

/// Counts operations — one simulation run each — and checks every
/// outcome against the invariants and against the first outcome, bit
/// for bit.
struct Ops<'p> {
    prepared: &'p Prepared,
    attempted: u64,
    failed: u64,
    first: Option<Outcome>,
}

impl<'p> Ops<'p> {
    fn new(prepared: &'p Prepared) -> Self {
        Ops {
            prepared,
            attempted: 0,
            failed: 0,
            first: None,
        }
    }

    /// Run one operation; `None` if it panicked or failed a check, in
    /// which case its readings are discarded.
    fn run<T>(&mut self, op: impl FnOnce() -> (Outcome, T)) -> Option<T> {
        self.attempted += 1;
        let verdict = match catch_unwind(AssertUnwindSafe(op)) {
            Err(_) => Err("the simulation panicked".to_string()),
            Ok((outcome, t)) => outcome
                .check(self.prepared)
                .and_then(|()| match &self.first {
                    Some(first) if !first.same_bits(&outcome) => Err(format!(
                        "outcome differs from the first run: {outcome:?} vs {first:?}"
                    )),
                    Some(_) => Ok(t),
                    None => {
                        self.first = Some(outcome);
                        Ok(t)
                    }
                }),
        };
        verdict
            .map_err(|e| {
                self.failed += 1;
                eprintln!("operation {} failed: {e}", self.attempted);
            })
            .ok()
    }

    /// One untraced simulation run, timed and probed.
    fn plain(&mut self, probe: &Probe) -> Option<Timing> {
        let p = self.prepared;
        self.run(|| probe.measure(|| p.run()))
    }
}

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile by linear interpolation; 0 for no samples.
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `num ÷ den`, 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Run timed operations until `seconds` have passed and at least
/// [`MIN_REPS`] succeeded (giving up at three times the budget).
fn until_budget(seconds: f64, mut step: impl FnMut() -> usize) {
    let start = Instant::now();
    loop {
        let done = step();
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= seconds && (done >= MIN_REPS || elapsed >= 3.0 * seconds) {
            break;
        }
    }
}

fn context(args: &Args, p: &Prepared, timings: &[Timing]) -> Context {
    let walls: Vec<f64> = timings.iter().map(|t| t.wall_s).collect();
    let probes: Vec<f64> = timings.iter().map(|t| t.probe_s).collect();
    Context {
        workload: args.workload.name(),
        seed: args.seed,
        lanes: workload::LANES,
        nproc: host::parallelism(),
        cpu_model: host::cpu_model(),
        arrivals: p.jobs.len() as u64,
        reps: timings.len(),
        probe_s: median(&probes),
        raw_jobs_per_s: ratio(p.jobs.len() as f64, median(&walls)),
        samples: timings.iter().map(|t| (t.wall_s, t.probe_s)).collect(),
    }
}

fn corrected(timings: &[Timing]) -> Vec<f64> {
    timings.iter().map(Timing::corrected_s).collect()
}

/// Run the benchmark as `args` asks.
pub fn run(args: &Args) -> Report {
    if args.traced {
        traced(args)
    } else {
        end_to_end(args)
    }
}

/// The untraced measurement: set-up time, then one warm-up run and
/// timed runs for the budget; reports the end-to-end metrics.
pub fn end_to_end(args: &Args) -> Report {
    let probe = Probe::new(args.workload.contention_sensitivity());
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        // Free the previous inputs first, so that is not timed.
        drop(prepared.take());
        let (p, t) = probe.measure(|| workload::prepare(args.workload, args.seed, args.size));
        setup.push(t.corrected_s());
        prepared = Some(p);
    }
    let p = prepared.expect("at least one set-up");
    let mut ops = Ops::new(&p);
    ops.plain(&probe);
    let mut timings = Vec::new();
    until_budget(args.seconds, || {
        timings.extend(ops.plain(&probe));
        timings.len()
    });
    let (quality, energy_j) = ops
        .first
        .as_ref()
        .map_or((0.0, 0.0), |o| (o.quality, o.energy_j));
    let m = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        m(
            "jobs_per_s",
            ratio(p.jobs.len() as f64, median(&corrected(&timings))),
            "jobs/s",
        ),
        m("setup_s", median(&setup), "s"),
        m("peak_rss_mb", host::peak_rss_mb(), "MB"),
        m("quality", quality, "ratio"),
        m("energy_j", energy_j, "J"),
    ];
    Report {
        correct: ops.failed == 0 && !timings.is_empty(),
        attempted: ops.attempted,
        failed: ops.failed,
        metrics,
        context: context(args, &p, &timings),
        spans: Vec::new(),
    }
}

/// The traced run: untraced and traced simulation runs alternate for the
/// budget, so the tracing overhead is measured under the same host
/// conditions; reports the per-layer metrics.
pub fn traced(args: &Args) -> Report {
    let probe = Probe::new(args.workload.contention_sensitivity());
    let rec = Recorder::new();
    let mut gen = Vec::with_capacity(SETUP_REPS);
    let mut jobs = None;
    for _ in 0..SETUP_REPS {
        drop(jobs.take());
        let t = rec.now();
        let (j, timing) = probe.measure(|| workload::generate(args.workload, args.seed, args.size));
        rec.span("workload.gen", None, t);
        gen.push(timing.corrected_s());
        jobs = Some(j);
    }
    let t = rec.now();
    let p = Prepared::from_jobs(
        args.workload,
        jobs.expect("at least one generation"),
        args.seed,
        args.size,
    );
    rec.span("setup.engine", None, t);

    let mut ops = Ops::new(&p);
    ops.plain(&probe);
    let mut plain = Vec::new();
    let mut runs: Vec<(Traced, Timing)> = Vec::new();
    let mut counters_differ = false;
    let mut round = 0usize;
    until_budget(args.seconds, || {
        // Alternate which side goes first, so drift is shared evenly.
        for traced_side in [round.is_multiple_of(2), !round.is_multiple_of(2)] {
            if !traced_side {
                plain.extend(ops.plain(&probe));
            } else if let Some(t) = ops.run(|| {
                let (t, timing) = probe.measure(|| traced_run(&p, &rec));
                (t.outcome.clone(), (t, timing))
            }) {
                counters_differ |= runs
                    .first()
                    .is_some_and(|(f, _)| f.layers.counters != t.0.layers.counters);
                runs.push(t);
            }
        }
        round += 1;
        runs.len().min(plain.len())
    });
    if counters_differ {
        eprintln!("policy counters differ between traced runs");
    }

    let metrics = layer_metrics(&p, median(&gen), &corrected(&plain), &runs);
    let value = |name| metrics.iter().find(|m| m.name == name).map(|m| m.value);
    let closes = |name| value(name).is_none_or(|v| (v - 1.0).abs() <= ACCOUNTING_SHARE);
    let accounted = if p.workload.is_cluster() {
        closes("accounting.cluster_frac")
    } else {
        closes("accounting.engine_frac")
    };
    if !accounted {
        eprintln!("layer times miss the untraced run wall by more than {ACCOUNTING_SHARE}");
    }
    Report {
        correct: ops.failed == 0 && !runs.is_empty() && !counters_differ && accounted,
        attempted: ops.attempted,
        failed: ops.failed,
        metrics,
        context: context(args, &p, &plain),
        spans: rec.spans(),
    }
}

/// The per-layer metrics of a traced run. Times are corrected by their
/// run's probe and reported as medians over the traced runs; counts
/// repeat exactly, so they are read from the first.
fn layer_metrics(
    p: &Prepared,
    gen_s: f64,
    plain: &[f64],
    runs: &[(Traced, Timing)],
) -> Vec<Metric> {
    let Some((first, _)) = runs.first() else {
        return Vec::new();
    };
    let med = |f: &dyn Fn(&Traced) -> f64| {
        median(
            &runs
                .iter()
                .map(|(t, timing)| f(t) * timing.scale())
                .collect::<Vec<_>>(),
        )
    };
    let unscaled =
        |f: &dyn Fn(&Traced) -> f64| median(&runs.iter().map(|(t, _)| f(t)).collect::<Vec<_>>());
    let busy = |t: &Traced| t.layers.decide_ns.iter().sum::<u64>() as f64 * 1e-9;
    let o = &first.outcome;
    let l = &first.layers;
    let cluster = p.workload.is_cluster();
    let arrivals = o.arrivals as f64;
    let count = |name: &str| l.counters.get(name).copied().unwrap_or(0) as f64;
    let decide_us: Vec<f64> = runs
        .iter()
        .flat_map(|(t, timing)| {
            let scale = timing.scale();
            t.layers
                .decide_ns
                .iter()
                .map(move |&ns| ns as f64 * 1e-3 * scale)
        })
        .collect();
    let wakeups = o.counters.wakeups() as f64;
    let plain_wall = median(plain);
    let engine_self = med(&|t| t.layers.sim_s - busy(t));
    let policy_busy = med(&busy);
    let dispatch_busy = med(&|t| t.layers.dispatch_busy_s);
    let shard_phase = med(&|t| t.layers.shard_phase_s);
    let merge = med(&|t| t.layers.merge_s);
    let layered = med(&|t| t.layers.dispatch_busy_s + t.layers.shard_phase_s + t.layers.merge_s);
    let imbalance = unscaled(&|t| {
        let s = &t.layers.shard_spans_s;
        let max = s.iter().copied().fold(0.0, f64::max);
        let min = s.iter().copied().fold(f64::INFINITY, f64::min);
        ratio(max, min)
    });
    let only_cluster = |v: f64| if cluster { v } else { 0.0 };

    let m = |name, value: f64, unit| Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    };
    vec![
        m("workload.gen_s", gen_s, "s"),
        m("workload.jobs", arrivals, "count"),
        m("dispatch.busy_s", dispatch_busy, "s"),
        m(
            "dispatch.in_run_s",
            med(&|t| t.layers.dispatch_in_run_s),
            "s",
        ),
        m(
            "dispatch.ns_per_arrival",
            ratio(dispatch_busy * 1e9, arrivals),
            "ns",
        ),
        m("dispatch.rejected", o.rejected as f64, "count"),
        m("dispatch.retried", o.retried as f64, "count"),
        m("dispatch.dropped", o.dropped as f64, "count"),
        m("dispatch.hedged", o.hedged as f64, "count"),
        m(
            "dispatch.duel_frac",
            ratio(l.duels as f64, arrivals),
            "ratio",
        ),
        m("cluster.shard_phase_s", shard_phase, "s"),
        m("cluster.shard_imbalance", imbalance, "ratio"),
        m("cluster.merge_s", merge, "s"),
        m(
            "cluster.copies_simulated",
            only_cluster(o.copies as f64),
            "count",
        ),
        m(
            "cluster.hedge_win_ratio",
            ratio(o.hedges_won as f64, l.duels as f64),
            "ratio",
        ),
        m("engine.self_s", engine_self, "s"),
        m("engine.events", l.events as f64, "count"),
        m(
            "engine.ns_per_event",
            ratio(engine_self * 1e9, l.events as f64),
            "ns",
        ),
        m("engine.wakeups", wakeups, "count"),
        m(
            "engine.kept_ratio",
            ratio(o.counters.invocations_kept as f64, wakeups),
            "ratio",
        ),
        m("policy.calls", l.decide_ns.len() as f64, "count"),
        m("policy.busy_s", policy_busy, "s"),
        m(
            "policy.share",
            unscaled(&|t| ratio(busy(t), t.layers.sim_s)),
            "ratio",
        ),
        m("policy.decide_p50_us", quantile(&decide_us, 0.5), "us"),
        m("policy.decide_p99_us", quantile(&decide_us, 0.99), "us"),
        m("des.free_solve", count("des.free_solve"), "count"),
        m("des.qe_solve", count("des.qe_solve"), "count"),
        m(
            "des.budget_bound_ratio",
            ratio(count("des.budget_bound"), count("des.triggers")),
            "ratio",
        ),
        m("des.wf_rounds", count("des.wf_rounds"), "count"),
        m("des.keep_plan", count("des.keep_plan"), "count"),
        m("des.discards", count("des.discards"), "count"),
        m(
            "des.cache_hit_ratio",
            ratio(
                count("des.cache_hit"),
                count("des.cache_hit") + count("des.cache_miss"),
            ),
            "ratio",
        ),
        m(
            "trace.overhead_frac",
            1.0 - ratio(plain_wall, med(&|t| t.wall_s)),
            "ratio",
        ),
        // Engine plus policy time over the untraced wall: the closure of
        // the single machine; on the cluster, the shards' share of the run.
        m(
            "accounting.engine_frac",
            ratio(engine_self + policy_busy, plain_wall),
            "ratio",
        ),
        m(
            "accounting.cluster_frac",
            only_cluster(ratio(layered, plain_wall)),
            "ratio",
        ),
    ]
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(m.name),
                    m.value,
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The run conditions, as one JSON object.
    pub fn context_json(&self) -> String {
        let c = &self.context;
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"lanes\": {}, \"nproc\": {}, \"cpu_model\": {}, \
             \"arrivals\": {}, \"reps\": {}, \"probe_s\": {}, \"reference_probe_s\": {}, \
             \"raw_jobs_per_s\": {}, \"samples\": [{}]}}",
            json_str(c.workload),
            c.seed,
            c.lanes,
            c.nproc,
            json_str(&c.cpu_model),
            c.arrivals,
            c.reps,
            c.probe_s,
            REFERENCE_PROBE_S,
            c.raw_jobs_per_s,
            c.samples
                .iter()
                .map(|(w, p)| format!("[{w}, {p}]"))
                .collect::<Vec<_>>()
                .join(", ")
        )
    }

    /// The traced run's spans, as a JSON array (times in ns since the
    /// run's start).
    pub fn spans_json(&self) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": {}, \"parent\": {}, \"shard\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                    json_str(s.name),
                    s.parent.map_or("null".to_string(), json_str),
                    s.shard.map_or("null".to_string(), |i| i.to_string()),
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect();
        format!("[{}]", spans.join(",\n  "))
    }
}
