//! Peak live heap bytes per arrival of a protected cluster run.
//!
//! The dispatch pre-pass names every routed copy and hedge by the job's
//! position in the input stream (a 16-byte routed copy, a 20-byte hedge
//! record) instead of storing the job, and keeps a job's strand count
//! and hedge twin in its copies' in-flight window entries instead of in
//! arrays over the whole stream. The cluster run keeps of the plan only
//! what the shard phase reads: each shard's stream goes when that
//! shard's run ends, and the hedge list becomes an 8-byte duel record
//! per duel. The shards build each fault epoch's jobs straight from the
//! routed copies, and the merge settles duels by walking each shard's
//! slot-sorted outcomes. The test runs the protected stack of the
//! cluster benchmark — seeded crash and brownout windows, slack-floor
//! admission, a retry budget with backoff and slack-fraction hedging —
//! on a 20k-job diurnal stream and bounds the run's peak live heap above
//! what was live when it started (the input stream is not counted), per
//! arrival. A second test bounds the pre-pass's own peak and what the
//! dispatch plan alone holds when the pre-pass returns it.
//!
//! Release builds only: in builds with debug assertions DES and the
//! dispatcher cross-check their results with allocating reference
//! computations, which would dominate the peak.
#![cfg(not(debug_assertions))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qes::cluster::{
    dispatch_protected, AdmissionPolicy, ClusterEngine, FaultPlan, HedgePolicy, OverloadPolicy,
    RetryPolicy, RoutingPolicy,
};
use qes::core::{ExpQuality, JobSet, PolynomialPower, SimDuration};
use qes::multicore::{DesPolicy, SchedulingPolicy};
use qes::sim::SimConfig;
use qes::workload::DiurnalWorkload;

/// Tracks the current thread's live heap bytes and their peak while
/// tracking is on, both relative to the live bytes when it was turned
/// on. The run uses one lane, so all of its allocations happen on the
/// calling thread; other threads (the test harness) are not counted.
struct Tracking;

thread_local! {
    /// `(live, peak)` bytes since tracking was turned on.
    static HEAP: Cell<Option<(i64, i64)>> = const { Cell::new(None) };
}

fn track(delta: i64) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down.
    let _ = HEAP.try_with(|h| {
        if let Some((live, peak)) = h.get() {
            let live = live + delta;
            h.set(Some((live, peak.max(live))));
        }
    });
}

// SAFETY: every call is passed unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the tracking touches only a thread-local
// `Cell` and never allocates.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            track(layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            track(layout.size() as i64);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            track(new_size as i64 - layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        track(-(layout.size() as i64));
    }
}

#[global_allocator]
static ALLOC: Tracking = Tracking;

/// The bound on peak live heap bytes per arrival. The run peaks at 92.7
/// bytes per arrival, in its shard phase; building every shard's duel
/// slots before the first shard runs made it 101.6. Holding the whole
/// dispatch plan through the shard phase, with per-arrival strand
/// counts and copy locations in the scan and a 32-byte hedge record,
/// made it 151.4; handing the shard phase that plan with the slack of
/// its growth made it 192.4, and storing each routed copy and hedge as
/// a whole job, building a full-size job set per shard and settling
/// duels through a table indexed by duel slot made it 324.6.
const PEAK_BYTES_PER_ARRIVAL: f64 = 105.0;

/// The bound on the pre-pass's peak live heap bytes per arrival. It
/// peaks at 80.4. Growing the hedge list by doubling instead of
/// reserving one record per arrival made it 93.2, and per-arrival
/// strand counts and copy locations with a 32-byte hedge record 132.8.
const PREPASS_PEAK_BYTES_PER_ARRIVAL: f64 = 92.0;

/// The bound on the live heap bytes per arrival that the dispatch plan
/// holds when the pre-pass returns it. The plan holds 56.0: 16 bytes
/// per routed copy, 20 per hedge and 4 per arrival (`assignment`), plus
/// the dropped, rejected and stranding records. A 32-byte hedge record
/// made it 68, and the hedge list and the routed streams at the
/// capacity their doubling left 109.
const PLAN_BYTES_PER_ARRIVAL: f64 = 64.0;

const SHARDS: usize = 4;
const ARRIVALS: usize = 20_000;

/// The protected stack over its 20k-job diurnal stream at about 90 % of
/// four 8-core shards at 2 GHz, swinging ±50 %.
fn protected() -> (JobSet, FaultPlan, OverloadPolicy) {
    let jobs = DiurnalWorkload::millions_of_users(300.0)
        .generate_exact(ARRIVALS, 42)
        .expect("valid workload");
    let end = jobs.last_deadline().expect("non-empty stream");
    let overload = OverloadPolicy {
        admission: AdmissionPolicy::SlackFloor {
            floor: 0.05,
            capacity_ghz: 16.0,
        },
        retry: RetryPolicy::exponential(3, SimDuration::from_millis(5)),
        hedge: HedgePolicy::SlackFraction { fraction: 0.5 },
    };
    let faults = FaultPlan::seeded(SHARDS, end, 42, 97.0, 3.0, 0.5);
    (jobs, faults, overload)
}

#[test]
fn dispatch_pre_pass_peak_and_plan_per_arrival_are_bounded() {
    let (jobs, faults, overload) = protected();
    let end = jobs.last_deadline().expect("non-empty stream");
    HEAP.with(|h| h.set(Some((0, 0))));
    let plan = dispatch_protected(
        &jobs,
        SHARDS,
        &RoutingPolicy::Feedback,
        &PolynomialPower::PAPER_SIM,
        &ExpQuality::PAPER_DEFAULT,
        &faults,
        &overload,
        end,
    );
    let (live, peak) = HEAP.with(|h| h.take()).expect("tracking was on");
    assert!(
        plan.hedges.len() > ARRIVALS / 4,
        "{} hedges",
        plan.hedges.len()
    );
    let per_arrival = live as f64 / ARRIVALS as f64;
    let peak_per_arrival = peak as f64 / ARRIVALS as f64;
    eprintln!(
        "dispatch plan holds {live} bytes over {ARRIVALS} arrivals ({per_arrival:.1} each), \
         {peak_per_arrival:.1} each at the pre-pass peak"
    );
    assert!(
        per_arrival < PLAN_BYTES_PER_ARRIVAL,
        "dispatch plan holds {live} bytes over {ARRIVALS} arrivals ({per_arrival:.1} each)"
    );
    assert!(
        peak_per_arrival < PREPASS_PEAK_BYTES_PER_ARRIVAL,
        "the pre-pass peaks at {peak} bytes over {ARRIVALS} arrivals ({peak_per_arrival:.1} each)"
    );
}

#[test]
fn protected_cluster_peak_heap_per_arrival_is_bounded() {
    let (jobs, faults, overload) = protected();
    let end = jobs.last_deadline().expect("non-empty stream");
    let engine = ClusterEngine::new(SHARDS)
        .with_routing(RoutingPolicy::Feedback)
        .with_fault_plan(faults)
        .with_overload(overload);
    let power = PolynomialPower::PAPER_SIM;
    let quality = ExpQuality::PAPER_DEFAULT;
    let cfg = SimConfig {
        num_cores: 8,
        budget: 320.0,
        model: &power,
        quality: &quality,
        end,
        record_trace: false,
        overhead: SimDuration::ZERO,
    };

    HEAP.with(|h| h.set(Some((0, 0))));
    let report = rayon::with_threads(1, || {
        engine.run(&cfg, &jobs, |_| {
            Box::new(DesPolicy::new()) as Box<dyn SchedulingPolicy>
        })
    });
    let (_, peak) = HEAP.with(|h| h.take()).expect("tracking was on");

    // The stack must actually have fired: hedges duelled, jobs were
    // rejected and retried.
    assert!(report.jobs_hedged > ARRIVALS as u64 / 4, "{report:?}");
    assert!(report.jobs_rejected > 0 && report.jobs_retried > 0);
    let per_arrival = peak as f64 / ARRIVALS as f64;
    eprintln!(
        "peak live heap {peak} bytes over {ARRIVALS} arrivals ({per_arrival:.1} each), \
         {} hedges",
        report.jobs_hedged
    );
    assert!(
        per_arrival < PEAK_BYTES_PER_ARRIVAL,
        "peak live heap {peak} bytes over {ARRIVALS} arrivals ({per_arrival:.1} each)"
    );
}
