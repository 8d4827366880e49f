//! Heap allocations per policy invocation on the budget-bound path.
//!
//! C-DVFS DES on the paper's 16-core, 320 W machine under a 250 req/s
//! web-search stream solves Online-QE for nearly every core on nearly
//! every trigger. Installing those plans must not allocate: the engine
//! keeps each installed plan's slice vector and hands the one it replaces
//! to `qes_core::schedule`'s per-thread free list, from which the next
//! plans are built. What is left per invocation is the decision's own
//! vectors, so the test asserts fewer than 3 allocations per invocation;
//! one allocation per installed plan makes it about 18. A second case
//! makes half the jobs non-partial, so the §V-D discard loop discards
//! jobs and re-solves the survivors: the solver keeps its alive flags and
//! discarded ids in warm buffers, and that case too asserts fewer than 3
//! (it reads about 2.4).
//! A third case runs FCFS+WF on the same stream: the baseline keeps its
//! per-trigger vectors (occupants, the ordered queue, desired speeds,
//! water-filling's requests, grants and scratch) across triggers, so it
//! too allocates little beyond its decision, and the case asserts fewer
//! than 3 (building them afresh made it 11.4).
//!
//! Release builds only: in builds with debug assertions DES re-solves
//! every plan with the general solvers and compares, and those
//! cross-checks allocate on every invocation.
#![cfg(not(debug_assertions))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qes::core::{ExpQuality, SimDuration, SimTime};
use qes::experiments::ExperimentConfig;
use qes::multicore::{BaselineOrder, BaselinePolicy, DesPolicy, SchedulingPolicy};
use qes::sim::{SimConfig, Simulator};
use qes::workload::WebSearchWorkload;

/// Counts the allocation calls (`alloc`, `alloc_zeroed`, `realloc`) the
/// current thread makes while its counter is on; other threads (the test
/// harness) are not counted.
struct Counting;

thread_local! {
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn bump() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down.
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every call is passed unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counting touches only a thread-local
// `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations per policy invocation of `policy` on the paper's 16-core,
/// 320 W machine over 20 s of a 250 req/s web-search stream in which a
/// `partial_fraction` of the jobs supports partial evaluation.
fn allocations_per_invocation(policy: &mut dyn SchedulingPolicy, partial_fraction: f64) -> f64 {
    let jobs = WebSearchWorkload::new(250.0)
        .with_horizon(SimTime::from_secs(20))
        .with_partial_fraction(partial_fraction)
        .generate(42)
        .expect("valid workload");
    let power = ExperimentConfig::paper_default().power;
    let quality = ExpQuality::new(0.003);
    let cfg = SimConfig {
        num_cores: 16,
        budget: 320.0,
        model: &power,
        quality: &quality,
        end: SimTime::from_secs(20),
        record_trace: false,
        overhead: SimDuration::ZERO,
    };
    COUNT.with(|c| c.set(Some(0)));
    let (report, _) = Simulator::run(&cfg, policy, &jobs);
    let allocations = COUNT.with(|c| c.take()).expect("counting was on");

    let invocations = report.counters.wakeups();
    assert!(invocations > 100, "only {invocations} invocations");
    let per_invocation = allocations as f64 / invocations as f64;
    eprintln!(
        "{}, partial fraction {partial_fraction}: {allocations} allocations over \
         {invocations} invocations ({per_invocation:.2} each), {} plans installed, {} jobs \
         discarded",
        report.policy, report.counters.plans_installed, report.counters.jobs_discarded
    );
    per_invocation
}

#[test]
fn budget_bound_des_allocates_under_three_times_per_invocation() {
    let per_invocation = allocations_per_invocation(&mut DesPolicy::new(), 1.0);
    assert!(
        per_invocation < 3.0,
        "{per_invocation:.2} allocations per invocation"
    );
}

/// With half the jobs non-partial, the §V-D discard loop discards jobs
/// and re-solves the survivors in the solver's kept buffers, so what is
/// added per invocation is at most the decision's own discard list.
#[test]
fn discarding_des_allocates_under_three_times_per_invocation() {
    let per_invocation = allocations_per_invocation(&mut DesPolicy::new(), 0.5);
    assert!(
        per_invocation < 3.0,
        "{per_invocation:.2} allocations per invocation"
    );
}

/// FCFS+WF re-levels power and replans every occupied core on every
/// trigger. Its working vectors are kept across triggers, so what is
/// left per trigger is the decision's plan and assignment lists.
#[test]
fn fcfs_wf_allocates_under_three_times_per_invocation() {
    let mut policy = BaselinePolicy::with_wf(BaselineOrder::Fcfs);
    let per_invocation = allocations_per_invocation(&mut policy, 1.0);
    assert!(
        per_invocation < 3.0,
        "{per_invocation:.2} allocations per invocation"
    );
}
