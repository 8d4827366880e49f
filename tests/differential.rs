//! Per-event vs grouped triggering (§IV-E), and the runs that exercise
//! DES's debug cross-checks.
//!
//! The same workload is pushed through DES under both
//! [`TriggerRequest`]s — per-event (Immediate Scheduling) and grouped
//! (the paper's default) — and two contracts are checked:
//!
//! * **Grouped ≈ Per-event.** Grouped scheduling trades recomputation
//!   for staleness; the paper's claim (§IV-E) is that quality barely
//!   moves. We assert normalized quality within 1 % while the policy is
//!   invoked strictly fewer times.
//! * **DES cross-checks hold.** Debug builds of DES check, on every
//!   invocation, that the per-core live set it plans from equals the
//!   sorted live jobs, that its power probe equals the sorting one, and that
//!   every fast-path plan equals the general solver's (`energy_opt`,
//!   `QeSolver::solve`), bit for bit. The `des_cross_checks_hold_*`
//!   tests drive moderate, overloaded and overhead-shifted runs under
//!   both trigger disciplines so those checks see every branch; run
//!   them with `cargo test --profile ci --test differential`. Every
//!   build checks that each run reached both the budget-free and the
//!   budget-bound branch.

use qes::core::JobSet;
use qes::core::{ExpQuality, PolynomialPower, SimDuration, SimTime};
use qes::multicore::{DesPolicy, SchedulingPolicy, TriggerRequest};
use qes::sim::{SimConfig, SimReport, Simulator};
use qes::workload::WebSearchWorkload;

// The paper's machine (§V-B): the trigger parameters (counter 8 ≈ m/2,
// 500 ms quantum) are tuned for it, and the ≤1 % grouped-quality claim
// is made at these operating points.
const CORES: usize = 16;
const BUDGET: f64 = 320.0;

fn run_des(
    triggers: TriggerRequest,
    jobs: &JobSet,
    end_s: u64,
    overhead: SimDuration,
) -> (SimReport, DesPolicy) {
    let model = PolynomialPower::PAPER_SIM;
    let quality = ExpQuality::new(0.003);
    let cfg = SimConfig {
        num_cores: CORES,
        budget: BUDGET,
        model: &model,
        quality: &quality,
        end: SimTime::from_secs(end_s),
        record_trace: false,
        overhead,
    };
    let mut policy = DesPolicy::new().with_triggers(triggers);
    let (report, _) = Simulator::run(&cfg, &mut policy, jobs);
    (report, policy)
}

/// Moderate load: the budget mostly suffices, so invocations bounce
/// between the step-2 early exit and the WF path.
fn moderate_workload() -> (JobSet, u64) {
    let jobs = WebSearchWorkload::new(100.0)
        .with_horizon(SimTime::from_secs(12))
        .generate(7)
        .unwrap();
    (jobs, 14)
}

/// Overload: the budget binds, WF grants squeeze every core, and
/// Online-QE cuts jobs short.
fn overloaded_workload() -> (JobSet, u64) {
    let jobs = WebSearchWorkload::new(300.0)
        .with_horizon(SimTime::from_secs(6))
        .generate(13)
        .unwrap();
    (jobs, 8)
}

/// Both §IV-E disciplines, labelled for assertion messages.
fn trigger_modes() -> [(&'static str, TriggerRequest); 2] {
    [
        ("per-event", TriggerRequest::per_event()),
        ("grouped", TriggerRequest::paper_default()),
    ]
}

/// Run DES under `triggers` — every invocation passing the debug
/// cross-checks when they are compiled in — and require that the run
/// reached both branches those checks guard: a budget-free solve and a
/// budget-bound Online-QE solve.
fn run_checked(
    name: &str,
    triggers: TriggerRequest,
    jobs: &JobSet,
    end: u64,
    overhead: SimDuration,
) {
    let (_, policy) = run_des(triggers, jobs, end, overhead);
    let mut counters = Vec::new();
    policy.metrics(&mut |key, value| counters.push((key, value)));
    let count = |key: &str| counters.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v);
    println!("{name}: {counters:?}");
    for key in ["des.free_solve", "des.qe_solve"] {
        assert!(count(key) > Some(0), "{name}: {key} never happened");
    }
}

#[test]
fn des_cross_checks_hold_on_moderate_and_overloaded_runs() {
    for (name, (jobs, end)) in [
        ("moderate", moderate_workload()),
        ("overloaded", overloaded_workload()),
    ] {
        assert!(
            jobs.len() >= 400,
            "{name}: workload too small to exercise paths"
        );
        for (label, triggers) in trigger_modes() {
            run_checked(
                &format!("{name}/{label}"),
                triggers,
                &jobs,
                end,
                SimDuration::ZERO,
            );
        }
    }
}

#[test]
fn des_cross_checks_hold_under_scheduling_overhead() {
    // Nonzero overhead delays plan installation, shifting every
    // subsequent trigger instant — a different event interleaving that
    // the per-core live sets must still track exactly.
    let (jobs, end) = overloaded_workload();
    let overhead = SimDuration::from_micros(2_000);
    for (label, triggers) in trigger_modes() {
        run_checked(&format!("overhead/{label}"), triggers, &jobs, end, overhead);
    }
}

#[test]
fn grouped_triggers_hold_quality_within_one_percent_of_per_event() {
    for (name, (jobs, end)) in [
        ("moderate", moderate_workload()),
        ("overloaded", overloaded_workload()),
    ] {
        let (pe, _) = run_des(TriggerRequest::per_event(), &jobs, end, SimDuration::ZERO);
        let (grp, _) = run_des(
            TriggerRequest::paper_default(),
            &jobs,
            end,
            SimDuration::ZERO,
        );
        let dq = (pe.normalized_quality() - grp.normalized_quality()).abs();
        assert!(
            dq <= 0.01,
            "{name}: grouped quality {:.5} vs per-event {:.5} (Δ {:.5})",
            grp.normalized_quality(),
            pe.normalized_quality(),
            dq
        );
        assert!(
            grp.invocations() < pe.invocations(),
            "{name}: grouped should invoke less: {} vs {}",
            grp.invocations(),
            pe.invocations()
        );
    }
}

#[test]
fn grouped_triggers_cut_invocations_substantially() {
    // The point of the rework: most per-event invocations are PlanEnd
    // triggers with nothing to assign. Grouping should eliminate the
    // bulk of them, not shave a few percent.
    let (jobs, end) = moderate_workload();
    let (pe, _) = run_des(TriggerRequest::per_event(), &jobs, end, SimDuration::ZERO);
    let (grp, _) = run_des(
        TriggerRequest::paper_default(),
        &jobs,
        end,
        SimDuration::ZERO,
    );
    assert!(
        (grp.invocations() as f64) < 0.7 * pe.invocations() as f64,
        "grouped {} vs per-event {} invocations",
        grp.invocations(),
        pe.invocations()
    );
}
