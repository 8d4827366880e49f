//! A tiny-size run of every workload: the emitted metric names match
//! `BENCHMARK.json`, no operation fails, and the simulated fingerprint
//! repeats across runs and between the traced and untraced paths.

use std::sync::Arc;

use qes_repobench::trace::{traced_run, Recorder};
use qes_repobench::workload::prepare;
use qes_repobench::{run, Args, Size, Workload};

/// The `"name"` fields of the `key` array in `BENCHMARK.json`.
fn declared(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let array = &text[start..];
    let array = &array[..array.find(']').expect("the array is closed")];
    array
        .split("\"name\"")
        .skip(1)
        .map(|field| {
            let value = field.split('"').nth(1).expect("a quoted name");
            value.to_string()
        })
        .collect()
}

fn tiny(workload: Workload, traced: bool) -> Args {
    Args {
        workload,
        seed: 7,
        seconds: 0.01,
        traced,
        size: Size::TINY,
    }
}

fn names(args: &Args) -> Vec<String> {
    let report = run(args);
    assert_eq!(report.failed, 0, "{:?}: a tiny run failed", args.workload);
    assert!(report.attempted >= 1);
    if !args.traced {
        assert!(
            report.correct,
            "{:?}: untraced run incorrect",
            args.workload
        );
    }
    assert!(report.metrics.iter().all(|m| m.value.is_finite()));
    report.metrics.iter().map(|m| m.name.to_string()).collect()
}

#[test]
fn workload_names_match_the_declared_workloads() {
    let declared = declared("workloads");
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared, ours);
}

#[test]
fn untraced_runs_emit_the_end_to_end_metrics() {
    let declared = declared("end_to_end");
    for w in Workload::ALL {
        assert_eq!(names(&tiny(w, false)), declared, "{w:?}");
    }
}

#[test]
fn traced_runs_emit_the_per_layer_metrics() {
    let declared = declared("per_layer");
    for w in Workload::ALL {
        assert_eq!(names(&tiny(w, true)), declared, "{w:?}");
    }
}

#[test]
fn fingerprint_repeats_traced_and_untraced() {
    for w in Workload::ALL {
        let p = prepare(w, 7, Size::TINY);
        let first = p.run();
        first.check(&p).expect("the tiny run passes its checks");
        assert!(first.same_bits(&p.run()), "{w:?}: rerun differs");
        let rec = Recorder::new();
        let traced = traced_run(&p, &Arc::clone(&rec));
        assert!(
            first.same_bits(&traced.outcome),
            "{w:?}: traced run differs"
        );
        assert!(!rec.spans().is_empty());
        // Regenerating from the same seed gives the same inputs.
        assert!(first.same_bits(&prepare(w, 7, Size::TINY).run()));
    }
}
