//! Inspect an observability trace CSV (`qes_core::obs::TraceObserver`).
//!
//! ```text
//! # summarize a trace written by QES_TRACE=run.csv <any figure run>
//! cargo run --example trace_inspect -- run.csv
//!
//! # no argument: run a short DES simulation with tracing on and
//! # summarize the stream it produced
//! cargo run --example trace_inspect
//! ```
//!
//! The file format is blocks of `# trace <label> events=N dropped=M`
//! headers, each followed by a `t_us,event,arg1,arg2` header line and
//! event rows — one block per traced run (appends accumulate).

use std::collections::BTreeMap;

use qes::core::{ExpQuality, PolynomialPower, SimDuration, SimTime, TraceObserver};
use qes::multicore::DesPolicy;
use qes::sim::{SimConfig, Simulator};
use qes::workload::WebSearchWorkload;

fn main() {
    let csv = match std::env::args().nth(1) {
        Some(path) => match std::fs::read_to_string(&path) {
            Ok(s) => {
                println!("trace file: {path}");
                s
            }
            Err(e) => {
                eprintln!("trace_inspect: cannot read {path}: {e}");
                std::process::exit(1);
            }
        },
        None => demo_trace(),
    };
    summarize(&csv);
}

/// Run a 10 s DES simulation with a live `TraceObserver` and return its
/// CSV — the zero-setup way to see what the event stream looks like.
fn demo_trace() -> String {
    println!("no trace file given — running a 10 s demo simulation\n");
    let model = PolynomialPower::PAPER_SIM;
    let quality = ExpQuality::PAPER_DEFAULT;
    let jobs = WebSearchWorkload::new(120.0)
        .with_horizon(SimTime::from_secs(10))
        .generate(42)
        .expect("demo workload generates");
    let cfg = SimConfig {
        num_cores: 8,
        budget: 160.0,
        model: &model,
        quality: &quality,
        end: SimTime::from_secs(10),
        record_trace: false,
        overhead: SimDuration::ZERO,
    };
    let mut policy = DesPolicy::new();
    let mut obs = TraceObserver::new();
    let (report, _) = Simulator::run_observed(&cfg, &mut policy, &jobs, &mut obs);
    println!("{report}\n");
    obs.to_csv("demo DES seed=42 rate=120")
}

fn summarize(csv: &str) {
    let mut blocks: Vec<&str> = Vec::new();
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut rows: u64 = 0;
    let mut dropped: u64 = 0;
    let mut first_us: Option<u64> = None;
    let mut last_us: u64 = 0;

    for line in csv.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(hdr) = line.strip_prefix("# trace ") {
            blocks.push(hdr);
            if let Some(d) = hdr
                .split_whitespace()
                .find_map(|w| w.strip_prefix("dropped="))
            {
                dropped += d.parse::<u64>().unwrap_or(0);
            }
            continue;
        }
        if line.starts_with('#') || line.starts_with("t_us,") {
            continue;
        }
        let mut parts = line.splitn(4, ',');
        let (Some(t), Some(event)) = (parts.next(), parts.next()) else {
            continue;
        };
        let Ok(t) = t.parse::<u64>() else {
            eprintln!("trace_inspect: skipping malformed row: {line}");
            continue;
        };
        rows += 1;
        first_us.get_or_insert(t);
        last_us = last_us.max(t);
        *counts.entry(event.to_string()).or_insert(0) += 1;
    }

    println!("blocks: {}", blocks.len());
    for b in &blocks {
        println!("  # {b}");
    }
    println!("events: {rows} ({dropped} dropped by the ring buffer)");
    if let Some(first) = first_us {
        println!(
            "span: {:.3} s ({first} µs .. {last_us} µs)",
            (last_us.saturating_sub(first)) as f64 / 1e6
        );
    }
    println!("by kind:");
    for (name, n) in &counts {
        println!("  {name:<16} {n}");
    }
}
