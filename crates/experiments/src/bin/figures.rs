//! CLI driver regenerating the paper's figures.
//!
//! ```text
//! figures <fig01|fig02|...|fig11|all> [--full] [--seed N] [--out DIR]
//! ```
//!
//! Prints each figure as an ASCII table and writes a CSV per panel. By
//! default runs the quick profile (30 s horizon); `--full` switches to
//! the paper's 1800 s horizon and fine rate grid (use `--release`!).
//!
//! Exits 2 on a usage error. A failed CSV write does not stop the run,
//! but the run then exits 1, so a caller diffing two output directories
//! never compares two empty ones.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use qes_experiments::figures::{
    ablation, cluster, cluster_faults, cluster_overload, competitive, demand_dist, diurnal, fig01,
    fig02, fig03, fig04, fig05, fig06, fig07, fig08, fig09, fig10, fig11, tail, triggers,
    FigOptions,
};
use qes_experiments::report::FigureReport;

fn usage() -> ExitCode {
    eprintln!(
        "usage: figures <fig01..fig11|ablation|cluster|cluster_faults|cluster_overload|diurnal|tail|competitive|triggers|demand_dist|all> [--full] [--seed N] [--out DIR]\n\
         \n\
         --full    paper-scale runs (1800 s horizon; pair with --release)\n\
         --seed N  workload seed (default 42)\n\
         --out DIR CSV output directory (default target/experiments)"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Option<String> = None;
    let mut opt = FigOptions::default();
    let mut out = PathBuf::from("target/experiments");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => opt.full = true,
            "--seed" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                opt.seed = v;
            }
            "--out" => {
                i += 1;
                let Some(v) = args.get(i) else { return usage() };
                out = PathBuf::from(v);
            }
            s if which.is_none() && !s.starts_with('-') => which = Some(s.to_string()),
            _ => return usage(),
        }
        i += 1;
    }
    let Some(which) = which else { return usage() };

    let all = [
        "fig01",
        "fig02",
        "fig03",
        "fig04",
        "fig05",
        "fig06",
        "fig07",
        "fig08",
        "fig09",
        "fig10",
        "fig11",
        "ablation",
        "cluster",
        "cluster_faults",
        "cluster_overload",
        "diurnal",
        "tail",
        "competitive",
        "triggers",
        "demand_dist",
    ];
    let selected: Vec<&str> = if which == "all" {
        all.to_vec()
    } else if all.contains(&which.as_str()) {
        vec![which.as_str()]
    } else {
        return usage();
    };

    let mut write_failed = false;
    for id in selected {
        let t0 = Instant::now();
        let reports: Vec<FigureReport> = match id {
            "fig01" => vec![fig01::run()],
            "fig02" => vec![fig02::run()],
            "fig03" => fig03::run(&opt),
            "fig04" => fig04::run(&opt),
            "fig05" => fig05::run(&opt),
            "fig06" => fig06::run(&opt),
            "fig07" => fig07::run(&opt),
            "fig08" => fig08::run(&opt),
            "fig09" => fig09::run(&opt),
            "fig10" => fig10::run(&opt),
            "fig11" => fig11::run(&opt),
            "ablation" => ablation::run(&opt),
            "cluster" => cluster::run(&opt),
            "cluster_faults" => cluster_faults::run(&opt),
            "cluster_overload" => cluster_overload::run(&opt),
            "diurnal" => diurnal::run(&opt),
            "tail" => tail::run(&opt),
            "competitive" => competitive::run(&opt),
            "triggers" => triggers::run(&opt),
            "demand_dist" => demand_dist::run(&opt),
            _ => unreachable!(),
        };
        for r in &reports {
            print!("{}", r.to_table());
            match r.write_csv(&out) {
                Ok(p) => println!("  csv: {}", p.display()),
                Err(e) => {
                    eprintln!("  csv write failed: {e}");
                    write_failed = true;
                }
            }
            println!();
        }
        eprintln!("[{id} done in {:.1?}]", t0.elapsed());
    }
    if write_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
