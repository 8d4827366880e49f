//! Command line of the qes workspace benchmark:
//!
//! ```text
//! repobench --workload <des_paper|des_overload|cluster_protected>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the run conditions as one JSON line, then the result as the
//! last line: `{"correct", "attempted", "failed", "metrics"}`, with the
//! end-to-end metrics untraced (`--trace 0`) and the per-layer metrics
//! traced (`--trace 1`). A traced run also writes its spans to
//! `.bench_trace/<workload>-seed<n>.json`.

use std::process::ExitCode;

use qes_repobench::{run, Args, Size, Workload};

const USAGE: &str = "usage: repobench --workload <des_paper|des_overload|cluster_protected> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or(bad("workload"))?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        size: Size::FULL,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&args);
    if args.traced {
        let dir = std::path::Path::new(".bench_trace");
        let path = dir.join(format!("{}-seed{}.json", args.workload.name(), args.seed));
        let body = format!(
            "{{\"context\": {},\n\"result\": {},\n\"spans\": {}}}\n",
            report.context_json(),
            report.result_json(),
            report.spans_json()
        );
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    println!("{{\"context\": {}}}", report.context_json());
    println!("{}", report.result_json());
    ExitCode::SUCCESS
}
