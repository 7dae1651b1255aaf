//! The experiment harness: regenerates every table of EXPERIMENTS.md and
//! emits the machine-readable `BENCH_harness.json` report.
//!
//! ```sh
//! cargo run -p qof-bench --release --bin harness            # all experiments
//! cargo run -p qof-bench --release --bin harness -- e2 e4   # a subset
//! cargo run -p qof-bench --release --bin harness -- --small e1 e3   # CI smoke
//! cargo run -p qof-bench --release --bin harness -- --json out.json e12
//! ```
//!
//! Experiment ids: f2 f3 e1 … e10 e12 e13 a1 … a5 (see DESIGN.md §4; a1 is
//! the §5.2 sharing ablation, a2 the static-analyzer overhead on the check
//! and query paths; e11 is retired). `--small` shrinks every corpus to CI scale; `--json PATH`
//! overrides the default report path of `BENCH_harness.json`.

use std::path::PathBuf;
use std::process::ExitCode;

use qof_bench::experiments::{all_ids, run, Scale};
use qof_bench::report::write_json;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Full;
    let mut json_path = PathBuf::from("BENCH_harness.json");
    let mut ids: Vec<String> = Vec::new();
    while let Some(arg) = args.first().cloned() {
        match arg.as_str() {
            "--small" => {
                scale = Scale::Small;
                args.remove(0);
            }
            "--json" => {
                if args.len() < 2 {
                    eprintln!("--json needs a path");
                    return ExitCode::FAILURE;
                }
                json_path = PathBuf::from(args[1].clone());
                args.drain(..2);
            }
            _ => ids.push(args.remove(0)),
        }
    }
    let all = all_ids();
    let run_ids: Vec<&str> =
        if ids.is_empty() { all.clone() } else { ids.iter().map(String::as_str).collect() };

    let mut reports = Vec::new();
    let mut failed = false;
    for id in run_ids {
        match run(id, scale) {
            Some(report) => reports.push(report),
            None => {
                eprintln!("unknown experiment `{id}` (known: {})", all.join(" "));
                failed = true;
            }
        }
    }
    if let Err(e) = write_json(&json_path, scale.label(), &reports) {
        eprintln!("cannot write {}: {e}", json_path.display());
        return ExitCode::FAILURE;
    }
    println!("\nwrote {} ({} experiments)", json_path.display(), reports.len());
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
