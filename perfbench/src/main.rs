//! The qof benchmark: seeded BibTeX workloads driven through qof's public
//! entry points, end-to-end metrics from an untraced run and per-layer
//! metrics from a traced one.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload lookup|partial|ingest --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a human-readable report, then, as its last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Exits non-zero when any
//! answer check fails. See `perfbench/README.md` for the workloads and
//! metrics.

mod calib;
mod client;
mod common;
mod inputs;
mod stats;
mod trace;
mod traced;
mod untraced;

use std::fmt::Write as _;
use std::process::ExitCode;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Selective lookups on a fully indexed corpus.
    Lookup,
    /// The lookups plus content joins on a partial index.
    Partial,
    /// Lookups interleaved with `add_file` writes.
    Ingest,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "lookup" => Some(Workload::Lookup),
            "partial" => Some(Workload::Partial),
            "ingest" => Some(Workload::Ingest),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Lookup => "lookup",
            Workload::Partial => "partial",
            Workload::Ingest => "ingest",
        }
    }
}

/// Command-line arguments.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds `{value}` out of (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}`: want 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One printed metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count or base, for the human-readable report.
    pub note: String,
}

/// What a run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric { name, value, unit, note });
    }

    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload lookup|partial|ingest --seed N \
                 --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let run = if args.trace { traced::run(&args) } else { untraced::run(&args) };
    let outcome = match run {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# {} seed={} seconds={} trace={}: {} attempted, {} failed",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        outcome.attempted,
        outcome.failed
    );
    for m in &outcome.metrics {
        println!("# {:<32} {:>14.4} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    println!("{}", outcome.json());
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
