//! The untraced run: end-to-end metrics only, every time in ms or s of the
//! reference machine (see [`crate::calib`]).
//!
//! One process sets the database up [`SETUPS`] times, answers every
//! distinct query text once (which also fills the plan cache), then loads
//! the last database for `--seconds` with one closed-loop client. Peak
//! memory is read when the load ends; the answers are then checked against
//! the database baseline.

use std::time::{Duration, Instant};

use qof_core::{FileDatabase, QueryResult};

use crate::calib::{Reference, Timed};
use crate::common::{
    answers, baseline_mismatches, build_db, inputs, peak_rss_mb, Answer, Inputs, READS_PER_WRITE,
};
use crate::stats::{mean, median, percentile};
use crate::{Args, Outcome, Workload};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// What the load measured.
#[derive(Default)]
struct Load {
    reads: Vec<Timed>,
    writes: Vec<Timed>,
    /// Bytes each read touched, as a share of the corpus.
    fractions: Vec<f64>,
    failed: u64,
}

impl Load {
    /// Records one read; a read whose answer `agrees` rejects counts as
    /// failed.
    fn read(
        &mut self,
        db: &FileDatabase,
        text: &str,
        res: Result<QueryResult, qof_core::QueryError>,
        t: Timed,
        agrees: impl FnOnce(&QueryResult) -> bool,
    ) {
        match res {
            Ok(res) if agrees(&res) => {
                self.reads.push(t);
                self.fractions
                    .push(res.stats.bytes_touched() as f64 / f64::from(db.corpus().len()));
            }
            Ok(_) => {
                eprintln!("perfbench: answer differs: {text}");
                self.failed += 1;
            }
            Err(e) => {
                eprintln!("perfbench: {text}: {e}");
                self.failed += 1;
            }
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let inp = inputs(args.workload, args.seed);
    let seconds = Duration::from_secs_f64(args.seconds);
    let mut reference = Reference::new();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut db = None;
    for _ in 0..SETUPS {
        drop(db.take());
        let (built, t) = reference.time(|| build_db(&inp));
        db = Some(built?);
        setups.push(t);
    }
    let db = db.expect("at least one set-up");

    let mut load = Load::default();
    let (db, expected, rss_mb) = if args.workload == Workload::Ingest {
        let db = ingest(db, &inp, seconds, &mut reference, &mut load)?;
        let rss_mb = peak_rss_mb()?;
        // The answers on the corpus the load ended with.
        let expected = answers(&db, &inp.mix)?;
        (db, expected, rss_mb)
    } else {
        let expected = answers(&db, &inp.mix)?;
        reads(&db, &inp, &expected, seconds, &mut reference, &mut load);
        (db, expected, peak_rss_mb()?)
    };
    let checked = inp.mix.checked(inp.stream_seed);
    let mismatches = baseline_mismatches(db.corpus(), &inp.mix, &expected, &checked);

    let mut out = Outcome {
        attempted: (load.reads.len() + load.writes.len()) as u64
            + load.failed
            + checked.len() as u64,
        failed: load.failed + mismatches,
        ..Outcome::default()
    };
    let ms: Vec<f64> = load.reads.iter().map(|t| t.ms()).collect();
    let raw: Vec<f64> = load.reads.iter().map(|t| t.wall_ms).collect();
    let refs: Vec<f64> = load.reads.iter().map(|t| t.ref_ms).collect();
    let busy_ms: f64 = load.reads.iter().chain(&load.writes).map(|t| t.ms()).sum();
    let n = ms.len();
    let wall = |p: f64| -> Result<String, String> {
        Ok(format!(
            "n={n}; wall time {:.3} ms, reference {:.3} ms",
            percentile(&raw, p)?,
            median(&refs)?
        ))
    };
    let setup_ms: Vec<f64> = setups.iter().map(|t| t.ms()).collect();
    let setup_wall: Vec<f64> = setups.iter().map(|t| t.wall_ms).collect();
    out.push(
        "setup_s",
        median(&setup_ms)? / 1e3,
        "s",
        format!("median of {SETUPS}; wall time {:.3} s", median(&setup_wall)? / 1e3),
    );
    out.push("latency_p50_ms", percentile(&ms, 50.0)?, "ms", wall(50.0)?);
    out.push("latency_p90_ms", percentile(&ms, 90.0)?, "ms", wall(90.0)?);
    out.push(
        "throughput_qps",
        n as f64 / busy_ms * 1e3,
        "1/s",
        format!("{n} reads, {} writes", load.writes.len()),
    );
    out.push("read_fraction", mean(&load.fractions)?, "ratio", format!("n={n}"));
    out.push("peak_rss_mb", rss_mb, "MB", "VmHWM at the end of the load".into());
    Ok(out)
}

/// `lookup` and `partial`: one closed-loop client calling `query`, each
/// answer compared with the one taken before timing.
fn reads(
    db: &FileDatabase,
    inp: &Inputs,
    expected: &[Answer],
    seconds: Duration,
    reference: &mut Reference,
    load: &mut Load,
) {
    let start = Instant::now();
    for query in inp.mix.stream(inp.stream_seed) {
        if start.elapsed() >= seconds {
            break;
        }
        let text = &inp.mix.queries[query].text;
        let (res, t) = reference.time(|| db.query(text));
        load.read(db, text, res, t, |res| expected[query].matches(res));
    }
}

/// `ingest`: from the base corpus, one `add_file` then a fixed number of
/// reads, over and over. Every [`crate::common::WRITES_PER_EPOCH`] writes
/// the database is rebuilt from its base outside the measured time, so a
/// faster system does not end up reading a larger corpus. Returns the
/// database the load ended with.
fn ingest(
    mut db: FileDatabase,
    inp: &Inputs,
    seconds: Duration,
    reference: &mut Reference,
    load: &mut Load,
) -> Result<FileDatabase, String> {
    let mut stream = inp.mix.stream(inp.stream_seed);
    let mut busy = Duration::ZERO;
    loop {
        let start = Instant::now();
        for (name, text) in &inp.new_files {
            let (added, t) = reference.time(|| db.add_file(name.clone(), text));
            match added {
                Ok(()) => load.writes.push(t),
                Err(e) => {
                    eprintln!("perfbench: add_file {name}: {e}");
                    load.failed += 1;
                }
            }
            for query in stream.by_ref().take(READS_PER_WRITE) {
                let text = &inp.mix.queries[query].text;
                let (res, t) = reference.time(|| db.query(text));
                // The answers change with every write; the corpus the load
                // ends with is checked against the baseline afterwards.
                load.read(&db, text, res, t, |_| true);
            }
            if busy + start.elapsed() >= seconds {
                return Ok(db);
            }
        }
        busy += start.elapsed();
        drop(db);
        db = build_db(inp)?;
    }
}
