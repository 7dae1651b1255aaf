//! Seeded property tests of the accounting every query feeds:
//!
//! * **Span trees.** Every trace the executor assembles is a well-formed
//!   hierarchy of sink-stamped spans — what the Perfetto exporter relies
//!   on. A child span nests inside its parent, sibling spans never overlap,
//!   span ids are a pre-order numbering from 1, phases tile the execution
//!   window in order, and every span fits inside the query's total time.
//! * **Histograms.** The log₂ latency histogram behind `/metrics` and
//!   `qof stats`: quantiles are monotone in `q` and bounded by the recorded
//!   extremes' buckets, merging equals recording the union, and the
//!   Prometheus rendering stays cumulative up to `+Inf` == `_count`.
//! * **Workload table.** The space-saving bounds of the heavy-hitter table
//!   (capacity, conservation, per-entry error bound, top-K residency) and
//!   the pinned lane-widened spelling of the fingerprint hash.
//!
//! Each case runs on its own `StdRng`, seeded from a fixed master stream, so
//! the suites run offline and identically every time. A failing case panics
//! with its seed; `check(&mut StdRng::seed_from_u64(seed))` reproduces it
//! alone.

use std::collections::HashMap;

use qof::corpus::bibtex::{self, BibtexConfig};
use qof::corpus::{Rng, StdRng};
use qof::grammar::IndexSpec;
use qof::pat::{
    fnv1a64, render_prometheus, Histogram, MetricsRegistry, OpTrace, WorkloadObs, WorkloadTable,
    HISTOGRAM_BUCKETS,
};
use qof::text::{Corpus, CorpusBuilder};
use qof::{FileDatabase, QueryTrace};

/// Returns `Err(message)` from the enclosing check when `cond` fails.
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(format!($($msg)+));
        }
    };
}

/// Runs `cases` cases of `check`, each on a fresh `StdRng` whose seed is
/// drawn from the master stream `master`; a failure panics with that seed.
fn run_cases(
    name: &str,
    master: u64,
    cases: usize,
    mut check: impl FnMut(&mut StdRng) -> Result<(), String>,
) {
    let mut seeds = StdRng::seed_from_u64(master);
    for i in 0..cases {
        let seed = seeds.next_u64();
        if let Err(msg) = check(&mut StdRng::seed_from_u64(seed)) {
            panic!("{name}: case {i} failed (seed {seed:#x}): {msg}");
        }
    }
}

/// `len` values drawn by `draw`, with `len` uniform in `lens`.
fn draws<T>(
    rng: &mut StdRng,
    lens: std::ops::Range<usize>,
    mut draw: impl FnMut(&mut StdRng) -> T,
) -> Vec<T> {
    let len = rng.random_range(lens);
    (0..len).map(|_| draw(rng)).collect()
}

/// A latency sample in `[0, 2^40)` nanoseconds.
fn nanos(rng: &mut StdRng) -> u64 {
    rng.next_u64() >> 24
}

// -- span trees ---------------------------------------------------------------

fn bibtex_corpus(files: usize, refs: usize, seed: u64) -> Corpus {
    let mut b = CorpusBuilder::new();
    for i in 0..files {
        let cfg = BibtexConfig {
            n_refs: refs,
            seed: seed.wrapping_mul(31).wrapping_add(i as u64),
            name_pool: 8,
            ..Default::default()
        };
        b.add_file(format!("f{i}.bib"), &bibtex::generate(&cfg).0);
    }
    b.build()
}

const SPAN_QUERIES: [&str; 6] = [
    "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\"",
    "SELECT r FROM References r WHERE r.Year = \"1982\"",
    "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\" AND r.Year = \"1975\"",
    "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\" \
     OR r.Editors.Name.Last_Name = \"Chang\"",
    "SELECT r FROM References r WHERE NOT r.Authors.Name.Last_Name = \"Chang\"",
    "SELECT r.Key FROM References r WHERE r.Authors.Name.Last_Name = \"Milo\"",
];

/// Spans in `ops` are sequential siblings: ordered by start and
/// non-overlapping. Each one's children nest inside it and are sequential
/// in turn.
fn check_spans(ops: &[OpTrace], ctx: &str) -> Result<(), String> {
    for pair in ops.windows(2) {
        ensure!(pair[0].end_nanos() <= pair[1].start_nanos, "sibling spans overlap in {ctx}");
    }
    for op in ops {
        for child in &op.children {
            ensure!(
                child.start_nanos >= op.start_nanos && child.end_nanos() <= op.end_nanos(),
                "child {} [{}+{}] escapes parent {} [{}+{}] in {ctx}",
                child.op,
                child.start_nanos,
                child.nanos,
                op.op,
                op.start_nanos,
                op.nanos
            );
        }
        check_spans(&op.children, ctx)?;
    }
    Ok(())
}

fn collect_ids(ops: &[OpTrace], out: &mut Vec<u64>) {
    for op in ops {
        out.push(op.span_id);
        collect_ids(&op.children, out);
    }
}

fn max_end(ops: &[OpTrace]) -> u64 {
    ops.iter().map(|op| op.end_nanos().max(max_end(&op.children))).max().unwrap_or(0)
}

/// The full invariant bundle for one assembled trace.
fn check_trace(trace: &QueryTrace, ctx: &str) -> Result<(), String> {
    check_spans(&trace.ops, ctx)?;
    let mut ids = Vec::new();
    collect_ids(&trace.ops, &mut ids);
    let expect: Vec<u64> = (1..=ids.len() as u64).collect();
    ensure!(ids == expect, "span ids {ids:?} are not a pre-order renumbering in {ctx}");
    for pair in trace.phases.windows(2) {
        ensure!(
            pair[0].start_nanos + pair[0].nanos <= pair[1].start_nanos,
            "phases {} and {} overlap in {ctx}",
            pair[0].name,
            pair[1].name
        );
    }
    let phase_sum: u64 = trace.phases.iter().map(|p| p.nanos).sum();
    ensure!(
        phase_sum <= trace.total_nanos,
        "phase sum {phase_sum} exceeds total {} in {ctx}",
        trace.total_nanos
    );
    let spans_end = max_end(&trace.ops);
    ensure!(
        spans_end <= trace.total_nanos,
        "span end {spans_end} exceeds total {} in {ctx}",
        trace.total_nanos
    );
    Ok(())
}

/// Every query's trace satisfies the span invariants, on the plan-cache
/// miss path and again on the hit path.
#[test]
fn traces_are_well_formed() {
    run_cases("span trees", 0x5_9a45, 24, |rng| {
        let seed = rng.random_range(0..500) as u64;
        let refs = rng.random_range(4..16);
        let corpus = bibtex_corpus(2, refs, seed);
        let db = FileDatabase::build(corpus, bibtex::schema(), IndexSpec::full()).unwrap();
        for q in SPAN_QUERIES.iter().chain(&SPAN_QUERIES) {
            let (_, trace) = db.query_traced(q).map_err(|e| format!("{q}: {e}"))?;
            check_trace(&trace, &format!("corpus seed {seed}, {refs} refs, {q}"))?;
        }
        Ok(())
    });
}

// -- histograms ---------------------------------------------------------------

fn histogram_of(samples: &[u64]) -> Histogram {
    let mut h = Histogram::default();
    for &s in samples {
        h.record(s);
    }
    h
}

/// quantile(q) is monotone non-decreasing in q, and every quantile of a
/// non-empty histogram lies between the buckets of min and max.
#[test]
fn quantile_is_monotone_in_q() {
    run_cases("quantile order", 0x9_0a47, 256, |rng| {
        let samples = draws(rng, 1..200, nanos);
        #[allow(clippy::cast_precision_loss)]
        let mut qs = draws(rng, 2..10, |r| r.next_u64() as f64 / u64::MAX as f64);
        qs.sort_by(f64::total_cmp);
        let h = histogram_of(&samples);
        let values: Vec<u64> = qs.iter().map(|&q| h.quantile(q)).collect();
        ensure!(values.windows(2).all(|w| w[0] <= w[1]), "not monotone: {values:?} for {qs:?}");
        // A quantile is the exclusive upper bound of its sample's log₂
        // bucket, so it over-approximates by at most 2×.
        let max = *samples.iter().max().unwrap();
        let min = *samples.iter().min().unwrap();
        ensure!(h.quantile(1.0) <= max.max(1).saturating_mul(2), "p100 above 2 × max {max}");
        ensure!(h.quantile(0.0) > min, "p0 not above min {min}");
        Ok(())
    });
}

/// merge(a, b) is indistinguishable from recording a's and b's samples
/// into one histogram: same buckets, count, sum and quantiles.
#[test]
fn merge_equals_recording_the_union() {
    run_cases("histogram merge", 0x3e_a6e, 256, |rng| {
        let a = draws(rng, 0..100, nanos);
        let b = draws(rng, 0..100, nanos);
        let mut merged = histogram_of(&a);
        merged.merge(&histogram_of(&b));
        let union: Vec<u64> = a.iter().chain(&b).copied().collect();
        let direct = histogram_of(&union);
        ensure!(merged.bucket_counts() == direct.bucket_counts(), "buckets differ");
        ensure!(merged.count() == direct.count(), "counts differ");
        ensure!(merged.sum() == direct.sum(), "sums differ");
        for q in [0.0, 0.5, 0.95, 1.0] {
            ensure!(merged.quantile(q) == direct.quantile(q), "quantile {q} differs");
        }
        Ok(())
    });
}

/// The Prometheus rendering of any workload keeps `_bucket` series
/// cumulative, ends them at `+Inf` == `_count`, and reports the exact
/// query and error counters.
#[test]
fn prometheus_rendering_is_cumulative() {
    run_cases("prometheus buckets", 0x7_0e7e, 128, |rng| {
        let latencies = draws(rng, 0..100, |r| (nanos(r), r.next_u64() & 1 == 0));
        let reg = MetricsRegistry::new();
        for &(nanos, ok) in &latencies {
            reg.record_query(nanos, ok);
        }
        let errors = latencies.iter().filter(|(_, ok)| !ok).count();
        let text = render_prometheus(&reg.snapshot((0, 0), (0, 0)));
        ensure!(
            text.contains(&format!("qof_queries_total {}", latencies.len())),
            "query total missing"
        );
        ensure!(text.contains(&format!("qof_query_errors_total {errors}")), "error total missing");
        let buckets: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("qof_query_latency_seconds_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        ensure!(buckets.windows(2).all(|w| w[0] <= w[1]), "not cumulative: {buckets:?}");
        ensure!(buckets.last() == Some(&(latencies.len() as u64)), "+Inf is not the count");
        Ok(())
    });
}

#[test]
fn bucket_bounds_cover_the_index_space() {
    // Every bucket but the last has a finite power-of-two bound, and
    // bounds strictly increase.
    let mut prev = 0;
    for i in 0..HISTOGRAM_BUCKETS - 1 {
        let b = Histogram::bucket_upper_bound(i).unwrap();
        assert!(b.is_power_of_two() && b > prev, "bucket {i}: {b}");
        prev = b;
    }
    assert_eq!(Histogram::bucket_upper_bound(HISTOGRAM_BUCKETS - 1), None);
}

// -- workload table -----------------------------------------------------------

fn obs(fp: u64) -> WorkloadObs<'static> {
    WorkloadObs { fingerprint: fp, exemplar: "shape", nanos: 1_000, bytes: 8 }
}

/// Over skewed streams (fingerprints from a small id space, so both the
/// in-capacity and the eviction regime run): the table never exceeds its
/// capacity, its hit sum equals the observation count, every resident
/// entry's true count lies in `[hits − overcount, hits]`, every
/// fingerprint above `N / K` is resident, and the snapshot order is total.
#[test]
fn space_saving_invariants_hold() {
    run_cases("space saving", 0x5_9ace, 256, |rng| {
        let stream = draws(rng, 1..400, |r| r.random_range(0..24) as u64);
        let capacity = rng.random_range(1..12);
        let table = WorkloadTable::with_capacity(capacity);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &fp in &stream {
            table.observe(&obs(fp));
            *truth.entry(fp).or_insert(0) += 1;
        }
        let snapshot = table.snapshot();
        ensure!(snapshot.len() <= capacity, "{} entries over capacity {capacity}", snapshot.len());
        ensure!(table.total_hits() == stream.len() as u64, "hit sum is not the stream length");
        for e in &snapshot {
            let true_count = truth.get(&e.fingerprint).copied().unwrap_or(0);
            ensure!(
                e.hits - e.overcount <= true_count && true_count <= e.hits,
                "fp {:x}: true {true_count} outside [{}, {}]",
                e.fingerprint,
                e.hits - e.overcount,
                e.hits
            );
        }
        let n = stream.len() as u64;
        for (fp, count) in &truth {
            ensure!(
                *count <= n / capacity as u64 || snapshot.iter().any(|e| e.fingerprint == *fp),
                "fp {fp:x} with {count}/{n} observations missing from a K={capacity} table"
            );
        }
        let pairs: Vec<(u64, u64)> = snapshot.iter().map(|e| (e.hits, e.fingerprint)).collect();
        let mut sorted = pairs.clone();
        sorted.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        ensure!(pairs == sorted, "snapshot order is not hits desc, fingerprint asc");
        Ok(())
    });
}

/// The pinned spelling of `fnv1a64`: whole little-endian 8-byte lanes are
/// folded as one XOR + multiply, the remainder byte-wise.
fn fnv1a64_reference(data: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut i = 0;
    while i + 8 <= data.len() {
        h ^= u64::from_le_bytes(data[i..i + 8].try_into().unwrap());
        h = h.wrapping_mul(PRIME);
        i += 8;
    }
    for &b in &data[i..] {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[test]
fn fnv1a64_matches_the_reference_spelling() {
    run_cases("fnv spelling", 0xf_41a, 512, |rng| {
        let data = draws(rng, 0..64, |r| r.next_u64() as u8);
        ensure!(fnv1a64(&data) == fnv1a64_reference(&data), "digest differs for {data:?}");
        Ok(())
    });
}

#[test]
fn fingerprints_of_distinct_keys_rarely_collide() {
    // Not a collision-resistance proof, a trip-wire: equal inputs agree,
    // and this tiny key space does not collide (a systematic fold bug
    // collides constantly).
    let key = |r: &mut StdRng| -> String {
        draws(r, 1..13, |r| char::from(b'a' + r.random_range(0..26) as u8)).into_iter().collect()
    };
    run_cases("fnv collisions", 0xc0_11de, 512, |rng| {
        let (a, b) = (key(rng), key(rng));
        let (ha, hb) = (fnv1a64(a.as_bytes()), fnv1a64(b.as_bytes()));
        ensure!((a == b) == (ha == hb), "`{a}` and `{b}` hash to {ha:x} and {hb:x}");
        Ok(())
    });
}
