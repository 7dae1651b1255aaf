//! The traced run: per-layer metrics from spans the benchmark records
//! around its own calls into each layer.
//!
//! Every workload's traced run profiles all layers on the workload's
//! database and query mix:
//!
//! 1. reads: each query is run once per layer boundary (`parse_query`,
//!    `plan`, `Engine::new`, `query_regions`, word positions, candidate
//!    parsing, `query`, `query_traced`); a layer's time is the difference
//!    between consecutive calls. On `ingest` the reads follow writes.
//! 2. `.qofx`: persist and reopen.
//! 3. HTTP: the reopened copy is served, as `qof serve --from-index` does,
//!    and two closed-loop clients send the mix; round trips are compared
//!    with in-process `query_traced`.
//! 4. writes: `add_file` of each new file on fresh copies of the
//!    workload's database, each followed by one read.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use qof_core::{parse_query, FileDatabase};
use qof_corpus::bibtex;
use qof_grammar::{extract_regions, Parser};
use qof_pat::Engine;
use qof_text::Span;

use crate::calib::{on_reference, Reference};
use crate::common::{
    answers, baseline_mismatches, build_db, http_load, inputs, persist_and_open, start_server,
    warm_plans, Answer, Inputs, RunDir, HTTP_CLIENTS, READS_PER_WRITE,
};
use crate::inputs::{Query, Stream};
use crate::stats::{mean, percentile};
use crate::trace::{span_summary, spans_json, Tracer};
use crate::{Args, Outcome, Workload};

/// Share of `--seconds` spent on the read profile and on the HTTP probe.
const READ_SHARE: f64 = 0.5;
const HTTP_SHARE: f64 = 0.2;
/// Fewest profiled reads and HTTP requests (per client), so each median has
/// enough samples on a slow system.
const MIN_READS: usize = 40;
const MIN_REQUESTS_EACH: usize = 20;
/// Epochs of the write probe: 4 × 25 writes, enough for a p90.
const WRITE_EPOCHS: usize = 4;
/// Candidates parsed per query for `grammar.parse_us_per_candidate`.
const MAX_PARSED: usize = 32;
/// Queries whose spans the artifact keeps.
const ARTIFACT_QUERIES: u64 = 24;

/// Spans, per-layer samples and the counters behind the ratios.
struct Profile {
    tr: Tracer,
    /// Times each profiled read in reference-machine time as well.
    reference: Reference,
    layers: BTreeMap<&'static str, Vec<f64>>,
    candidates: u64,
    results: u64,
    plan_hits: u64,
    plan_lookups: u64,
    attempted: u64,
    failed: u64,
}

impl Profile {
    fn push(&mut self, name: &'static str, value: f64) {
        self.layers.entry(name).or_default().push(value);
    }

    fn samples(&self, name: &str) -> &[f64] {
        self.layers.get(name).map_or(&[], Vec::as_slice)
    }

    fn p50(&self, name: &str) -> Result<f64, String> {
        percentile(self.samples(name), 50.0).map_err(|e| format!("{name}: {e}"))
    }

    fn mean(&self, name: &str) -> Result<f64, String> {
        mean(self.samples(name)).map_err(|e| format!("{name}: {e}"))
    }

    /// Adds the plan-cache delta of a database since `before`.
    fn plan_cache_since(&mut self, db: &FileDatabase, before: qof_core::PlanCacheStats) {
        let after = db.plan_cache_stats();
        let hits = after.hits - before.hits;
        self.plan_hits += hits;
        self.plan_lookups += hits + after.misses - before.misses;
    }
}

/// `.qofx` persist/open measurements.
struct Qofx {
    persist_ms: f64,
    open_ms: f64,
    bytes_per_corpus_byte: f64,
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let inp = inputs(args.workload, args.seed);
    let dir = RunDir::new()?;
    let mut p = Profile {
        tr: Tracer::new(),
        reference: Reference::new(),
        layers: BTreeMap::new(),
        candidates: 0,
        results: 0,
        plan_hits: 0,
        plan_lookups: 0,
        attempted: 0,
        failed: 0,
    };
    let read_time = Duration::from_secs_f64(args.seconds * READ_SHARE);
    let mut stream = inp.mix.stream(inp.stream_seed);
    let qofx_path = dir.path("profile.qofx");

    // 1. Reads, with the answers checked against the baseline afterwards.
    let (db, expected) = if args.workload == Workload::Ingest {
        let db = ingest_reads(&mut p, &inp, &mut stream, read_time)?;
        let expected = answers(&db, &inp.mix)?;
        (db, expected)
    } else {
        let db = build_db(&inp)?;
        let expected = answers(&db, &inp.mix)?;
        let before = db.plan_cache_stats();
        let read_until = Instant::now() + read_time;
        let mut n = 0;
        while n < MIN_READS || Instant::now() < read_until {
            let i = stream.next().expect("streams are endless");
            profile_read(&mut p, &db, &inp.mix.queries[i], Some(&expected[i]))?;
            n += 1;
        }
        p.plan_cache_since(&db, before);
        (db, expected)
    };
    check(&mut p, &db, &inp, &expected);

    // 2. `.qofx`.
    let (opened, qofx) = qofx_probe(&db, &qofx_path)?;
    drop(db);

    // 3. HTTP.
    let http_until = Instant::now() + Duration::from_secs_f64(args.seconds * HTTP_SHARE);
    let (rtts_us, peak_threads) = http_probe(&mut p, opened, &inp, &expected, &dir, http_until)?;

    // 4. Writes.
    write_probe(&mut p, &inp, &mut stream)?;

    let out = report(&p, &qofx, &rtts_us, peak_threads)?;
    write_artifact(args, &p, &out)?;
    Ok(out)
}

/// Runs one query across every layer boundary inside a `read` span.
fn profile_read(
    p: &mut Profile,
    db: &FileDatabase,
    q: &Query,
    answer: Option<&Answer>,
) -> Result<(), String> {
    let text = q.text.as_str();
    let err = |e: qof_core::QueryError| format!("{text}: {e}");
    let schema = db.schema();
    let view = schema.view_symbol("References").ok_or("the schema has no References view")?;
    let parser = Parser::new(&schema.grammar, db.corpus().text());

    let ref_before = p.reference.sample_ms();
    let tr = &mut p.tr;
    tr.next_query();
    let root = tr.begin("read", None);
    let (parsed, parse) = tr.time("query.parse", Some(root), || parse_query(text));
    black_box(parsed.map_err(|e| format!("{text}: {e}"))?);
    let (plan, planned) = tr.time("plan", Some(root), || db.plan(text));
    black_box(plan.map_err(err)?);
    let (_, engine) = tr.time("engine.setup", Some(root), || {
        black_box(Engine::new(db.corpus(), db.word_index(), db.instance()));
    });
    let (regions, indexed) = tr.time("index.regions", Some(root), || db.query_regions(text));
    let (candidates, _, _) = regions.map_err(err)?;
    let (_, positions) = tr.time("text.positions", Some(root), || {
        for w in &q.constants {
            black_box(db.word_index().positions(w));
        }
    });
    let spans: Vec<Span> = candidates.iter().take(MAX_PARSED).map(qof_pat::Region::span).collect();
    let (parsed_ok, grammar) = tr.time("grammar.candidates", Some(root), || {
        spans.iter().filter(|s| black_box(parser.parse_symbol(view, (*s).clone())).is_ok()).count()
    });
    let (res, queried) = tr.time("exec.query", Some(root), || db.query(text));
    let res = res.map_err(err)?;
    let (traced, traced_id) = tr.time("exec.query_traced", Some(root), || db.query_traced(text));
    black_box(traced.map_err(err)?);
    tr.end(root);
    let ref_ms = (ref_before + p.reference.sample_ms()) / 2.0;

    let us = |id| p.tr.us(id);
    let (parse, planned, engine, indexed, queried) =
        (us(parse), us(planned), us(engine), us(indexed), us(queried));
    let (positions, grammar, traced_us) = (us(positions), us(grammar), us(traced_id));
    p.push("query.parse_us", parse);
    p.push("plan.plan_us", planned - parse);
    p.push("engine.setup_us", engine);
    p.push("index.phase_us", indexed - planned - engine);
    p.push("exec.post_index_us", queried - indexed);
    p.push("exec.query_us", queried);
    p.push("exec.query_reference_ms", on_reference(queried / 1e3, ref_ms));
    p.push("server.traced_query_us", traced_us);
    if !q.constants.is_empty() {
        p.push("text.positions_us", positions);
    }
    if !spans.is_empty() {
        p.push("grammar.parse_us_per_candidate", grammar / spans.len() as f64);
    }
    let s = &res.stats;
    p.push("index.ops", s.eval.op_counts.values().sum::<u64>() as f64);
    p.push("index.regions_consumed", s.eval.regions_consumed as f64);
    p.push("index.word_probes", s.eval.word_probes as f64);
    p.push("index.match_points", s.eval.match_points as f64);
    p.push("exec.content_bytes", s.content_bytes as f64);
    p.push("grammar.parse_bytes", s.parse.bytes_scanned as f64);
    p.push("grammar.nodes_built", s.parse.nodes_built as f64);
    p.push("db.value_nodes", s.db.value_nodes as f64);
    p.candidates += s.candidates as u64;
    p.results += s.results as u64;
    p.attempted += 1;
    if parsed_ok != spans.len() || answer.is_some_and(|a| !a.matches(&res)) {
        eprintln!("perfbench: profiled answer or candidate parse differs: {text}");
        p.failed += 1;
    }
    Ok(())
}

/// `ingest`'s reads: epochs of writes, each followed by profiled reads,
/// for `time`. Returns the last epoch's database.
fn ingest_reads(
    p: &mut Profile,
    inp: &Inputs,
    stream: &mut Stream<'_>,
    time: Duration,
) -> Result<FileDatabase, String> {
    let until = Instant::now() + time;
    let mut reads = 0;
    loop {
        let mut db = build_db(inp)?;
        let before = db.plan_cache_stats();
        for (name, text) in &inp.new_files {
            p.tr.next_query();
            let (added, _) = p.tr.time("ingest.add_file", None, || db.add_file(name.clone(), text));
            added.map_err(|e| format!("add_file {name}: {e}"))?;
            for i in stream.by_ref().take(READS_PER_WRITE) {
                profile_read(p, &db, &inp.mix.queries[i], None)?;
                reads += 1;
            }
            if reads >= MIN_READS && Instant::now() >= until {
                p.plan_cache_since(&db, before);
                return Ok(db);
            }
        }
        p.plan_cache_since(&db, before);
    }
}

fn check(p: &mut Profile, db: &FileDatabase, inp: &Inputs, expected: &[Answer]) {
    let checked = inp.mix.checked(inp.stream_seed);
    p.attempted += checked.len() as u64;
    p.failed += baseline_mismatches(db.corpus(), &inp.mix, expected, &checked);
}

/// Persists and reopens `db`.
fn qofx_probe(db: &FileDatabase, path: &Path) -> Result<(FileDatabase, Qofx), String> {
    let (opened, persist_ms, open_ms, bytes) = persist_and_open(db, path)?;
    let bytes_per_corpus_byte = bytes as f64 / f64::from(db.corpus().len());
    Ok((opened, Qofx { persist_ms, open_ms, bytes_per_corpus_byte }))
}

/// Serves `db` and drives it from [`HTTP_CLIENTS`] clients until `until`;
/// returns the round trips in µs and the peak thread count.
fn http_probe(
    p: &mut Profile,
    db: FileDatabase,
    inp: &Inputs,
    expected: &[Answer],
    dir: &RunDir,
    until: Instant,
) -> Result<(Vec<f64>, u64), String> {
    warm_plans(&db, &inp.mix)?;
    let server = start_server(db, &dir.path("query.log"))?;
    let seed = inp.stream_seed ^ 0x5eed;
    let (requests, peak_threads) =
        http_load(server.addr(), &inp.mix, seed, until, MIN_REQUESTS_EACH, true)?;
    server.shutdown();
    let mut rtts = Vec::with_capacity(requests.len());
    for q in requests {
        p.attempted += 1;
        if !q.agrees(&expected[q.query]) {
            eprintln!("perfbench: served answer differs: {}", inp.mix.queries[q.query].text);
            p.failed += 1;
        }
        p.tr.next_query();
        p.tr.record("server.rtt", q.sent, q.done);
        rtts.push((q.done - q.sent).as_secs_f64() * 1e6);
    }
    Ok((rtts, peak_threads))
}

/// `add_file` of every new file on fresh copies of the workload's database,
/// each write followed by one read.
fn write_probe(p: &mut Profile, inp: &Inputs, stream: &mut Stream<'_>) -> Result<(), String> {
    let schema = bibtex::schema();
    for _ in 0..WRITE_EPOCHS {
        let mut db = build_db(inp)?;
        for (name, text) in &inp.new_files {
            let len = u32::try_from(text.len()).map_err(|_| "new file too large")?;
            let tr = &mut p.tr;
            tr.next_query();
            let root = tr.begin("write", None);
            let (parsed, parse) = tr.time("ingest.parse", Some(root), || {
                Parser::new(&schema.grammar, text)
                    .parse_root(0..len)
                    .map(|tree| extract_regions(&tree, &schema.grammar, &inp.spec))
            });
            black_box(parsed.map_err(|e| format!("parse {name}: {e}"))?);
            let (added, add) =
                tr.time("ingest.add_file", Some(root), || db.add_file(name.clone(), text));
            added.map_err(|e| format!("add_file {name}: {e}"))?;
            let q = &inp.mix.queries[stream.next().expect("streams are endless")];
            let (read, first) = tr.time("ingest.first_read", Some(root), || db.query(&q.text));
            black_box(read.map_err(|e| format!("{}: {e}", q.text))?);
            tr.end(root);
            let (parse, add, first) = (tr.us(parse), tr.us(add), tr.us(first));
            p.push("ingest.parse_us", parse);
            p.push("ingest.index_update_us", add - parse);
            p.push("ingest.write_ms", add / 1e3);
            p.push("ingest.first_read_us", first);
            p.attempted += 2;
        }
    }
    Ok(())
}

fn report(p: &Profile, qofx: &Qofx, rtts_us: &[f64], peak_threads: u64) -> Result<Outcome, String> {
    let mut out = Outcome { attempted: p.attempted, failed: p.failed, ..Outcome::default() };
    let reads = format!("n={}", p.samples("exec.query_us").len());
    let per_query = |name: &str| format!("mean of {} queries", p.samples(name).len());
    let layer_names = [
        "query.parse_us",
        "plan.plan_us",
        "engine.setup_us",
        "index.phase_us",
        "exec.post_index_us",
    ];
    let mut layer_sum = 0.0;
    for name in layer_names {
        layer_sum += p.p50(name)?;
    }
    let query_p50 = p.p50("exec.query_us")?;
    let traced_p50 = p.p50("server.traced_query_us")?;
    let rtt_p50 = percentile(rtts_us, 50.0)?;
    let writes = p.samples("ingest.write_ms");
    let nw = format!("n={}", writes.len());

    out.push("query.parse_us", p.p50("query.parse_us")?, "us", reads.clone());
    out.push("plan.plan_us", p.p50("plan.plan_us")?, "us", reads.clone());
    let hit_ratio = p.plan_hits as f64 / p.plan_lookups.max(1) as f64;
    out.push(
        "plan.cache_hit_ratio",
        hit_ratio,
        "ratio",
        format!("base {} lookups", p.plan_lookups),
    );
    out.push("engine.setup_us", p.p50("engine.setup_us")?, "us", reads.clone());
    out.push("index.phase_us", p.p50("index.phase_us")?, "us", reads.clone());
    for name in ["index.ops", "index.regions_consumed", "index.word_probes", "index.match_points"] {
        out.push(name, p.mean(name)?, "count", per_query(name));
    }
    out.push("text.positions_us", p.p50("text.positions_us")?, "us", reads.clone());
    out.push("exec.post_index_us", p.p50("exec.post_index_us")?, "us", reads.clone());
    let cpr = p.candidates as f64 / p.results.max(1) as f64;
    out.push("exec.candidates_per_result", cpr, "ratio", format!("base {} results", p.results));
    out.push(
        "exec.content_bytes",
        p.mean("exec.content_bytes")?,
        "bytes",
        per_query("exec.content_bytes"),
    );
    out.push(
        "grammar.parse_bytes",
        p.mean("grammar.parse_bytes")?,
        "bytes",
        per_query("grammar.parse_bytes"),
    );
    out.push(
        "grammar.nodes_built",
        p.mean("grammar.nodes_built")?,
        "count",
        per_query("grammar.nodes_built"),
    );
    let per_candidate = p.p50("grammar.parse_us_per_candidate")?;
    out.push("grammar.parse_us_per_candidate", per_candidate, "us", reads.clone());
    out.push("db.value_nodes", p.mean("db.value_nodes")?, "count", per_query("db.value_nodes"));
    out.push("ingest.parse_us", p.p50("ingest.parse_us")?, "us", nw.clone());
    out.push("ingest.index_update_us", p.p50("ingest.index_update_us")?, "us", nw.clone());
    out.push("ingest.first_read_us", p.p50("ingest.first_read_us")?, "us", nw.clone());
    out.push("ingest.write_p50_ms", percentile(writes, 50.0)?, "ms", nw.clone());
    out.push("ingest.write_p90_ms", percentile(writes, 90.0)?, "ms", nw);
    let nr = format!("n={}", rtts_us.len());
    out.push("server.rtt_us", rtt_p50, "us", nr.clone());
    out.push("server.traced_query_us", traced_p50, "us", reads.clone());
    out.push("server.gap_us", rtt_p50 - traced_p50, "us", nr);
    out.push(
        "server.trace_overhead_ratio",
        traced_p50 / query_p50,
        "ratio",
        format!("base p50 query {query_p50:.1} us"),
    );
    out.push("server.peak_threads", peak_threads as f64, "count", "during the HTTP load".into());
    out.push("qofx.persist_ms", qofx.persist_ms, "ms", "one persist".into());
    out.push("qofx.open_ms", qofx.open_ms, "ms", "one open".into());
    out.push(
        "qofx.bytes_per_corpus_byte",
        qofx.bytes_per_corpus_byte,
        "ratio",
        "file / corpus".into(),
    );
    let reference_p50 = p.p50("exec.query_reference_ms")?;
    out.push(
        "trace.latency_p50_ms",
        reference_p50,
        "ms",
        format!("{reads}, reference machine; wall time {:.3} ms", query_p50 / 1e3),
    );
    out.push(
        "trace.layer_coverage_ratio",
        layer_sum / query_p50,
        "ratio",
        "sum of layer p50s / query p50".into(),
    );
    Ok(out)
}

/// Writes the per-layer metrics and the spans of the first queries to
/// `perfbench/layers/<workload>.json`.
fn write_artifact(args: &Args, p: &Profile, out: &Outcome) -> Result<(), String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("layers");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut json = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"http_clients\": {HTTP_CLIENTS},\n  \"metrics\": {{",
        args.workload.name(),
        args.seed,
        args.seconds
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            json,
            "{sep}\n    \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"note\": \"{}\"}}",
            m.name, m.value, m.unit, m.note
        );
    }
    json.push_str("\n  },\n  \"span_summary\": [");
    for (i, (name, count, dur, self_us)) in span_summary(p.tr.spans()).into_iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            json,
            "{sep}\n    {{\"name\": \"{name}\", \"count\": {count}, \"median_us\": {dur:.3}, \
             \"median_self_us\": {self_us:.3}}}"
        );
    }
    let _ =
        write!(json, "\n  ],\n  \"spans\": {}\n}}\n", spans_json(p.tr.spans(), ARTIFACT_QUERIES));
    let path = dir.join(format!("{}.json", args.workload.name()));
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))
}
