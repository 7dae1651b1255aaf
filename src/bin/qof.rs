//! `qof` — a command-line front end to the file-query engine.
//!
//! ```sh
//! qof generate bibtex 100 > refs.bib
//! qof query bibtex refs.bib 'SELECT r FROM References r WHERE r.Year = "1982"'
//! qof explain bibtex refs.bib 'SELECT r FROM References r WHERE r.*X.Last_Name = "Chang"'
//! qof rig bibtex
//! qof advise bibtex 'SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"'
//! qof serve bibtex --port 7878 --log query.log refs.bib
//! ```
//!
//! Built-in structuring schemas: `bibtex`, `mail`, `logs`, `sgml`, `code`
//! (see `qof::corpus` for the formats). Pass `--index A,B,C` before the
//! query to use a partial region index instead of full indexing.

use std::process::ExitCode;

use qof::corpus::{bibtex, code, logs, mail, sgml};
use qof::grammar::{IndexSpec, StructuringSchema};
use qof::text::{Corpus, CorpusBuilder};
use qof::{advise, fmt_nanos, parse_query, FileDatabase, Rig, Severity};

/// Writes to stdout, the one way this program prints its output. A reader
/// that closed early (`qof stats … | head -5`) ends the process quietly
/// with success; any other write error ends it with a message on stderr.
fn write_stdout(args: std::fmt::Arguments) {
    if let Err(e) = std::io::Write::write_fmt(&mut std::io::stdout().lock(), args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: writing to stdout: {e}");
        std::process::exit(1);
    }
}

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => { write_stdout(format_args!($($arg)*)) };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => { write_stdout(format_args!("{}\n", format_args!($($arg)*))) };
}

fn schema_by_name(name: &str) -> Option<StructuringSchema> {
    Some(match name {
        "bibtex" => bibtex::schema(),
        "mail" => mail::schema(),
        "logs" => logs::schema(),
        "sgml" => sgml::schema(),
        "code" => code::schema(),
        _ => return None,
    })
}

fn generate_by_name(name: &str, count: usize) -> Option<String> {
    Some(match name {
        "bibtex" => bibtex::generate(&bibtex::BibtexConfig::with_refs(count)).0,
        "mail" => mail::generate(&mail::MailConfig { n_messages: count, ..Default::default() }).0,
        "logs" => logs::generate(&logs::LogConfig { n_sessions: count, ..Default::default() }).0,
        "sgml" => sgml::generate(&sgml::SgmlConfig { top_sections: count, ..Default::default() }).0,
        "code" => code::generate(&code::CodeConfig { n_functions: count, ..Default::default() }).0,
        _ => return None,
    })
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         qof generate <schema> <count>\n  \
         qof rig <schema> [indexed,names]\n  \
         qof query   <schema> [--index A,B,C] [--from-index F.qofx]\n              \
         [--explain-analyze] [--trace-json FILE] [--trace-perfetto FILE]\n              \
         [<file>...] <query>\n  \
         qof explain <schema> [--index A,B,C] [--from-index F.qofx] [<file>...] <query>\n  \
         qof stats   <schema> [--index A,B,C] [--from-index F.qofx] [--json]\n              \
         [--workload] [<file>...] <query>...\n  \
         qof serve   <schema> [--index A,B,C] [--from-index F.qofx]\n              \
         [--port P] [--log FILE] [--qlog-max-bytes N] [--slow-ms MS] [--recorder N]\n              \
         [--timeout-ms MS] [<file>...]\n  \
         qof index build   <schema> [--index A,B,C] --out F.qofx <file>...\n  \
         qof index inspect <F.qofx>\n  \
         qof advise  <schema> <query>...\n  \
         qof check   <schema> [--index A,B,C] [--json] [<query>...]\n\
         schemas: bibtex mail logs sgml code"
    );
    ExitCode::from(2)
}

fn load_corpus(files: &[String]) -> Result<Corpus, String> {
    let mut b = CorpusBuilder::new();
    for f in files {
        let contents = std::fs::read_to_string(f).map_err(|e| format!("cannot read `{f}`: {e}"))?;
        b.add_file(f.clone(), &contents);
    }
    Ok(b.build())
}

fn build_db(
    schema: StructuringSchema,
    files: &[String],
    index: Option<&str>,
) -> Result<FileDatabase, String> {
    let corpus = load_corpus(files)?;
    let spec = match index {
        None => IndexSpec::full(),
        Some(names) => IndexSpec::names(names.split(',').map(str::trim)),
    };
    FileDatabase::build(corpus, schema, spec).map_err(|e| e.to_string())
}

/// Builds the database from source files, or reopens it from a persisted
/// `.qofx` index when `--from-index` was given (O(1) start: no parsing,
/// no tokenizing; posting lists page in from the file on demand). A
/// corrupt or unreadable index file falls back to a fresh build when
/// source files are at hand, and errors out otherwise.
fn load_db(
    schema: StructuringSchema,
    files: &[String],
    index: Option<&str>,
    from_index: Option<&str>,
) -> Result<FileDatabase, String> {
    let Some(path) = from_index else {
        return build_db(schema, files, index);
    };
    if files.is_empty() {
        return FileDatabase::open(path, schema).map_err(|e| e.to_string());
    }
    let corpus = load_corpus(files)?;
    let (db, why) = FileDatabase::open_or_rebuild(path, schema, |schema| {
        let spec = match index {
            None => IndexSpec::full(),
            Some(names) => IndexSpec::names(names.split(',').map(str::trim)),
        };
        FileDatabase::build(corpus, schema, spec)
    })
    .map_err(|e| e.to_string())?;
    if let Some(why) = why {
        eprintln!("qof: index `{path}` unusable ({why}); rebuilt from source files");
    }
    Ok(db)
}

/// `qof stats`: runs every query against the corpus, then prints the
/// database's metrics snapshot (queries executed, plan-cache hit ratio,
/// p50/p95 phase and operator latencies). Trailing arguments are files when they
/// exist on disk and queries otherwise — queries contain spaces and SELECT
/// keywords, never bare readable paths.
fn run_stats(
    schema: StructuringSchema,
    rest: Vec<String>,
    index: Option<&str>,
    from_index: Option<&str>,
    json: bool,
    workload: bool,
) -> Result<ExitCode, String> {
    let (files, queries): (Vec<String>, Vec<String>) =
        rest.into_iter().partition(|a| std::path::Path::new(a).is_file());
    if (files.is_empty() && from_index.is_none()) || queries.is_empty() {
        return Ok(usage());
    }
    let db = load_db(schema, &files, index, from_index)?;
    for q in &queries {
        if let Err(e) = db.query(q) {
            eprintln!("error in `{q}`: {e}");
        }
    }
    if workload {
        let table = db.workload();
        let entries = table.snapshot();
        if json {
            // The same envelope the server's `GET /workload` serves.
            outln!("{}", qof::pat::workload_to_json(&entries, table.capacity()));
        } else {
            out!("{}", render_workload_table(&entries));
        }
        return Ok(ExitCode::SUCCESS);
    }
    let snap = db.metrics_snapshot();
    if json {
        // The same serializer that backs the server's `GET
        // /metrics?format=json`, so the two surfaces cannot drift.
        outln!("{}", qof::pat::snapshot_to_json(&snap));
        return Ok(ExitCode::SUCCESS);
    }
    outln!("queries executed:   {} ({} errors)", snap.queries, snap.query_errors);
    outln!(
        "plan cache:         {:.1}% hits ({} hits / {} misses)",
        snap.plan_cache_hit_rate() * 100.0,
        snap.plan_cache_hits,
        snap.plan_cache_misses
    );
    #[allow(clippy::cast_precision_loss)]
    let per_byte = if snap.corpus_bytes == 0 {
        0.0
    } else {
        snap.index_bytes as f64 / snap.corpus_bytes as f64
    };
    outln!(
        "index bytes:        {} — {per_byte:.3} per corpus byte ({} corpus bytes)",
        snap.index_bytes,
        snap.corpus_bytes
    );
    let ql = snap.query_latency.summary();
    outln!(
        "query latency:      p50 {}  p95 {}  ({} samples)",
        fmt_nanos(ql.p50_nanos),
        fmt_nanos(ql.p95_nanos),
        ql.count
    );
    outln!("phase latencies:");
    for (phase, h) in &snap.phase_latency {
        let s = h.summary();
        outln!(
            "  {phase:<18} p50 {:>8}  p95 {:>8}  ×{}",
            fmt_nanos(s.p50_nanos),
            fmt_nanos(s.p95_nanos),
            s.count
        );
    }
    outln!("operator latencies:");
    for (op, h) in &snap.op_latency {
        let s = h.summary();
        outln!(
            "  {op:<6} p50 {:>8}  p95 {:>8}  ×{}",
            fmt_nanos(s.p50_nanos),
            fmt_nanos(s.p95_nanos),
            s.count
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// The human rendering of a workload snapshot (`qof stats --workload`).
fn render_workload_table(entries: &[qof::pat::WorkloadEntry]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if entries.is_empty() {
        let _ = writeln!(out, "  (no queries yet)");
        return out;
    }
    let _ =
        writeln!(out, "  {:<16} {:>6} {:>9} {:>9}  exemplar", "fingerprint", "hits", "p50", "p95");
    for e in entries {
        let s = e.latency.summary();
        let mut q: String = e.exemplar.split_whitespace().collect::<Vec<_>>().join(" ");
        if q.chars().count() > 44 {
            q = q.chars().take(43).collect::<String>() + "…";
        }
        let _ = writeln!(
            out,
            "  {:016x} {:>6} {:>9} {:>9}  {q}",
            e.fingerprint,
            e.hits,
            fmt_nanos(s.p50_nanos),
            fmt_nanos(s.p95_nanos),
        );
    }
    out
}

/// `qof serve` knobs beyond the shared query flags.
struct ServeOpts {
    port: u16,
    log_path: Option<String>,
    qlog_max_bytes: u64,
    slow_ms: u64,
    recorder: usize,
    timeout_ms: u64,
}

/// `qof serve`: loads the corpus once, then serves queries over HTTP until
/// killed (or until `POST /shutdown`). See `qof::server` for endpoints.
fn run_serve(
    schema: StructuringSchema,
    files: &[String],
    index: Option<&str>,
    from_index: Option<&str>,
    opts: &ServeOpts,
) -> Result<ExitCode, String> {
    use qof::server::{serve, QueryLog, ServerConfig, DEFAULT_QLOG_KEEP};
    if files.is_empty() && from_index.is_none() {
        return Ok(usage());
    }
    let started = std::time::Instant::now();
    let db = load_db(schema, files, index, from_index)?;
    eprintln!(
        "qof serve: ready in {:.1}ms ({} index bytes)",
        started.elapsed().as_secs_f64() * 1e3,
        db.index_bytes()
    );
    let log = match opts.log_path.as_deref() {
        None => QueryLog::discard(),
        // The rotating log with a zero cap is a plain append-only file.
        Some(path) => {
            QueryLog::rotating(std::path::Path::new(path), opts.qlog_max_bytes, DEFAULT_QLOG_KEEP)
                .map_err(|e| format!("cannot open log `{path}`: {e}"))?
        }
    };
    let listener = std::net::TcpListener::bind(("127.0.0.1", opts.port))
        .map_err(|e| format!("cannot bind 127.0.0.1:{}: {e}", opts.port))?;
    let config = ServerConfig {
        slow_ms: opts.slow_ms,
        recorder_capacity: opts.recorder,
        timeout_ms: opts.timeout_ms,
    };
    let handle = serve(db, listener, log, &config).map_err(|e| e.to_string())?;
    eprintln!("qof serve: listening on http://{}", handle.addr());
    eprintln!("  POST /query            query text in body (?explain=1 for a trace)");
    eprintln!("  GET  /metrics          Prometheus text (?format=json)");
    eprintln!("  GET  /healthz          liveness");
    eprintln!("  GET  /flight-recorder  retained traces (/{{id}}, ?format=perfetto)");
    eprintln!("  GET  /workload         per-fingerprint heavy hitters (?format=prometheus)");
    eprintln!("  POST /shutdown");
    handle.wait();
    eprintln!("qof serve: shut down");
    Ok(ExitCode::SUCCESS)
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        return Ok(usage());
    };
    match cmd {
        "generate" => {
            let (Some(schema), Some(count)) = (args.get(1), args.get(2)) else {
                return Ok(usage());
            };
            let count: usize = count.parse().map_err(|_| "count must be a number".to_owned())?;
            let text = generate_by_name(schema, count)
                .ok_or_else(|| format!("unknown schema `{schema}`"))?;
            out!("{text}");
            Ok(ExitCode::SUCCESS)
        }
        "rig" => {
            let Some(name) = args.get(1) else { return Ok(usage()) };
            let schema = schema_by_name(name).ok_or_else(|| format!("unknown schema `{name}`"))?;
            let full = Rig::from_grammar(&schema.grammar);
            match args.get(2) {
                None => out!("{full}"),
                Some(names) => {
                    let indexed = names.split(',').map(|s| s.trim().to_owned()).collect();
                    out!("{}", full.partial(&indexed));
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        "query" | "explain" | "stats" | "serve" => {
            let Some(name) = args.get(1) else { return Ok(usage()) };
            let schema = schema_by_name(name).ok_or_else(|| format!("unknown schema `{name}`"))?;
            let mut rest: Vec<String> = args[2..].to_vec();
            let mut index: Option<String> = None;
            let mut from_index: Option<String> = None;
            let mut explain_analyze = false;
            let mut trace_json: Option<String> = None;
            let mut trace_perfetto: Option<String> = None;
            let mut json = false;
            let mut workload = false;
            let mut port: u16 = 7878;
            let mut log_path: Option<String> = None;
            let mut qlog_max_bytes: u64 = 0;
            let mut slow_ms: u64 = 100;
            let mut recorder: usize = 64;
            let mut timeout_ms: u64 = 30_000;
            loop {
                match rest.first().map(String::as_str) {
                    Some("--index") => {
                        if rest.len() < 2 {
                            return Ok(usage());
                        }
                        index = Some(rest[1].clone());
                        rest.drain(..2);
                    }
                    Some("--from-index") => {
                        if rest.len() < 2 {
                            return Ok(usage());
                        }
                        from_index = Some(rest[1].clone());
                        rest.drain(..2);
                    }
                    Some("--explain-analyze") => {
                        explain_analyze = true;
                        rest.remove(0);
                    }
                    Some("--trace-json") => {
                        if rest.len() < 2 {
                            return Ok(usage());
                        }
                        trace_json = Some(rest[1].clone());
                        rest.drain(..2);
                    }
                    Some("--trace-perfetto") => {
                        if rest.len() < 2 {
                            return Ok(usage());
                        }
                        trace_perfetto = Some(rest[1].clone());
                        rest.drain(..2);
                    }
                    Some("--json") => {
                        json = true;
                        rest.remove(0);
                    }
                    Some("--workload") => {
                        workload = true;
                        rest.remove(0);
                    }
                    Some("--port") => {
                        if rest.len() < 2 {
                            return Ok(usage());
                        }
                        port = rest[1].parse().map_err(|_| "--port needs a port".to_owned())?;
                        rest.drain(..2);
                    }
                    Some("--log") => {
                        if rest.len() < 2 {
                            return Ok(usage());
                        }
                        log_path = Some(rest[1].clone());
                        rest.drain(..2);
                    }
                    Some("--slow-ms") => {
                        if rest.len() < 2 {
                            return Ok(usage());
                        }
                        slow_ms =
                            rest[1].parse().map_err(|_| "--slow-ms needs a number".to_owned())?;
                        rest.drain(..2);
                    }
                    Some("--recorder") => {
                        if rest.len() < 2 {
                            return Ok(usage());
                        }
                        recorder = rest[1]
                            .parse()
                            .map_err(|_| "--recorder needs a capacity".to_owned())?;
                        rest.drain(..2);
                    }
                    Some("--timeout-ms") => {
                        if rest.len() < 2 {
                            return Ok(usage());
                        }
                        timeout_ms = rest[1].parse().map_err(|_| {
                            "--timeout-ms needs milliseconds (0 disables)".to_owned()
                        })?;
                        rest.drain(..2);
                    }
                    Some("--qlog-max-bytes") => {
                        if rest.len() < 2 {
                            return Ok(usage());
                        }
                        qlog_max_bytes = rest[1].parse().map_err(|_| {
                            "--qlog-max-bytes needs a byte count (0 disables rotation)".to_owned()
                        })?;
                        rest.drain(..2);
                    }
                    _ => break,
                }
            }
            if cmd == "stats" {
                return run_stats(
                    schema,
                    rest,
                    index.as_deref(),
                    from_index.as_deref(),
                    json,
                    workload,
                );
            }
            if cmd == "serve" {
                let opts =
                    ServeOpts { port, log_path, qlog_max_bytes, slow_ms, recorder, timeout_ms };
                return run_serve(schema, &rest, index.as_deref(), from_index.as_deref(), &opts);
            }
            let Some((query, files)) = rest.split_last() else { return Ok(usage()) };
            if files.is_empty() && from_index.is_none() {
                return Ok(usage());
            }
            let db = load_db(schema, files, index.as_deref(), from_index.as_deref())?;
            if cmd == "explain" {
                out!("{}", db.explain(query).map_err(|e| e.to_string())?);
            } else if explain_analyze || trace_json.is_some() || trace_perfetto.is_some() {
                let (res, trace) = db.query_traced(query).map_err(|e| e.to_string())?;
                if let Some(path) = &trace_json {
                    std::fs::write(path, trace.to_json())
                        .map_err(|e| format!("cannot write `{path}`: {e}"))?;
                }
                if let Some(path) = &trace_perfetto {
                    // Chrome trace-event JSON: open the file in
                    // https://ui.perfetto.dev or chrome://tracing.
                    std::fs::write(path, qof::trace_to_perfetto(&trace))
                        .map_err(|e| format!("cannot write `{path}`: {e}"))?;
                }
                if explain_analyze {
                    // EXPLAIN ANALYZE executes the query but shows the
                    // annotated plan instead of the rows.
                    out!("{}", trace.render());
                } else {
                    for v in &res.values {
                        outln!("{v}");
                    }
                    let wrote: Vec<&str> = [trace_json.as_deref(), trace_perfetto.as_deref()]
                        .into_iter()
                        .flatten()
                        .collect();
                    eprintln!("-- trace written to {}", wrote.join(", "));
                }
            } else {
                let res = db.query(query).map_err(|e| e.to_string())?;
                for v in &res.values {
                    outln!("{v}");
                }
                eprintln!(
                    "-- {} results; exact index: {}; {}; parsed {} bytes",
                    res.values.len(),
                    res.stats.exact_index,
                    res.stats.eval,
                    res.stats.parse.bytes_scanned
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        "index" => match args.get(1).map(String::as_str) {
            Some("build") => {
                let Some(name) = args.get(2) else { return Ok(usage()) };
                let schema =
                    schema_by_name(name).ok_or_else(|| format!("unknown schema `{name}`"))?;
                let mut rest: Vec<String> = args[3..].to_vec();
                let mut index: Option<String> = None;
                let mut out: Option<String> = None;
                loop {
                    match rest.first().map(String::as_str) {
                        Some("--index") => {
                            if rest.len() < 2 {
                                return Ok(usage());
                            }
                            index = Some(rest[1].clone());
                            rest.drain(..2);
                        }
                        Some("--out") => {
                            if rest.len() < 2 {
                                return Ok(usage());
                            }
                            out = Some(rest[1].clone());
                            rest.drain(..2);
                        }
                        _ => break,
                    }
                }
                let Some(out) = out else { return Ok(usage()) };
                if rest.is_empty() {
                    return Ok(usage());
                }
                let db = build_db(schema, &rest, index.as_deref())?;
                let bytes = db.persist(&out).map_err(|e| format!("cannot write `{out}`: {e}"))?;
                let corpus_bytes = u64::from(db.corpus().len());
                // The container embeds the corpus text (that is what makes
                // reopen O(1)); the index proper is everything beyond it.
                let index_bytes = bytes.saturating_sub(corpus_bytes);
                #[allow(clippy::cast_precision_loss)]
                let per_byte =
                    if corpus_bytes == 0 { 0.0 } else { index_bytes as f64 / corpus_bytes as f64 };
                eprintln!(
                    "qof index build: wrote {out} ({bytes} bytes: {corpus_bytes} corpus + \
                     {index_bytes} index, {per_byte:.3} index bytes per corpus byte, \
                     {} postings, {} region names)",
                    db.word_index().postings(),
                    db.instance().name_count()
                );
                Ok(ExitCode::SUCCESS)
            }
            Some("inspect") => {
                let Some(path) = args.get(2) else { return Ok(usage()) };
                let summary = qof::inspect_qofx(std::path::Path::new(path))
                    .map_err(|e| format!("{path}: {e}"))?;
                outln!("file:           {path}");
                outln!("format version: {}", summary.version);
                outln!("file bytes:     {}", summary.file_bytes);
                outln!("checksum:       {:#018x} (valid)", summary.checksum);
                outln!("files:          {}", summary.files);
                outln!("corpus bytes:   {}", summary.corpus_bytes);
                outln!("distinct words: {}", summary.distinct_words);
                outln!("postings:       {}", summary.postings);
                outln!("region names:   {}", summary.region_names);
                outln!("regions:        {}", summary.regions);
                outln!("full index:     {}", summary.full_index);
                outln!("scoped words:   {}", summary.scoped);
                Ok(ExitCode::SUCCESS)
            }
            _ => Ok(usage()),
        },
        "check" => {
            let Some(name) = args.get(1) else { return Ok(usage()) };
            let schema = schema_by_name(name).ok_or_else(|| format!("unknown schema `{name}`"))?;
            let mut rest: Vec<String> = args[2..].to_vec();
            let mut index: Option<String> = None;
            let mut json = false;
            loop {
                match rest.first().map(String::as_str) {
                    Some("--index") => {
                        if rest.len() < 2 {
                            return Ok(usage());
                        }
                        index = Some(rest[1].clone());
                        rest.drain(..2);
                    }
                    Some("--json") => {
                        json = true;
                        rest.remove(0);
                    }
                    _ => break,
                }
            }
            let spec = match index.as_deref() {
                None => IndexSpec::full(),
                Some(names) => IndexSpec::names(names.split(',').map(str::trim)),
            };
            // Schema- and index-level lints need no file at all.
            let schema_diags = qof::check_schema(&schema);
            let index_diags = qof::check_index(&schema, &spec);
            // `checks` collects (target, query, diagnostics) triples; the
            // JSON envelope and the human renderer share this data model.
            let mut checks: Vec<(&str, Option<&String>, Vec<qof::Diagnostic>)> =
                vec![("schema", None, schema_diags), ("index", None, index_diags)];
            // Query lints run against a tiny generated corpus: the planner
            // needs an index instance, but never reads file content.
            if !rest.is_empty() {
                let text = generate_by_name(name, 3).expect("known schema");
                let db = FileDatabase::build(Corpus::from_text(&text), schema, spec)
                    .map_err(|e| e.to_string())?;
                for query in &rest {
                    checks.push(("query", Some(query), db.check(query)));
                }
            }
            let errors = checks
                .iter()
                .flat_map(|(_, _, ds)| ds)
                .filter(|d| d.severity == Severity::Error)
                .count();
            let warnings = checks
                .iter()
                .flat_map(|(_, _, ds)| ds)
                .filter(|d| d.severity == Severity::Warning)
                .count();
            if json {
                let mut out = String::from("{\"schema_version\":1,\"checks\":[");
                for (i, (target, query, ds)) in checks.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("{{\"target\":\"{target}\""));
                    if let Some(q) = query {
                        out.push_str(&format!(",\"query\":\"{}\"", qof::pat::json::escape(q)));
                    }
                    out.push_str(",\"diagnostics\":[");
                    let body: Vec<String> = ds.iter().map(qof::Diagnostic::to_json).collect();
                    out.push_str(&body.join(","));
                    out.push_str("]}");
                }
                out.push_str(&format!("],\"errors\":{errors},\"warnings\":{warnings}}}"));
                outln!("{out}");
            } else {
                for (_, query, ds) in &checks {
                    match query {
                        Some(q) => {
                            outln!("-- {q}");
                            for d in ds {
                                out!("{}", d.render(Some(q)));
                            }
                            if ds.is_empty() {
                                outln!("clean");
                            }
                        }
                        None => {
                            for d in ds {
                                out!("{}", d.render(None));
                            }
                        }
                    }
                }
            }
            Ok(if errors > 0 { ExitCode::FAILURE } else { ExitCode::SUCCESS })
        }
        "advise" => {
            let Some(name) = args.get(1) else { return Ok(usage()) };
            let schema = schema_by_name(name).ok_or_else(|| format!("unknown schema `{name}`"))?;
            let queries: Vec<_> = args[2..]
                .iter()
                .map(|q| parse_query(q).map_err(|e| e.to_string()))
                .collect::<Result<_, _>>()?;
            if queries.is_empty() {
                return Ok(usage());
            }
            let advice = advise(&schema, &Rig::from_grammar(&schema.grammar), &queries);
            outln!("index set: {}", advice.index_set.into_iter().collect::<Vec<_>>().join(","));
            for note in &advice.notes {
                outln!("note: {note}");
            }
            Ok(ExitCode::SUCCESS)
        }
        _ => Ok(usage()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
