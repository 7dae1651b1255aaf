//! Inputs, set-up, answer checks and the HTTP load shared by both runs.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::time::Instant;

use qof_core::baseline::{run_baseline, BaselineMode};
use qof_core::FileDatabase;
use qof_corpus::{bibtex, Rng, StdRng};
use qof_db::Value;
use qof_grammar::IndexSpec;
use qof_pat::RegionSet;
use qof_server::{serve, QueryLog, ServerConfig, ServerHandle, DEFAULT_QLOG_KEEP};
use qof_text::Corpus;

use crate::client::{Conn, Reply};
use crate::inputs::{bibtex_files, corpus, Files, Mix};
use crate::Workload;

/// Files and references of the read workloads' corpus (~6.9 MB).
const READ_FILES: usize = 16;
const REFS_PER_FILE: usize = 800;
/// Files of the corpus `ingest` starts from.
const INGEST_BASE_FILES: usize = 4;
/// References in each file `add_file` appends.
const NEW_FILE_REFS: usize = 100;
/// Files appended before the database is rebuilt from its base, so every
/// run covers the same range of corpus sizes whatever its speed.
pub const WRITES_PER_EPOCH: usize = 25;
/// Reads after each write in `ingest`.
pub const READS_PER_WRITE: usize = 8;
/// One query in this many is a content join in `partial`. Each join reads
/// the whole corpus, and its latency swings with the machine's memory
/// bandwidth far more than a lookup's; at one in five the joins set
/// `latency_p90_ms` and moved it by 40% between runs on a shared VM.
const JOIN_EVERY: usize = 20;
/// The partial index of `partial`.
const PARTIAL_INDEX: [&str; 2] = ["Reference", "Last_Name"];
/// Keep-alive connections (and load threads) of the HTTP load.
pub const HTTP_CLIENTS: usize = 2;

/// Everything a run draws from its seed.
pub struct Inputs {
    pub files: Files,
    pub spec: IndexSpec,
    pub mix: Mix,
    /// The files `add_file` appends, in order.
    pub new_files: Files,
    /// Seed of the query streams.
    pub stream_seed: u64,
}

pub fn inputs(workload: Workload, seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let base_files = if workload == Workload::Ingest { INGEST_BASE_FILES } else { READ_FILES };
    let files = bibtex_files(&mut rng, "refs", base_files, REFS_PER_FILE);
    let new_files = bibtex_files(&mut rng, "new", WRITES_PER_EPOCH, NEW_FILE_REFS);
    let mut mix = Mix::lookups(&mut rng);
    let spec = if workload == Workload::Partial {
        mix = mix.with_joins(JOIN_EVERY);
        IndexSpec::names(PARTIAL_INDEX)
    } else {
        IndexSpec::full()
    };
    Inputs { files, spec, mix, new_files, stream_seed: rng.next_u64() }
}

pub fn build_db(inputs: &Inputs) -> Result<FileDatabase, String> {
    FileDatabase::build(corpus(&inputs.files), bibtex::schema(), inputs.spec.clone())
        .map_err(|e| format!("build: {e}"))
}

/// Plans every distinct query text, so the plan cache holds the mix as
/// it would in a long-running process.
pub fn warm_plans(db: &FileDatabase, mix: &Mix) -> Result<(), String> {
    for q in &mix.queries {
        db.plan(&q.text).map_err(|e| format!("{}: {e}", q.text))?;
    }
    Ok(())
}

/// The answer to one distinct query text, taken before timing.
pub struct Answer {
    /// Hash of the sorted result values (holding the values themselves
    /// would count towards the measured peak memory).
    pub values: u64,
    pub regions: RegionSet,
    /// `RunStats::results`, as the server reports it.
    pub results: usize,
    pub exact: bool,
}

impl Answer {
    /// Whether a later in-process result agrees (cheap fields only).
    pub fn matches(&self, res: &qof_core::QueryResult) -> bool {
        res.regions == self.regions
            && res.stats.results == self.results
            && res.stats.exact_index == self.exact
    }
}

fn hash_of(value: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

fn values_hash(mut values: Vec<Value>) -> u64 {
    values.sort();
    hash_of(&values)
}

/// Answers every distinct query text of `mix` on `db`.
pub fn answers(db: &FileDatabase, mix: &Mix) -> Result<Vec<Answer>, String> {
    mix.queries
        .iter()
        .map(|q| {
            let res = db.query(&q.text).map_err(|e| format!("{}: {e}", q.text))?;
            Ok(Answer {
                values: values_hash(res.values),
                regions: res.regions,
                results: res.stats.results,
                exact: res.stats.exact_index,
            })
        })
        .collect()
}

/// Compares the answers to the texts `checked` (indices into the mix) with
/// the full-load database baseline on `corpus` and returns the number of
/// mismatches. Splits the texts over at most two threads.
pub fn baseline_mismatches(
    corpus: &Corpus,
    mix: &Mix,
    answers: &[Answer],
    checked: &[usize],
) -> u64 {
    let schema = bibtex::schema();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(HTTP_CLIENTS));
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let schema = &schema;
                s.spawn(move || {
                    let mut bad = 0;
                    for &i in checked.iter().skip(w).step_by(workers) {
                        let (q, answer) = (&mix.queries[i], &answers[i]);
                        match run_baseline(corpus, schema, &q.text, BaselineMode::FullLoad) {
                            Ok(b) => {
                                if values_hash(b.values) != answer.values {
                                    eprintln!("perfbench: index and baseline disagree: {}", q.text);
                                    bad += 1;
                                }
                            }
                            Err(e) => {
                                eprintln!("perfbench: baseline failed on {}: {e}", q.text);
                                bad += 1;
                            }
                        }
                    }
                    bad
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("baseline worker does not panic")).sum()
    })
}

/// A field of `/proc/self/status` (first number on its line).
fn proc_status(field: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("no {field} in /proc/self/status"))
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    Ok(proc_status("VmHWM:")? as f64 / 1024.0)
}

pub fn thread_count() -> u64 {
    proc_status("Threads:").unwrap_or(0)
}

/// A scratch directory for this process's `.qofx` file and query log,
/// inside the benchmark's own directory. Removed by [`RunDir`]'s drop.
pub struct RunDir(PathBuf);

impl RunDir {
    pub fn new() -> Result<RunDir, String> {
        let dir =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(".run").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Persists `db` to `path` and reopens it: the reopened database with the
/// persist and open times in milliseconds and the file size in bytes.
pub fn persist_and_open(
    db: &FileDatabase,
    path: &Path,
) -> Result<(FileDatabase, f64, f64, u64), String> {
    let t = Instant::now();
    let bytes = db.persist(path).map_err(|e| format!("persist: {e}"))?;
    let persist_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let opened = FileDatabase::open(path, bibtex::schema()).map_err(|e| format!("open: {e}"))?;
    Ok((opened, persist_ms, t.elapsed().as_secs_f64() * 1e3, bytes))
}

/// Serves `db` on a loopback port with default settings and the query log
/// in `log`, as `qof serve --log` does.
pub fn start_server(db: FileDatabase, log: &Path) -> Result<ServerHandle, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let log = QueryLog::rotating(log, 0, DEFAULT_QLOG_KEEP).map_err(|e| format!("log: {e}"))?;
    serve(db, listener, log, &ServerConfig::default()).map_err(|e| format!("serve: {e}"))
}

/// One answered HTTP request.
pub struct Request {
    pub sent: Instant,
    /// When the last body byte was read.
    pub done: Instant,
    /// Index into [`Mix::queries`].
    pub query: usize,
    pub reply: Reply,
}

impl Request {
    /// Whether the reply agrees with the in-process answer.
    pub fn agrees(&self, answer: &Answer) -> bool {
        self.reply.status == 200
            && self.reply.results == Some(answer.results)
            && self.reply.exact_index == Some(answer.exact)
    }
}

/// Closed-loop HTTP load: [`HTTP_CLIENTS`] threads, each on its own
/// keep-alive connection and its own seeded stream, sending its next query
/// only after the reply to the previous one, until `until` and at least
/// `min_each` requests each. Returns every request and, with
/// `sample_threads`, the highest thread count of this process seen after
/// any reply.
pub fn http_load(
    addr: SocketAddr,
    mix: &Mix,
    stream_seed: u64,
    until: Instant,
    min_each: usize,
    sample_threads: bool,
) -> Result<(Vec<Request>, u64), String> {
    let clients: Vec<Result<(Vec<Request>, u64), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..HTTP_CLIENTS as u64)
            .map(|c| {
                s.spawn(move || {
                    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    let mut requests = Vec::new();
                    let mut peak_threads = 0;
                    for query in mix.stream(stream_seed.wrapping_add(c)) {
                        if requests.len() >= min_each && Instant::now() >= until {
                            break;
                        }
                        let sent = Instant::now();
                        let reply = conn.query(&mix.queries[query].text);
                        let done = Instant::now();
                        let reply = reply.map_err(|e| format!("request: {e}"))?;
                        requests.push(Request { sent, done, query, reply });
                        if sample_threads {
                            peak_threads = peak_threads.max(thread_count());
                        }
                    }
                    Ok((requests, peak_threads))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load client does not panic")).collect()
    });
    let mut all = Vec::new();
    let mut peak_threads = 0;
    for client in clients {
        let (requests, peak) = client?;
        all.extend(requests);
        peak_threads = peak_threads.max(peak);
    }
    Ok((all, peak_threads))
}
