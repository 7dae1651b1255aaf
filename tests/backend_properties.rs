//! Persistence round trips: a database persisted to a `.qofx` file (its
//! word index compressed to delta-coded posting lists) and reopened must
//! be *byte-identical* to the database it came from — same result
//! regions, same materialized values, same exactness verdicts, same
//! plans — over random
//! corpora, schemas, index specs, and every E1–E10 query shape
//! (selection, conjunction, disjunction, negation, join, star paths,
//! projection). Corrupting any bit of the file must be rejected at open,
//! never silently absorbed.
//!
//! Every case runs on its own seed drawn from a fixed `StdRng` stream, so
//! the suite runs offline and the same cases run every time; a failure
//! prints the case's seed, which reproduces it alone.

use qof::corpus::bibtex::{self, BibtexConfig};
use qof::corpus::logs::{self, LogConfig};
use qof::corpus::{Rng, StdRng};
use qof::grammar::IndexSpec;
use qof::text::{Corpus, CorpusBuilder};
use qof::{FileDatabase, QueryResult};

/// Runs `cases` cases of `case`, each on a seed drawn from one fixed
/// stream; a failing case panics with its seed and message.
fn for_cases(
    name: &str,
    cases: usize,
    mut case: impl FnMut(&mut StdRng, u64) -> Result<(), String>,
) {
    let mut seeds = StdRng::seed_from_u64(0xbac0_e7d5);
    for i in 0..cases {
        let seed = seeds.next_u64();
        if let Err(msg) = case(&mut StdRng::seed_from_u64(seed), seed) {
            panic!("{name}: case {i} (seed {seed:#x}) failed: {msg}");
        }
    }
}

/// A multi-file BibTeX corpus: `files` files with distinct seeds derived
/// from `seed`, `refs` references each.
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

/// The E1–E10 expression shapes as concrete queries: plain selection,
/// equality on different attributes, conjunction, disjunction, negation,
/// value join, star path, projection, and a selective-word miss.
const BIBTEX_QUERIES: [&str; 9] = [
    "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\"",
    "SELECT r FROM References r WHERE r.Year = \"1982\"",
    "SELECT r FROM References r WHERE r.*X.Last_Name = \"Griewank\"",
    "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\" AND r.Year = \"1975\"",
    "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\" \
     OR r.Editors.Name.Last_Name = \"Chang\"",
    "SELECT r FROM References r WHERE NOT r.Authors.Name.Last_Name = \"Chang\"",
    "SELECT r FROM References r WHERE r.Editors.Name.Last_Name = r.Authors.Name.Last_Name",
    "SELECT r.Key FROM References r WHERE r.Authors.Name.Last_Name = \"Milo\"",
    "SELECT r FROM References r WHERE r.Keywords.Keyword = \"Taylor series\"",
];

/// Byte-identical result comparison: regions, materialized values, and the
/// exactness verdict all agree.
fn same(a: &QueryResult, b: &QueryResult, ctx: &str) -> Result<(), String> {
    if a.regions != b.regions {
        return Err(format!("regions differ: {ctx}"));
    }
    if a.values != b.values {
        return Err(format!("values differ: {ctx}"));
    }
    if a.stats.exact_index != b.stats.exact_index {
        return Err(format!("exactness differs: {ctx}"));
    }
    Ok(())
}

/// A scratch path unique to this process and case.
fn scratch(tag: &str, seed: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("qof-persist-{}-{tag}-{seed:x}.qofx", std::process::id()))
}

/// Persists `mem` and reopens it.
fn reopen(
    mem: &FileDatabase,
    schema: qof::grammar::StructuringSchema,
    path: &std::path::Path,
) -> FileDatabase {
    mem.persist(path).unwrap();
    let qofx = FileDatabase::open(path, schema).unwrap();
    std::fs::remove_file(path).ok();
    qofx
}

/// Every query shape answers identically on the built and the reopened
/// database — results, cardinalities, and the trace's plan and rewrites
/// (timings excepted).
#[test]
fn compressed_backend_is_byte_identical() {
    for_cases("persist-open equivalence", 16, |rng, seed| {
        let files = rng.random_range(1..5);
        let q = BIBTEX_QUERIES[rng.random_range(0..BIBTEX_QUERIES.len())];
        let corpus = bibtex_corpus(files, 12, rng.random_range(0..4) as u64);
        let mem = FileDatabase::build(corpus, bibtex::schema(), IndexSpec::full()).unwrap();
        let qofx = reopen(&mem, bibtex::schema(), &scratch("shape", seed));
        if qofx.index_bytes() != mem.index_bytes() {
            return Err("the reopened word index differs in size".into());
        }
        let ctx = format!("{q} (files={files})");
        let (ra, ta) = mem.query_traced(q).unwrap();
        let (rb, tb) = qofx.query_traced(q).unwrap();
        same(&ra, &rb, &ctx)?;
        if ta.plan != tb.plan || ta.rewrites != tb.rewrites {
            return Err(format!("plans or rewrites differ: {ctx}"));
        }
        if ra.stats.candidates != rb.stats.candidates {
            return Err(format!("candidates differ: {ctx}"));
        }
        // The index-only path agrees too.
        let (sa, xa, _) = mem.query_regions(q).unwrap();
        let (sb, xb, _) = qofx.query_regions(q).unwrap();
        if sa != sb || xa != xb {
            return Err(format!("index-phase regions or exactness differ: {ctx}"));
        }
        Ok(())
    });
}

/// The same contract under a partial region index and a second schema —
/// persistence must carry the spec faithfully, not just the full-index
/// case.
#[test]
fn compressed_backend_preserves_partial_specs() {
    for_cases("partial spec", 8, |rng, seed| {
        let mut b = CorpusBuilder::new();
        for i in 0..2u64 {
            let cfg = LogConfig {
                n_sessions: 12,
                error_percent: 10,
                seed: rng.random_range(0..28) as u64 + i,
                ..Default::default()
            };
            b.add_file(format!("l{i}.log"), &logs::generate(&cfg).0);
        }
        let spec = if rng.random_range(0..2) == 0 {
            IndexSpec::names(["Session", "Status"])
        } else {
            IndexSpec::full()
        };
        let q = "SELECT s FROM Sessions s WHERE s.Requests.Request.Status = \"500\"";
        let mem = FileDatabase::build(b.build(), logs::schema(), spec).unwrap();
        let qofx = reopen(&mem, logs::schema(), &scratch("spec", seed));
        if qofx.index_spec() != mem.index_spec() {
            return Err("the index spec changed".into());
        }
        if qofx.word_index().postings() != mem.word_index().postings() {
            return Err("the posting count changed".into());
        }
        same(&mem.query(q).unwrap(), &qofx.query(q).unwrap(), q)
    });
}

/// Flipping any single bit of the file makes `open` fail cleanly (no
/// panic, no silently wrong database), and `open_or_rebuild` recovers.
#[test]
fn corrupted_files_never_open() {
    for_cases("corruption", 16, |rng, seed| {
        let corpus = bibtex_corpus(1, 8, rng.random_range(0..3) as u64);
        let mem = FileDatabase::build(corpus.clone(), bibtex::schema(), IndexSpec::full()).unwrap();
        let path = scratch("corrupt", seed);
        mem.persist(&path).unwrap();
        let mut bad = std::fs::read(&path).unwrap();
        let pos = rng.random_range(0..bad.len());
        let bit = rng.random_range(0..8);
        bad[pos] ^= 1 << bit;
        std::fs::write(&path, &bad).unwrap();
        let opened = FileDatabase::open(&path, bibtex::schema()).is_ok();
        let (db, why) = FileDatabase::open_or_rebuild(&path, bibtex::schema(), |schema| {
            FileDatabase::build(corpus.clone(), schema, IndexSpec::full())
        })
        .unwrap();
        std::fs::remove_file(&path).ok();
        if opened {
            return Err(format!("bit {bit} at {pos} of {} accepted", bad.len()));
        }
        if why.is_none() {
            return Err("open_or_rebuild did not rebuild".into());
        }
        let q = BIBTEX_QUERIES[0];
        same(&mem.query(q).unwrap(), &db.query(q).unwrap(), q)
    });
}
