//! Backend-equivalence property tests: a database persisted to a `.qofx`
//! file and reopened on the compressed, file-paged backend must be
//! *byte-identical* to the in-memory database it came from — same result
//! regions, same materialized values, same exactness verdicts, same plans
//! — over random corpora, schemas, index specs, and every E1–E10 query
//! shape (selection, conjunction, disjunction, negation, join, star
//! paths, projection). Also: corrupting any byte of the file must be
//! rejected at open, never silently absorbed.

use proptest::prelude::*;
use qof::corpus::bibtex::{self, BibtexConfig};
use qof::corpus::logs::{self, LogConfig};
use qof::grammar::IndexSpec;
use qof::text::{Corpus, CorpusBuilder};
use qof::{FileDatabase, QueryResult};

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
fn bibtex_queries() -> Vec<&'static str> {
    vec![
        "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\"",
        "SELECT r FROM References r WHERE r.Year = \"1982\"",
        "SELECT r FROM References r WHERE r.*X.Last_Name = \"Griewank\"",
        "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\" \
         AND r.Year = \"1975\"",
        "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\" \
         OR r.Editors.Name.Last_Name = \"Chang\"",
        "SELECT r FROM References r WHERE NOT r.Authors.Name.Last_Name = \"Chang\"",
        "SELECT r FROM References r WHERE r.Editors.Name.Last_Name = r.Authors.Name.Last_Name",
        "SELECT r.Key FROM References r WHERE r.Authors.Name.Last_Name = \"Milo\"",
        "SELECT r FROM References r WHERE r.Keywords.Keyword = \"Taylor series\"",
    ]
}

/// Byte-identical result comparison: regions, materialized values, and the
/// exactness verdict all agree.
fn assert_same(a: &QueryResult, b: &QueryResult, ctx: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.regions, &b.regions, "regions differ: {}", ctx);
    prop_assert_eq!(&a.values, &b.values, "values differ: {}", ctx);
    prop_assert_eq!(
        a.stats.exact_index,
        b.stats.exact_index,
        "exactness differs: {}",
        ctx
    );
    Ok(())
}

/// A unique scratch path per test case.
fn scratch(tag: &str, seed: u64) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("qof-prop-{}-{tag}-{seed}.qofx", std::process::id()));
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every query shape answers identically on the in-memory and the
    /// reopened compressed backend — results, cardinalities, and the
    /// trace's plan and rewrites (timings excepted, obviously).
    #[test]
    fn compressed_backend_is_byte_identical(
        seed in 0u64..4,
        files in 1usize..5,
        qi in 0usize..9,
    ) {
        let corpus = bibtex_corpus(files, 12, seed);
        let q = bibtex_queries()[qi];
        let mem = FileDatabase::build(corpus, bibtex::schema(), IndexSpec::full()).unwrap();
        let path = scratch("shape", seed * 1000 + qi as u64 * 10 + files as u64);
        mem.persist(&path).unwrap();
        let qofx = FileDatabase::open(&path, bibtex::schema()).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(qofx.backend_label(), "qofx");
        let ctx = format!("{q} (files={files})");
        let (ra, ta) = mem.query_traced(q).unwrap();
        let (rb, tb) = qofx.query_traced(q).unwrap();
        assert_same(&ra, &rb, &ctx)?;
        prop_assert_eq!(&ta.plan, &tb.plan, "plans differ: {}", &ctx);
        prop_assert_eq!(&ta.rewrites, &tb.rewrites, "rewrites differ: {}", &ctx);
        prop_assert_eq!(ra.stats.candidates, rb.stats.candidates, "candidates differ: {}", &ctx);
        // The index-only path agrees too.
        let (sa, xa, _) = mem.query_regions(q).unwrap();
        let (sb, xb, _) = qofx.query_regions(q).unwrap();
        prop_assert_eq!(sa, sb, "index-phase regions differ: {}", &ctx);
        prop_assert_eq!(xa, xb, "index-phase exactness differs: {}", &ctx);
    }

    /// The same contract under a partial region index and a scoped (§7)
    /// word index, on a second schema — persistence must carry the spec
    /// faithfully, not just the full-index case.
    #[test]
    fn compressed_backend_preserves_partial_and_scoped_specs(
        seed in 0u64..4,
        partial in proptest::bool::ANY,
    ) {
        let mut b = CorpusBuilder::new();
        for i in 0..2u64 {
            let cfg = LogConfig {
                n_sessions: 12,
                error_percent: 10,
                seed: seed * 7 + i,
                ..Default::default()
            };
            b.add_file(format!("l{i}.log"), &logs::generate(&cfg).0);
        }
        let corpus = b.build();
        let spec = if partial {
            IndexSpec::names(["Session", "Status"])
        } else {
            IndexSpec::full()
        };
        let q = "SELECT s FROM Sessions s WHERE s.Requests.Request.Status = \"500\"";
        let mem = FileDatabase::build(corpus, logs::schema(), spec).unwrap();
        let path = scratch("spec", seed * 2 + u64::from(partial));
        mem.persist(&path).unwrap();
        let qofx = FileDatabase::open(&path, logs::schema()).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(qofx.index_spec(), mem.index_spec());
        prop_assert_eq!(qofx.word_index().postings(), mem.word_index().postings());
        let a = mem.query(q).unwrap();
        let b = qofx.query(q).unwrap();
        assert_same(&a, &b, q)?;
    }

    /// Flipping any single bit of the file makes `open` fail cleanly (no
    /// panic, no silently wrong database), and `open_or_rebuild` recovers.
    #[test]
    fn corrupted_files_never_open(
        seed in 0u64..3,
        flip_at in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let corpus = bibtex_corpus(1, 8, seed);
        let mem = FileDatabase::build(corpus.clone(), bibtex::schema(), IndexSpec::full())
            .unwrap();
        let path = scratch("corrupt", seed * 100 + bit as u64);
        mem.persist(&path).unwrap();
        let clean = std::fs::read(&path).unwrap();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let pos = ((clean.len() - 1) as f64 * flip_at) as usize;
        let mut bad = clean.clone();
        bad[pos] ^= 1 << bit;
        prop_assume!(bad != clean);
        std::fs::write(&path, &bad).unwrap();
        prop_assert!(
            FileDatabase::open(&path, bibtex::schema()).is_err(),
            "bit {} at {} of {} accepted",
            bit, pos, clean.len()
        );
        let (db, why) = FileDatabase::open_or_rebuild(&path, bibtex::schema(), |schema| {
            FileDatabase::build(corpus.clone(), schema, IndexSpec::full())
        })
        .unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert!(why.is_some());
        prop_assert_eq!(db.backend_label(), "mem");
        let q = bibtex_queries()[0];
        let a = mem.query(q).unwrap();
        let b = db.query(q).unwrap();
        assert_same(&a, &b, q)?;
    }
}
