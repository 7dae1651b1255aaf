//! Shared setup and measurement helpers for the experiment suite E1–E12
//! (see DESIGN.md §4 for the experiment ↔ paper-claim mapping). Both the
//! `cargo bench` wrappers and the `harness` binary run the experiments in
//! [`experiments`], so the numbers they report come from identical code
//! paths; [`report`] serializes them to `BENCH_harness.json`.

pub mod experiments;
pub mod report;

use std::time::Instant;

use qof_core::baseline::{run_baseline_ast, BaselineMode, BaselineResult};
use qof_core::{parse_query, FileDatabase, Query, QueryResult};
use qof_corpus::bibtex::{self, BibtexConfig};
use qof_corpus::sgml::{self, SgmlConfig};
use qof_grammar::IndexSpec;
use qof_text::Corpus;

pub use qof_core as core;
pub use qof_corpus as corpus;
pub use qof_grammar as grammar;
pub use qof_pat as pat;
pub use qof_text as text;

/// The paper's running-example query.
pub const CHANG_AUTHOR: &str =
    "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\"";

/// The §5.3 star-variable form of the same attribute test.
pub const CHANG_STAR: &str = "SELECT r FROM References r WHERE r.*X.Last_Name = \"Chang\"";

/// The §5.2 same-variable content join.
pub const EDITOR_IS_AUTHOR: &str =
    "SELECT r FROM References r WHERE r.Editors.Name.Last_Name = r.Authors.Name.Last_Name";

/// A §5.2 two-variable join: the references with an author who edits some
/// reference.
pub const AUTHOR_EDITS: &str = "SELECT r FROM References r, References s \
     WHERE r.Authors.Name.Last_Name = s.Editors.Name.Last_Name";

/// A selective two-variable join whose local conditions read past its
/// join paths. A name tuple never equals a key, so it has no answers: it
/// times the work of finding that out.
pub const SELECTIVE_JOIN: &str = "SELECT r.Key FROM References r, References s \
     WHERE r.Authors.Name = s.Key AND r.Year = \"1982\" \
     AND s.Keywords.Keyword = \"Taylor series\"";

/// The E2/E6-style mixed workload of the serving and persistence
/// experiments: point lookups, a content join, and overlapping conditions.
pub const MIXED_WORKLOAD: &[&str] = &[
    CHANG_AUTHOR,
    EDITOR_IS_AUTHOR,
    "SELECT r FROM References r WHERE r.Year = \"1982\"",
    "SELECT r.Key FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\"",
    "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\" \
     AND r.Year = \"1982\"",
    "SELECT r FROM References r WHERE r.Editors.Name.Last_Name = \"Chang\" \
     OR r.Authors.Name.Last_Name = \"Tompa\"",
];

/// A BibTeX corpus of `n` references with the default experiment knobs.
pub fn bibtex_corpus(n: usize) -> Corpus {
    let cfg = BibtexConfig { n_refs: n, name_pool: 12, seed: 42, ..Default::default() };
    Corpus::from_text(&bibtex::generate(&cfg).0)
}

/// A corpus of `files` BibTeX files (distinct seeds) with `refs` references
/// each.
pub fn multi_file_bibtex(files: usize, refs: usize) -> Corpus {
    let mut b = qof_text::CorpusBuilder::new();
    for i in 0..files {
        let cfg =
            BibtexConfig { n_refs: refs, seed: 42 + i as u64, name_pool: 12, ..Default::default() };
        b.add_file(format!("f{i}.bib"), &bibtex::generate(&cfg).0);
    }
    b.build()
}

/// A fully indexed BibTeX file database over `n` references.
pub fn bibtex_full(n: usize) -> FileDatabase {
    FileDatabase::build(bibtex_corpus(n), bibtex::schema(), IndexSpec::full())
        .expect("generated corpus indexes")
}

/// A partially indexed BibTeX file database.
pub fn bibtex_partial(n: usize, names: &[&str]) -> FileDatabase {
    FileDatabase::build(bibtex_corpus(n), bibtex::schema(), IndexSpec::names(names.to_vec()))
        .expect("generated corpus indexes")
}

/// An SGML corpus whose sections nest to `depth`.
pub fn sgml_corpus(depth: usize, top: usize) -> Corpus {
    let cfg = SgmlConfig {
        top_sections: top,
        max_depth: depth,
        subsections: (1, 2),
        paragraphs: (1, 2),
        para_words: 8,
        seed: 7,
    };
    Corpus::from_text(&sgml::generate(&cfg).0)
}

/// A fully indexed SGML file database.
pub fn sgml_full(depth: usize, top: usize) -> FileDatabase {
    FileDatabase::build(sgml_corpus(depth, top), sgml::schema(), IndexSpec::full())
        .expect("generated corpus indexes")
}

/// Runs a query on the file database, returning the result and seconds
/// (query parsing included).
pub fn time_query(fdb: &FileDatabase, q: &str) -> (QueryResult, f64) {
    let t = Instant::now();
    let r = fdb.query(q).expect("query runs");
    (r, t.elapsed().as_secs_f64())
}

/// Runs a query through the standard-database baseline, returning seconds.
pub fn time_baseline(
    corpus: &Corpus,
    schema: &qof_grammar::StructuringSchema,
    q: &str,
    mode: BaselineMode,
) -> (BaselineResult, f64) {
    let parsed: Query = parse_query(q).expect("valid query");
    let t = Instant::now();
    let r = run_baseline_ast(corpus, schema, &parsed, mode).expect("baseline runs");
    (r, t.elapsed().as_secs_f64())
}

/// The grep-style scan baseline: counts lines containing a word by reading
/// the whole text (what `grep Chang *.bib` would do).
pub fn grep_scan(corpus: &Corpus, word: &str) -> (usize, f64) {
    let t = Instant::now();
    let hits = corpus.text().lines().filter(|l| l.contains(word)).count();
    (hits, t.elapsed().as_secs_f64())
}

/// Median of `n` timed runs of `f` (seconds).
pub fn median_secs(n: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut samples: Vec<f64> = (0..n).map(|_| f()).collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Formats seconds human-readably.
pub fn fmt_secs(s: f64) -> String {
    if s < 1e-3 {
        format!("{:7.1}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:7.2}ms", s * 1e3)
    } else {
        format!("{s:7.3}s ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setups_build() {
        let fdb = bibtex_full(20);
        let (r, secs) = time_query(&fdb, CHANG_AUTHOR);
        assert!(secs >= 0.0);
        assert!(r.stats.exact_index);
        let s = sgml_full(3, 2);
        assert!(s.instance().region_count() > 0);
        let (hits, _) = grep_scan(fdb.corpus(), "Chang");
        assert!(hits > 0);
    }

    #[test]
    fn median_is_stable() {
        let mut k = 0;
        let m = median_secs(5, || {
            k += 1;
            k as f64
        });
        assert_eq!(m, 3.0);
    }
}
