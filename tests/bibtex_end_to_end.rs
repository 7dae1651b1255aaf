//! End-to-end tests on the paper's running example: BibTeX files, the
//! "Chang is an author" query family, full and partial indexing — all
//! checked against the generator's ground truth and the standard-database
//! baseline.

use qof::baseline::{run_baseline, BaselineMode};
use qof::corpus::bibtex::{self, BibtexConfig};
use qof::grammar::IndexSpec;
use qof::text::Corpus;
use qof::{FileDatabase, QueryError};

fn fdb(cfg: &BibtexConfig, spec: IndexSpec) -> (FileDatabase, bibtex::BibtexTruth) {
    let (text, truth) = bibtex::generate(cfg);
    let fdb = FileDatabase::build(Corpus::from_text(&text), bibtex::schema(), spec).unwrap();
    (fdb, truth)
}

fn result_keys(values: &[qof::db::Value]) -> Vec<String> {
    let mut keys: Vec<String> = values
        .iter()
        .filter_map(|v| v.field("Key").and_then(|k| k.as_str()).map(str::to_owned))
        .collect();
    keys.sort();
    keys
}

fn sorted(mut v: Vec<&str>) -> Vec<String> {
    v.sort();
    v.into_iter().map(str::to_owned).collect()
}

const CHANG_AUTHOR: &str = "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\"";

#[test]
fn full_indexing_is_exact_and_matches_truth() {
    let cfg = BibtexConfig { n_refs: 120, name_pool: 12, ..Default::default() };
    let (db, truth) = fdb(&cfg, IndexSpec::full());
    let res = db.query(CHANG_AUTHOR).unwrap();
    assert!(res.stats.exact_index, "full indexing computes the query exactly");
    assert_eq!(result_keys(&res.values), sorted(truth.refs_with_author_last("Chang")));
    assert!(!res.values.is_empty(), "selectivity config must produce hits");
}

#[test]
fn plan_exactness_api() {
    use qof::Exactness;
    let cfg = BibtexConfig::with_refs(10);
    let (db, _) = fdb(&cfg, IndexSpec::full());
    let plan = db.plan(CHANG_AUTHOR).unwrap();
    assert!(matches!(plan.exactness(), Exactness::Exact));
    let (db2, _) = fdb(&cfg, IndexSpec::names(["Reference", "Last_Name"]));
    let plan2 = db2.plan(CHANG_AUTHOR).unwrap();
    assert!(matches!(plan2.exactness(), Exactness::Candidates));
}

#[test]
fn explain_shows_the_optimized_expression() {
    let cfg = BibtexConfig::with_refs(10);
    let (db, _) = fdb(&cfg, IndexSpec::full());
    let explain = db.explain(CHANG_AUTHOR).unwrap();
    // The §3.2 result: Reference ⊃ Authors ⊃ σ_"Chang"(Last_Name).
    assert!(
        explain.contains("Reference ⊃ Authors ⊃ σ_\"Chang\"(Last_Name)"),
        "unexpected explain output:\n{explain}"
    );
    assert!(explain.contains("[exact]"));
}

#[test]
fn explain_names_the_projection_path_that_runs() {
    let cfg = BibtexConfig::with_refs(10);
    let q = "SELECT r.Authors.Name.Last_Name FROM References r";
    let (full, _) = fdb(&cfg, IndexSpec::full());
    assert!(full
        .explain(q)
        .unwrap()
        .contains("project: values of r via index [Last_Name ⊂ Authors ⊂ Reference] [exact]\n"));
    assert_eq!(full.query(q).unwrap().stats.parse.bytes_scanned, 0);
    // On {Reference, Key, Last_Name} the chain also reaches editors'
    // names, so the values come from parsed references.
    let (partial, _) = fdb(&cfg, IndexSpec::names(["Reference", "Key", "Last_Name"]));
    assert_eq!(
        partial.explain(q).unwrap(),
        "var r : view References over <Reference>\n  \
         candidates: all <Reference> regions\n\
         project: values of r via parsed objects\n\
         optimizer: 1 rewrite(s), 1 certified\n"
    );
    assert!(partial.query(q).unwrap().stats.parse.bytes_scanned > 0);
}

#[test]
fn partial_indexing_yields_candidates_superset() {
    // §6.1's example: Zp = {Reference, Key, Last_Name}. Chang-as-editor
    // references cannot be distinguished by the index alone.
    let cfg = BibtexConfig { n_refs: 150, name_pool: 10, ..Default::default() };
    let spec = IndexSpec::names(["Reference", "Key", "Last_Name"]);
    let (db, truth) = fdb(&cfg, spec);

    let (candidates, exact, _) = db.query_regions(CHANG_AUTHOR).unwrap();
    assert!(!exact, "partial index cannot distinguish authors from editors");
    let any = truth.refs_with_any_last("Chang");
    let auth = truth.refs_with_author_last("Chang");
    assert_eq!(candidates.len(), any.len(), "candidates = Chang as author OR editor");
    assert!(any.len() > auth.len(), "the corpus must contain Chang-as-editor-only refs");

    // The full query still returns the exact answer after the parse phase.
    let res = db.query(CHANG_AUTHOR).unwrap();
    assert!(!res.stats.exact_index);
    assert_eq!(result_keys(&res.values), sorted(auth));
    // Only candidates were parsed, not the whole corpus.
    assert!(res.stats.candidates < truth.refs.len());
}

#[test]
fn partial_exact_case_needs_no_parsing() {
    // §6.3: indexing {Reference, Authors, Last_Name} makes the author query
    // exact — wait: routes Reference→Last_Name via Editors also exist, but
    // the path goes through the indexed Authors, and the hop
    // Authors→Last_Name has the unique route via Name. The Reference→Authors
    // hop is unique too. So the candidate set is exact.
    let cfg = BibtexConfig { n_refs: 100, name_pool: 10, ..Default::default() };
    let spec = IndexSpec::names(["Reference", "Authors", "Last_Name"]);
    let (db, truth) = fdb(&cfg, spec);
    let (candidates, exact, _) = db.query_regions(CHANG_AUTHOR).unwrap();
    assert!(exact, "this partial index suffices for exact computation");
    assert_eq!(candidates.len(), truth.refs_with_author_last("Chang").len());
}

#[test]
fn star_path_matches_authors_and_editors() {
    let cfg = BibtexConfig { n_refs: 120, name_pool: 10, ..Default::default() };
    let (db, truth) = fdb(&cfg, IndexSpec::full());
    let res = db.query("SELECT r FROM References r WHERE r.*X.Last_Name = \"Chang\"").unwrap();
    assert!(res.stats.exact_index, "star queries are exact through plain inclusion");
    assert_eq!(result_keys(&res.values), sorted(truth.refs_with_any_last("Chang")));
}

#[test]
fn index_and_baseline_agree_on_everything() {
    let cfg = BibtexConfig { n_refs: 60, name_pool: 8, seed: 9, ..Default::default() };
    let (text, _) = bibtex::generate(&cfg);
    let corpus = Corpus::from_text(&text);
    let db = FileDatabase::build(corpus.clone(), bibtex::schema(), IndexSpec::full()).unwrap();
    let queries = [
        CHANG_AUTHOR,
        "SELECT r FROM References r WHERE r.Editors.Name.Last_Name = \"Chang\"",
        "SELECT r FROM References r WHERE r.Year = \"1982\"",
        "SELECT r FROM References r WHERE r.Keywords.Keyword = \"Taylor series\"",
        "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\" AND r.Year = \"1982\"",
        "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\" OR r.Authors.Name.Last_Name = \"Corliss\"",
        "SELECT r FROM References r WHERE NOT r.Authors.Name.Last_Name = \"Chang\"",
        "SELECT r FROM References r WHERE r.*X.Last_Name = \"Griewank\"",
        "SELECT r.Title FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\"",
    ];
    let schema = bibtex::schema();
    for q in queries {
        let via_index = db.query(q).unwrap();
        let via_db = run_baseline(&corpus, &schema, q, BaselineMode::FullLoad).unwrap();
        let mut a = via_index.values.clone();
        let mut b = via_db.values.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b, "index and baseline disagree on {q}");
    }
}

#[test]
fn reduced_load_baseline_builds_fewer_nodes() {
    let cfg = BibtexConfig::with_refs(40);
    let (text, _) = bibtex::generate(&cfg);
    let corpus = Corpus::from_text(&text);
    let schema = bibtex::schema();
    let q = "SELECT r.Key FROM References r WHERE r.Year = \"1982\"";
    let full = run_baseline(&corpus, &schema, q, BaselineMode::FullLoad).unwrap();
    let reduced = run_baseline(&corpus, &schema, q, BaselineMode::ReducedLoad).unwrap();
    let mut a = full.values.clone();
    let mut b = reduced.values.clone();
    a.sort();
    b.sort();
    assert_eq!(a, b);
    assert!(
        reduced.stats.db.value_nodes < full.stats.db.value_nodes,
        "reduced load must build fewer value nodes ({} vs {})",
        reduced.stats.db.value_nodes,
        full.stats.db.value_nodes
    );
}

#[test]
fn same_var_content_join() {
    // "references where some editor is also an author".
    let cfg =
        BibtexConfig { n_refs: 150, name_pool: 6, editors_per_ref: (1, 2), ..Default::default() };
    let (text, truth) = bibtex::generate(&cfg);
    let corpus = Corpus::from_text(&text);
    let db = FileDatabase::build(corpus.clone(), bibtex::schema(), IndexSpec::full()).unwrap();
    let q = "SELECT r FROM References r WHERE r.Editors.Name.Last_Name = r.Authors.Name.Last_Name";
    let res = db.query(q).unwrap();
    let expected: Vec<&str> = truth
        .refs
        .iter()
        .filter(|r| r.editors.iter().any(|(_, el)| r.authors.iter().any(|(_, al)| al == el)))
        .map(|r| r.key.as_str())
        .collect();
    assert!(!expected.is_empty(), "config must produce author-editor overlaps");
    assert_eq!(result_keys(&res.values), sorted(expected));
    // And the baseline agrees.
    let via_db = run_baseline(&corpus, &bibtex::schema(), q, BaselineMode::FullLoad).unwrap();
    assert_eq!(res.values.len(), via_db.values.len());
}

#[test]
fn cross_var_join_on_referred_keys() {
    let cfg =
        BibtexConfig { n_refs: 50, referred_per_ref: (1, 2), name_pool: 8, ..Default::default() };
    let (text, truth) = bibtex::generate(&cfg);
    let corpus = Corpus::from_text(&text);
    let db = FileDatabase::build(corpus.clone(), bibtex::schema(), IndexSpec::full()).unwrap();
    // references citing something written by Chang.
    let q = "SELECT r FROM References r, References s \
             WHERE r.Referred.RefKey = s.Key AND s.Authors.Name.Last_Name = \"Chang\"";
    let res = db.query(q).unwrap();
    let chang_keys: Vec<&str> = truth.refs_with_author_last("Chang");
    let expected: Vec<&str> = truth
        .refs
        .iter()
        .filter(|r| r.referred.iter().any(|k| chang_keys.contains(&k.as_str())))
        .map(|r| r.key.as_str())
        .collect();
    assert_eq!(result_keys(&res.values), sorted(expected));
    let via_db = run_baseline(&corpus, &bibtex::schema(), q, BaselineMode::FullLoad).unwrap();
    assert_eq!(res.values.len(), via_db.values.len());
}

#[test]
fn exact_join_drops_pairs_whose_inexact_side_fails_its_residual() {
    // On {Reference, Key, Last_Name} the join on keys is exact, but the
    // author condition of the other variable is not: references with
    // Chang only as an editor are candidates until parsing drops them,
    // and their join partners must go with them.
    let cfg = BibtexConfig { n_refs: 150, name_pool: 10, ..Default::default() };
    let (text, _) = bibtex::generate(&cfg);
    let corpus = Corpus::from_text(&text);
    let schema = bibtex::schema();
    let queries = [
        "SELECT r FROM References r, References s \
         WHERE r.Key = s.Key AND s.Authors.Name.Last_Name = \"Chang\"",
        "SELECT r.Key FROM References r, References s \
         WHERE r.Key = s.Key AND s.Authors.Name.Last_Name = \"Chang\"",
        "SELECT s FROM References r, References s \
         WHERE r.Key = s.Key AND r.Authors.Name.Last_Name = \"Chang\"",
    ];
    for spec in [IndexSpec::full(), IndexSpec::names(["Reference", "Key", "Last_Name"])] {
        let db = FileDatabase::build(corpus.clone(), bibtex::schema(), spec.clone()).unwrap();
        for q in queries {
            let mut via_index = db.query(q).unwrap().values;
            let mut via_db =
                run_baseline(&corpus, &schema, q, BaselineMode::FullLoad).unwrap().values;
            via_index.sort();
            via_db.sort();
            assert!(!via_db.is_empty(), "the corpus must hold Chang as an author");
            assert_eq!(via_index, via_db, "index and baseline disagree on {q} under {spec:?}");
        }
    }
}

#[test]
fn projection_query_reads_only_projected_regions() {
    let cfg = BibtexConfig::with_refs(50);
    let (db, truth) = fdb(&cfg, IndexSpec::full());
    let res = db.query("SELECT r.Key FROM References r").unwrap();
    assert_eq!(res.values.len(), truth.refs.len(), "one key per reference");
    // Index-side projection: no reference was parsed; only key bytes read.
    assert_eq!(res.stats.parse.bytes_scanned, 0, "projection must not parse");
    assert!(res.stats.content_bytes > 0);
    assert!(res.stats.content_bytes < db.corpus().len() as u64 / 10);
}

#[test]
fn multi_file_corpus() {
    let mut builder = qof::text::CorpusBuilder::new();
    for seed in 0..4u64 {
        let (text, _) = bibtex::generate(&BibtexConfig { n_refs: 10, seed, ..Default::default() });
        builder.add_file(format!("bib{seed}.bib"), &text);
    }
    let corpus = builder.build();
    let db = FileDatabase::build(corpus, bibtex::schema(), IndexSpec::full()).unwrap();
    let res = db.query("SELECT r FROM References r").unwrap();
    assert_eq!(res.values.len(), 40);
}

#[test]
fn prefix_selection() {
    // PAT's lexical search: `= "Ch*"` selects by word prefix.
    let cfg = BibtexConfig { n_refs: 150, name_pool: 12, ..Default::default() };
    let (text, truth) = bibtex::generate(&cfg);
    let corpus = Corpus::from_text(&text);
    let db = FileDatabase::build(corpus.clone(), bibtex::schema(), IndexSpec::full()).unwrap();
    let q = "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"C*\"";
    let res = db.query(q).unwrap();
    let expected: Vec<&str> = truth
        .refs
        .iter()
        .filter(|r| r.authors.iter().any(|(_, l)| l.starts_with('C')))
        .map(|r| r.key.as_str())
        .collect();
    assert!(!expected.is_empty());
    assert_eq!(result_keys(&res.values), sorted(expected));
    // The baseline agrees (prefix semantics in value space).
    let b = run_baseline(&corpus, &bibtex::schema(), q, BaselineMode::FullLoad).unwrap();
    assert_eq!(res.values.len(), b.values.len());
}

#[test]
fn incremental_add_file() {
    let (t1, truth1) =
        bibtex::generate(&BibtexConfig { n_refs: 15, seed: 1, ..Default::default() });
    let (t2, truth2) =
        bibtex::generate(&BibtexConfig { n_refs: 15, seed: 2, ..Default::default() });
    let mut db =
        FileDatabase::build(Corpus::from_text(&t1), bibtex::schema(), IndexSpec::full()).unwrap();
    let before = db.query("SELECT r FROM References r").unwrap().values.len();
    assert_eq!(before, 15);
    db.add_file("second.bib", &t2).unwrap();
    let after = db.query("SELECT r FROM References r").unwrap().values.len();
    assert_eq!(after, 30);
    // Word-index-backed selections see the new file.
    let chang = db.query(CHANG_AUTHOR).unwrap();
    let expected =
        truth1.refs_with_author_last("Chang").len() + truth2.refs_with_author_last("Chang").len();
    assert_eq!(chang.values.len(), expected);
    // A malformed file is rejected and leaves the database untouched.
    let err = db.add_file("broken.bib", "@INCOLLECTION{oops").unwrap_err();
    assert!(err.to_string().contains("broken.bib"));
    assert_eq!(db.query("SELECT r FROM References r").unwrap().values.len(), 30);
}

#[test]
fn trivially_empty_path_gives_empty_result() {
    let cfg = BibtexConfig::with_refs(10);
    let (db, _) = fdb(&cfg, IndexSpec::full());
    // Titles never contain Last_Name regions: Title has no such attribute,
    // so translation fails with a helpful error.
    let err =
        db.query("SELECT r FROM References r WHERE r.Title.Last_Name = \"Chang\"").unwrap_err();
    assert!(matches!(err, QueryError::Plan(_)));
}

#[test]
fn unknown_view_and_bad_syntax_error() {
    let cfg = BibtexConfig::with_refs(5);
    let (db, _) = fdb(&cfg, IndexSpec::full());
    assert!(matches!(
        db.query("SELECT r FROM Nope r WHERE r.Key = \"k\""),
        Err(QueryError::Plan(_))
    ));
    assert!(matches!(db.query("SELEC r FROM"), Err(QueryError::Syntax(_))));
}

#[test]
fn view_not_indexed_is_reported() {
    let cfg = BibtexConfig::with_refs(5);
    let (db, _) = fdb(&cfg, IndexSpec::names(["Key", "Last_Name"]));
    let err = db.query(CHANG_AUTHOR).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("not indexed"), "got: {msg}");
}

#[test]
fn selective_word_indexing() {
    // §7: "Selective indexing can also be done for words". With the word
    // index scoped to Last_Name regions, name queries still work while the
    // index is much smaller; words outside the scope are invisible.
    let cfg = BibtexConfig { n_refs: 100, name_pool: 10, ..Default::default() };
    let (text, truth) = bibtex::generate(&cfg);
    let full =
        FileDatabase::build(Corpus::from_text(&text), bibtex::schema(), IndexSpec::full()).unwrap();
    let scoped_spec = IndexSpec::full().with_word_scope("Last_Name");
    let scoped =
        FileDatabase::build(Corpus::from_text(&text), bibtex::schema(), scoped_spec).unwrap();
    assert!(
        scoped.word_index().postings() * 4 < full.word_index().postings(),
        "the scoped word index must be much smaller"
    );
    let res = scoped.query(CHANG_AUTHOR).unwrap();
    assert_eq!(result_keys(&res.values), sorted(truth.refs_with_author_last("Chang")));
    // A word outside the scope is invisible — the documented tradeoff.
    let kw = scoped
        .query("SELECT r FROM References r WHERE r.Keywords.Keyword = \"Taylor series\"")
        .unwrap();
    assert!(kw.values.is_empty());
}

#[test]
fn scoped_index_answers_author_query_exactly() {
    // §7: index Last_Name only inside Authors regions. The scoped index
    // stands in for both the Authors and Last_Name tests.
    let cfg = BibtexConfig { n_refs: 120, name_pool: 10, ..Default::default() };
    let spec = IndexSpec::names(["Reference", "Authors"]).with_scoped("Authors", "Last_Name");
    let (db, truth) = fdb(&cfg, spec);
    let res = db.query(CHANG_AUTHOR).unwrap();
    assert_eq!(result_keys(&res.values), sorted(truth.refs_with_author_last("Chang")));
}

/// On `{Reference, Last_Name}` both sides of the join locate every
/// `Last_Name` of a reference, so the index cannot tell an editor's name
/// from an author's. The text test still keeps only the references in
/// which two different name regions hold one text, a repeated last name,
/// and parsing keeps those with an editor who is also an author.
#[test]
fn a_partial_content_compare_checks_only_references_that_repeat_a_name() {
    let cfg = BibtexConfig { n_refs: 300, name_pool: 12, ..Default::default() };
    let (db, truth) = fdb(&cfg, IndexSpec::names(["Reference", "Last_Name"]));
    let q = "SELECT r FROM References r WHERE r.Editors.Name.Last_Name = r.Authors.Name.Last_Name";
    let repeats_a_name = |r: &&bibtex::RefTruth| {
        let mut names: Vec<&str> = r.authors.iter().chain(&r.editors).map(|(_, l)| &**l).collect();
        let all = names.len();
        names.sort_unstable();
        names.dedup();
        names.len() < all
    };
    let repeated = truth.refs.iter().filter(repeats_a_name).count();
    let editor_authors = truth
        .refs
        .iter()
        .filter(|r| r.editors.iter().any(|(_, e)| r.authors.iter().any(|(_, a)| a == e)))
        .map(|r| r.key.as_str())
        .collect();
    let res = db.query(q).unwrap();
    assert!(!res.stats.exact_index);
    assert_eq!(res.stats.candidates, repeated);
    assert!(0 < repeated && repeated < truth.refs.len(), "{repeated} of {}", truth.refs.len());
    assert_eq!(result_keys(&res.values), sorted(editor_authors));
    assert!(
        res.explain.contains("paired by text of distinct regions [candidates]"),
        "{}",
        res.explain
    );
}
