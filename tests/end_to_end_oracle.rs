//! Seeded end-to-end oracle: for drawn queries and *drawn index subsets*,
//! the indexed executor must return exactly what the standard-database
//! baseline returns (the paper's claim that partial indexing trades work,
//! never answers, §6), and candidates must always be a superset of answers.
//!
//! Every case draws its corpus seed, query and index mask from a fixed
//! `StdRng` stream, so the suite runs offline and the same cases run every
//! time; a failure prints the three draws, which reproduce it alone.
//!
//! Most cases run on BibTeX. The code and sgml cases cross a `Child` node
//! (code's `Stmt → Call | If`, sgml's `Para → <p> Text </p>`), whose value
//! is its child's.

mod common;

use common::shown;
use qof::baseline::{run_baseline, BaselineMode};
use qof::corpus::bibtex::{self, BibtexConfig};
use qof::corpus::{code, sgml, Rng, StdRng};
use qof::grammar::{IndexSpec, StructuringSchema};
use qof::text::Corpus;
use qof::FileDatabase;

/// All region names of the BibTeX grammar that can be chosen for a partial
/// index; `Reference` is always included (the executor needs the view).
const OPTIONAL_NAMES: [&str; 10] = [
    "Key",
    "Authors",
    "Editors",
    "Name",
    "First_Name",
    "Last_Name",
    "Year",
    "Keywords",
    "Keyword",
    "Title",
];

/// Index masks draw from `0..MASKS`; mask 0 is the full index.
const MASKS: usize = 1 << OPTIONAL_NAMES.len();

fn index_spec(mask: usize) -> IndexSpec {
    index_spec_over(&OPTIONAL_NAMES, mask)
}

/// The full index for mask 0; otherwise `Reference` and the `names` whose
/// bits are set.
fn index_spec_over(names: &[&str], mask: usize) -> IndexSpec {
    if mask == 0 {
        return IndexSpec::full();
    }
    let mut spec = IndexSpec::names(["Reference"]);
    for (i, name) in names.iter().enumerate() {
        if mask & (1 << i) != 0 {
            spec = spec.with_name(name);
        }
    }
    spec
}

/// Single-variable queries.
const SINGLE_VAR: [&str; 12] = [
    "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\"",
    "SELECT r FROM References r WHERE r.Editors.Name.Last_Name = \"Corliss\"",
    "SELECT r FROM References r WHERE r.*X.Last_Name = \"Griewank\"",
    "SELECT r FROM References r WHERE r.Year = \"1982\"",
    "SELECT r FROM References r WHERE r.Keywords.Keyword = \"Taylor series\"",
    "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\" AND r.Year = \"1975\"",
    "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\" \
     OR r.Editors.Name.Last_Name = \"Chang\"",
    "SELECT r FROM References r WHERE NOT r.Authors.Name.Last_Name = \"Chang\"",
    "SELECT r FROM References r WHERE r.Editors.Name.Last_Name = r.Authors.Name.Last_Name",
    "SELECT r.Key FROM References r WHERE r.Authors.Name.Last_Name = \"Milo\"",
    "SELECT r.Authors.Name.Last_Name FROM References r WHERE r.Year = \"1990\"",
    "SELECT r FROM References r WHERE r.Authors.Name.First_Name = \"G. F.\"",
];

/// Two-variable joins whose condition sits on one side only.
const JOINS: [&str; 3] = [
    "SELECT r FROM References r, References s \
     WHERE r.Key = s.Key AND s.Authors.Name.Last_Name = \"Chang\"",
    "SELECT r.Key FROM References r, References s \
     WHERE r.Key = s.Key AND s.Authors.Name.Last_Name = \"Chang\"",
    "SELECT s FROM References r, References s \
     WHERE r.Key = s.Key AND r.Authors.Name.Last_Name = \"Chang\"",
];

fn corpus(cfg: &BibtexConfig) -> Corpus {
    Corpus::from_text(&bibtex::generate(cfg).0)
}

fn sorted(values: &[qof::db::Value]) -> Vec<String> {
    let mut out: Vec<String> = values.iter().map(ToString::to_string).collect();
    out.sort();
    out
}

/// Runs `cases` cases of `check`, drawing each case's inputs from one
/// fixed stream; a failing case panics with its draws.
fn run_cases(name: &str, cases: usize, mut check: impl FnMut(&mut StdRng) -> Result<(), String>) {
    let mut rng = StdRng::seed_from_u64(0x0e2e);
    for i in 0..cases {
        if let Err(msg) = check(&mut rng) {
            panic!("{name}, case {i}: {msg}");
        }
    }
}

/// Index and baseline agree on one query under one index subset.
fn agrees_with_baseline(seed: u64, q: &str, mask: usize) -> Result<(), String> {
    let cfg = BibtexConfig {
        n_refs: 30,
        seed,
        name_pool: 8,
        editors_per_ref: (0, 2),
        ..Default::default()
    };
    let corpus = corpus(&cfg);
    let db = FileDatabase::build(corpus.clone(), bibtex::schema(), index_spec(mask)).unwrap();
    let via_index = db.query(q).unwrap();
    let via_db = run_baseline(&corpus, &bibtex::schema(), q, BaselineMode::FullLoad).unwrap();
    if sorted(&via_index.values) == sorted(&via_db.values) {
        Ok(())
    } else {
        Err(format!("corpus seed {seed}, index mask {mask:#b}: index and baseline disagree on {q}"))
    }
}

#[test]
fn index_matches_baseline_under_any_index_subset() {
    // Once found by the randomized search: a same-variable content
    // compare under a partial index.
    agrees_with_baseline(0, SINGLE_VAR[8], 890).unwrap();
    let pool: Vec<&str> = SINGLE_VAR.iter().chain(&JOINS).copied().collect();
    run_cases("baseline agreement", 200, |rng| {
        let seed = rng.random_range(0..6) as u64;
        let q = pool[rng.random_range(0..pool.len())];
        agrees_with_baseline(seed, q, rng.random_range(0..MASKS))
    });
}

#[test]
fn candidates_are_always_supersets() {
    let pool: Vec<&str> = SINGLE_VAR.iter().chain(&JOINS).copied().collect();
    run_cases("candidate superset", 150, |rng| {
        let seed = rng.random_range(0..4) as u64;
        let q = pool[rng.random_range(0..pool.len())];
        let mask = rng.random_range(0..MASKS);
        let cfg = BibtexConfig { n_refs: 25, seed, name_pool: 8, ..Default::default() };
        let db = FileDatabase::build(corpus(&cfg), bibtex::schema(), index_spec(mask)).unwrap();
        let at = format!("corpus seed {seed}, index mask {mask:#b}, query {q}");
        candidates_hold_the_answer(&db, q).map_err(|why| format!("{why}; {at}"))
    });
}

/// `query_regions`' candidates hold every answer of `q`, and are the
/// answers when it reports them exact (§6.3).
fn candidates_hold_the_answer(db: &FileDatabase, q: &str) -> Result<(), String> {
    let (candidates, exact, _) = db.query_regions(q).unwrap();
    let answer = db.query(q).unwrap();
    if !answer.regions.difference(&candidates).is_empty() {
        return Err("answers escaped the candidate set".into());
    }
    if exact && candidates != answer.regions {
        return Err("an exact candidate set (§6.3) differs from the answer".into());
    }
    Ok(())
}

/// The paths drawn two-variable joins compare, `r`'s on the left: atoms,
/// non-atomic paths, the citation path, whose `RefKey`s name other
/// references' `Key`s, and paths with `*X`, `X1..Xn` and `A+` steps.
const JOIN_ON: [(&str, &str); 12] = [
    ("Key", "Key"),
    ("Year", "Year"),
    ("Authors.Name.Last_Name", "Editors.Name.Last_Name"),
    ("Authors.Name.Last_Name", "Authors.Name.Last_Name"),
    ("Authors", "Authors"),
    ("Editors.Name", "Authors.Name"),
    ("Referred.RefKey", "Key"),
    ("*X.Last_Name", "Editors.Name.Last_Name"),
    ("X1.X2.Last_Name", "*X.Last_Name"),
    ("Referred+.RefKey", "Key"),
    ("X1.RefKey", "Key"),
    ("Editors+.Name", "*X.Name"),
];

/// Local conditions a drawn join puts on one side; `{v}` is the variable.
const LOCAL: [&str; 4] = [
    "{v}.Authors.Name.Last_Name = \"Chang\"",
    "{v}.Year = \"1982\"",
    "{v}.Keywords.Keyword = \"Taylor series\"",
    "{v}.Editors.Name.Last_Name = \"Corliss\"",
];

/// Projections of a drawn join.
const JOIN_SELECT: [&str; 5] = ["r", "s", "r.Key", "r.Authors.Name.Last_Name", "s.Year"];

/// Region names a drawn join's partial index may add to `OPTIONAL_NAMES`:
/// the citation path's.
const CITATION_NAMES: [&str; 2] = ["Referred", "RefKey"];

/// A drawn two-variable join: its paths, a local condition on `r`, on `s`
/// or on neither, and its projection.
fn draw_join(rng: &mut StdRng) -> String {
    let (p, q) = JOIN_ON[rng.random_range(0..JOIN_ON.len())];
    let mut cond = format!("r.{p} = s.{q}");
    match rng.random_range(0..3) {
        0 => {}
        side => {
            let v = if side == 1 { "r" } else { "s" };
            let local = LOCAL[rng.random_range(0..LOCAL.len())].replace("{v}", v);
            cond = format!("{cond} AND {local}");
        }
    }
    let select = JOIN_SELECT[rng.random_range(0..JOIN_SELECT.len())];
    format!("SELECT {select} FROM References r, References s WHERE {cond}")
}

#[test]
fn drawn_joins_match_the_baseline_on_full_and_partial_indexes() {
    run_cases("drawn joins", 120, |rng| {
        let seed = rng.random_range(0..4) as u64;
        let q = draw_join(rng);
        let names: Vec<&str> = OPTIONAL_NAMES.iter().chain(&CITATION_NAMES).copied().collect();
        let mask = rng.random_range(1..1usize << names.len());
        let cfg = BibtexConfig {
            n_refs: 30,
            seed,
            name_pool: 8,
            editors_per_ref: (0, 2),
            ..Default::default()
        };
        let corpus = corpus(&cfg);
        let via_db = run_baseline(&corpus, &bibtex::schema(), &q, BaselineMode::FullLoad).unwrap();
        for mask in [0, mask] {
            let spec = index_spec_over(&names, mask);
            let db = FileDatabase::build(corpus.clone(), bibtex::schema(), spec).unwrap();
            let at = format!("corpus seed {seed}, index mask {mask:#b}, query {q}");
            let via_index = db.query(&q).map_err(|e| format!("{e}; {at}"))?;
            if sorted(&via_index.values) != sorted(&via_db.values) {
                return Err(format!("index and baseline disagree; {at}"));
            }
            candidates_hold_the_answer(&db, &q).map_err(|why| format!("{why}; {at}"))?;
        }
        Ok(())
    });
}

#[test]
fn reduced_load_always_agrees_with_full_load() {
    let pool: Vec<&str> = SINGLE_VAR.iter().chain(&JOINS).copied().collect();
    run_cases("reduced load", 60, |rng| {
        let seed = rng.random_range(0..4) as u64;
        let q = pool[rng.random_range(0..pool.len())];
        let cfg = BibtexConfig { n_refs: 20, seed, name_pool: 8, ..Default::default() };
        let corpus = corpus(&cfg);
        let schema = bibtex::schema();
        let full = run_baseline(&corpus, &schema, q, BaselineMode::FullLoad).unwrap();
        let reduced = run_baseline(&corpus, &schema, q, BaselineMode::ReducedLoad).unwrap();
        let at = format!("corpus seed {seed}, query {q}");
        if sorted(&full.values) != sorted(&reduced.values) {
            return Err(format!("reduced load changed the answer; {at}"));
        }
        if reduced.stats.db.value_nodes > full.stats.db.value_nodes {
            return Err(format!("reduced load built more value nodes; {at}"));
        }
        Ok(())
    });
}

/// Query shapes over one schema: `{w}` in a query takes a value the
/// baseline returns for `words`.
struct Shapes {
    schema: fn() -> StructuringSchema,
    generate: fn(u64) -> String,
    view_symbol: &'static str,
    optional: &'static [&'static str],
    words: &'static str,
    queries: &'static [&'static str],
}

const CHILD_SHAPES: [Shapes; 2] = [
    Shapes {
        schema: code::schema,
        generate: |seed| {
            code::generate(&code::CodeConfig {
                n_functions: 20,
                seed,
                if_percent: 40,
                ..Default::default()
            })
            .0
        },
        view_symbol: "Function",
        optional: &["FnName", "Body", "Stmt", "Call", "Callee", "If", "Nested"],
        words: "SELECT f.Stmt+.Callee FROM Functions f",
        queries: &[
            "SELECT f FROM Functions f WHERE f.Body.Stmt.Callee = \"{w}\"",
            "SELECT f.FnName FROM Functions f WHERE f.Body.Stmt.Nested.Stmt.Callee = \"{w}\"",
            "SELECT f FROM Functions f WHERE f.Stmt+.Callee = \"{w}\"",
            "SELECT f.Body.Stmt.Callee FROM Functions f",
            "SELECT f.Body.Stmt.Nested.Stmt.Callee FROM Functions f",
            "SELECT f.Stmt+.Callee FROM Functions f",
        ],
    },
    Shapes {
        schema: sgml::schema,
        generate: |seed| sgml::generate(&sgml::SgmlConfig { seed, ..Default::default() }).0,
        view_symbol: "Section",
        optional: &["Head", "Paras", "Para", "Text", "Subsections"],
        words: "SELECT s.Paras.Para FROM Sections s",
        queries: &[
            "SELECT s FROM Sections s WHERE s.Paras.Para = \"{w}\"",
            "SELECT s.Head FROM Sections s WHERE s.Paras.Para = \"{w}\"",
            "SELECT s.Paras.Para FROM Sections s",
            "SELECT s.Paras.Para FROM Sections s WHERE s.Head = \"{w}\"",
        ],
    },
];

#[test]
fn child_node_shapes_match_the_baseline_under_any_index_subset() {
    run_cases("child shapes", 120, |rng| {
        let shapes = &CHILD_SHAPES[rng.random_range(0..CHILD_SHAPES.len())];
        let seed = rng.random_range(0..4) as u64;
        let corpus = Corpus::from_text(&(shapes.generate)(seed));
        let schema = (shapes.schema)();
        let words = run_baseline(&corpus, &schema, shapes.words, BaselineMode::FullLoad).unwrap();
        let heads =
            run_baseline(&corpus, &schema, "SELECT s.Head FROM Sections s", BaselineMode::FullLoad);
        let mut pool: Vec<&str> = words.values.iter().filter_map(|v| v.as_str()).collect();
        if let Ok(heads) = &heads {
            pool.extend(heads.values.iter().filter_map(|v| v.as_str()));
        }
        let word = pool[rng.random_range(0..pool.len())];
        let q = shapes.queries[rng.random_range(0..shapes.queries.len())].replace("{w}", word);
        let mask = rng.random_range(0..1usize << shapes.optional.len());
        let spec = if mask == 0 {
            IndexSpec::full()
        } else {
            let mut spec = IndexSpec::names([shapes.view_symbol]);
            for (i, name) in shapes.optional.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    spec = spec.with_name(name);
                }
            }
            spec
        };
        let db = FileDatabase::build(corpus.clone(), schema.clone(), spec).unwrap();
        let via_index = db.query(&q).map_err(|e| format!("{q}: {e}"))?;
        let via_db = run_baseline(&corpus, &schema, &q, BaselineMode::FullLoad).unwrap();
        if shown(&via_index.values, &via_index.db) == shown(&via_db.values, &via_db.db) {
            Ok(())
        } else {
            Err(format!(
                "corpus seed {seed}, index mask {mask:#b}: index and baseline disagree on {q}"
            ))
        }
    });
}
