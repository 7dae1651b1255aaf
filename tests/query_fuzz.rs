//! Seeded end-to-end query loop over all five schemas. Queries are random
//! walks down each schema's grammar from its view symbol — repeats
//! allowed, so self-nested paths such as `Subsections.Section.Subsections`
//! occur, and half of them with a run of steps turned into a `*X`,
//! `X1..Xn` or `A+` variable step — used as `=` selections and as
//! projections, under a full and a
//! partial index. Half of them then take 1–3 byte mutations, as untrusted
//! query text would. Every input must come back `Ok` or as a typed error,
//! never as a panic, and every rewrite of a planned query must certify.
//! Every unmutated query must also mean what it means to the database
//! baseline (`run_baseline`, full load): the same values, or an error on
//! both sides.
//!
//! A second loop draws content compares within one variable (`v.p = v.q`)
//! and `AND`/`OR`/`NOT` mixes, under a full index and two partial ones,
//! and checks them against the baseline with nested objects compared by
//! content.
//!
//! A third loop compares atoms within one bibtex reference under indexes
//! that locate them exactly, only approximately, or only through an
//! enclosing region, where the text test narrows the candidates.
//!
//! The loop runs through `FileDatabase::query_traced`, whose planner
//! certifies every optimizer call it lowers. Every case runs on its own
//! seed drawn from a fixed `StdRng` stream; a failure prints the case's
//! seed and query text.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};

use common::{shown, with_variable};
use qof::baseline::{run_baseline, BaselineMode};
use qof::corpus::{bibtex, code, logs, mail, sgml, Rng, StdRng};
use qof::grammar::{IndexSpec, StructuringSchema};
use qof::text::Corpus;
use qof::FileDatabase;

/// Cases per schema and index.
const CASES: usize = 100;

/// A schema, one of its views, and a small generated corpus over it.
fn corpora() -> Vec<(StructuringSchema, String)> {
    vec![
        (bibtex::schema(), bibtex::generate(&bibtex::BibtexConfig::with_refs(20)).0),
        (sgml::schema(), sgml::generate(&sgml::SgmlConfig::default()).0),
        (
            code::schema(),
            code::generate(&code::CodeConfig { n_functions: 12, ..Default::default() }).0,
        ),
        (
            logs::schema(),
            logs::generate(&logs::LogConfig { n_sessions: 12, ..Default::default() }).0,
        ),
        (
            mail::schema(),
            mail::generate(&mail::MailConfig { n_messages: 12, ..Default::default() }).0,
        ),
    ]
}

/// A random walk of 1–5 steps down the grammar from `symbol`, spelled as
/// attribute names; it stops early at a token. One time in two, a run of
/// its steps becomes a variable step.
fn grammar_walk(schema: &StructuringSchema, symbol: &str, rng: &mut StdRng) -> Vec<String> {
    let g = &schema.grammar;
    let mut at = g.symbol(symbol).expect("view symbol");
    let mut steps = Vec::new();
    for _ in 0..rng.random_range(1..6) {
        let children = g.children_of(at);
        if children.is_empty() {
            break;
        }
        at = children[rng.random_range(0..children.len())];
        steps.push(g.name(at).to_owned());
    }
    if rng.random_range(0..2) == 0 {
        steps = with_variable(steps, rng);
    }
    steps
}

/// A query over `view` built from a grammar walk: an `=` selection, a
/// projection, or both.
fn random_query(
    schema: &StructuringSchema,
    (view, symbol): (&str, &str),
    words: &[&str],
    rng: &mut StdRng,
) -> String {
    let path = |rng: &mut StdRng| format!("v.{}", grammar_walk(schema, symbol, rng).join("."));
    let word = words[rng.random_range(0..words.len())];
    match rng.random_range(0..3) {
        0 => format!("SELECT v FROM {view} v WHERE {} = \"{word}\"", path(rng)),
        1 => format!("SELECT {} FROM {view} v", path(rng)),
        _ => {
            let projected = path(rng);
            format!("SELECT {projected} FROM {view} v WHERE {} = \"{word}\"", path(rng))
        }
    }
}

/// A condition on `v`: an `=` to a word, a content compare of two paths
/// (`v.p = v.q`), or, below `depth`, an `AND`, `OR` or `NOT` of smaller
/// ones.
fn random_cond(
    schema: &StructuringSchema,
    (view, symbol): (&str, &str),
    words: &[&str],
    depth: u32,
    rng: &mut StdRng,
) -> String {
    let path = |rng: &mut StdRng| format!("v.{}", grammar_walk(schema, symbol, rng).join("."));
    let sub = |rng: &mut StdRng| random_cond(schema, (view, symbol), words, depth - 1, rng);
    match rng.random_range(0..if depth == 0 { 2 } else { 5 }) {
        0 => format!("{} = \"{}\"", path(rng), words[rng.random_range(0..words.len())]),
        1 => format!("{} = {}", path(rng), path(rng)),
        2 => format!("({} AND {})", sub(rng), sub(rng)),
        3 => format!("({} OR {})", sub(rng), sub(rng)),
        _ => format!("NOT {}", sub(rng)),
    }
}

/// Overwrites, deletes or inserts 1–3 bytes, drawing new bytes from the
/// query language's own punctuation as well as arbitrary ones.
fn mutate(query: &str, rng: &mut StdRng) -> String {
    const PUNCT: &[u8] = b".\"*+=()^, XAND OR NOT SELECT FROM WHERE";
    let mut bytes = query.as_bytes().to_vec();
    for _ in 0..rng.random_range(1..4) {
        let byte = if rng.random_range(0..2) == 0 {
            PUNCT[rng.random_range(0..PUNCT.len())]
        } else {
            rng.random_range(0..256) as u8
        };
        let at = rng.random_range(0..=bytes.len());
        match rng.random_range(0..3) {
            0 if at < bytes.len() => bytes[at] = byte,
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, byte),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Runs `query`: it must not panic, and a planned query's rewrites must
/// all certify.
fn run(db: &FileDatabase, query: &str) -> Result<(), String> {
    match catch_unwind(AssertUnwindSafe(|| db.query_traced(query))) {
        Err(_) => Err("panicked".into()),
        Ok(Err(_)) => Ok(()),
        Ok(Ok((_, trace))) => match trace.rewrites.iter().find(|rw| !rw.certified) {
            Some(rw) => Err(format!("uncertified rewrite {rw:?}")),
            None => Ok(()),
        },
    }
}

/// The index and the baseline return the same sorted values for `query`,
/// or both fail.
fn agrees_with_baseline(db: &FileDatabase, query: &str) -> Result<(), String> {
    let sorted = |values: &[qof::db::Value]| {
        let mut out: Vec<String> = values.iter().map(ToString::to_string).collect();
        out.sort();
        out
    };
    let ours = db.query(query).map(|r| sorted(&r.values));
    let base = run_baseline(db.corpus(), db.schema(), query, BaselineMode::FullLoad)
        .map(|r| sorted(&r.values));
    match (ours, base) {
        (Ok(a), Ok(b)) if a == b => Ok(()),
        (Err(_), Err(_)) => Ok(()),
        (a, b) => Err(format!("index {a:?} against baseline {b:?}")),
    }
}

/// [`agrees_with_baseline`] with object references shown as the objects
/// they name, for answers that hold nested objects: identities differ
/// between two databases, contents must not.
fn same_objects_as_baseline(db: &FileDatabase, query: &str) -> Result<(), String> {
    let ours = db.query(query).map(|r| shown(&r.values, &r.db));
    let base = run_baseline(db.corpus(), db.schema(), query, BaselineMode::FullLoad)
        .map(|r| shown(&r.values, &r.db));
    match (ours, base) {
        (Ok(a), Ok(b)) if a == b => Ok(()),
        (Err(_), Err(_)) => Ok(()),
        (a, b) => Err(format!("index {a:?} against baseline {b:?}")),
    }
}

#[test]
fn random_and_mutated_queries_never_panic_and_always_certify() {
    let mut seeds = StdRng::seed_from_u64(0xf022_9e71);
    let mut planned = 0;
    for (schema, text) in corpora() {
        let (view, symbol) = schema.views().next().expect("a view");
        let (view, symbol) = (view.to_owned(), symbol.to_owned());
        let words: Vec<&str> =
            text.split(|c: char| !c.is_alphanumeric()).filter(|w| !w.is_empty()).collect();
        let corpus = Corpus::from_text(&text);
        // A full index, and a partial one: the view plus every other
        // symbol the walk can reach from it, halved.
        let mut rng = StdRng::seed_from_u64(seeds.next_u64());
        let mut partial = IndexSpec::names([symbol.as_str()]);
        for (_, name) in schema.grammar.symbols() {
            if rng.random_range(0..2) == 0 {
                partial = partial.with_name(name);
            }
        }
        for spec in [IndexSpec::full(), partial] {
            let db = FileDatabase::build(corpus.clone(), schema.clone(), spec).unwrap();
            for i in 0..CASES {
                let seed = seeds.next_u64();
                let rng = &mut StdRng::seed_from_u64(seed);
                let mut query = random_query(&schema, (&view, &symbol), &words, rng);
                let mutated = rng.random_range(0..2) == 0;
                if mutated {
                    query = mutate(&query, rng);
                } else {
                    planned += 1;
                }
                let checked = run(&db, &query).and_then(|()| {
                    if mutated {
                        Ok(())
                    } else {
                        agrees_with_baseline(&db, &query)
                    }
                });
                if let Err(msg) = checked {
                    panic!("{view}, case {i} (seed {seed:#x}): {msg} on `{query}`");
                }
            }
        }
    }
    assert!(planned > CASES * 4, "unmutated queries: {planned}");
}

/// Content compares within one variable (`v.p = v.q`) and `AND`/`OR`/`NOT`
/// mixes of them and of `=` selections, projected as objects or as a
/// path, under partial indexes (where most of them leave a residual for
/// the check pass) and a full one: every answer is the baseline's.
#[test]
fn content_compares_and_boolean_mixes_match_the_baseline() {
    let mut seeds = StdRng::seed_from_u64(0xc0_4e7e);
    let (mut agreed, mut residuals) = (0, 0);
    for (schema, text) in corpora() {
        let (view, symbol) = schema.views().next().expect("a view");
        let (view, symbol) = (view.to_owned(), symbol.to_owned());
        let words: Vec<&str> =
            text.split(|c: char| !c.is_alphanumeric()).filter(|w| !w.is_empty()).collect();
        let corpus = Corpus::from_text(&text);
        let mut specs = vec![IndexSpec::full()];
        for _ in 0..2 {
            let mut rng = StdRng::seed_from_u64(seeds.next_u64());
            let mut partial = IndexSpec::names([symbol.as_str()]);
            for (_, name) in schema.grammar.symbols() {
                if rng.random_range(0..3) == 0 {
                    partial = partial.with_name(name);
                }
            }
            specs.push(partial);
        }
        for spec in specs {
            let db = FileDatabase::build(corpus.clone(), schema.clone(), spec).unwrap();
            for i in 0..CASES / 2 {
                let seed = seeds.next_u64();
                let rng = &mut StdRng::seed_from_u64(seed);
                let cond = random_cond(&schema, (&view, &symbol), &words, 2, rng);
                let select = if rng.random_range(0..2) == 0 {
                    "v".to_owned()
                } else {
                    format!("v.{}", grammar_walk(&schema, &symbol, rng).join("."))
                };
                let query = format!("SELECT {select} FROM {view} v WHERE {cond}");
                let checked = run(&db, &query).and_then(|()| same_objects_as_baseline(&db, &query));
                if let Err(msg) = checked {
                    panic!("{view}, case {i} (seed {seed:#x}): {msg} on `{query}`");
                }
                agreed += usize::from(db.query(&query).is_ok());
                residuals +=
                    usize::from(db.plan(&query).is_ok_and(|plan| plan.vars[0].residual.is_some()));
            }
        }
    }
    let cases = CASES / 2 * 3 * 5;
    assert!(agreed * 2 > cases, "{agreed} of {cases} queries planned and ran");
    assert!(residuals * 4 > cases, "only {residuals} of {cases} queries left a residual");
}

/// Atom compares within one reference (`v.p = v.q`), alone or mixed with
/// `=` selections, under a full index and three partial ones: the first
/// two locate a superset of the `Last_Name` atoms (so a compare of them
/// pairs regions by text), the third exactly on the `Authors` side only.
/// The paths reach different atoms (`Editors…` against `Authors…`), the
/// same atoms (a path against itself) or share the `Authors` set prefix,
/// and a small name pool makes a reference often repeat a name. The text
/// test drops candidates before parsing; it must never drop an answer.
#[test]
fn atom_compares_under_inexact_indexes_match_the_baseline() {
    const PATHS: &[&str] = &[
        "Editors.Name.Last_Name",
        "Authors.Name.Last_Name",
        "Authors.Name.First_Name",
        "Editors.Name.First_Name",
        "Key",
        "Referred.RefKey",
        "*X.Last_Name",
    ];
    let cfg = bibtex::BibtexConfig { n_refs: 40, name_pool: 4, seed: 5, ..Default::default() };
    let (text, _) = bibtex::generate(&cfg);
    let corpus = Corpus::from_text(&text);
    let specs = [
        IndexSpec::full(),
        IndexSpec::names(["Reference", "Last_Name"]),
        IndexSpec::names(["Reference", "Name", "Last_Name"]),
        IndexSpec::names(["Reference", "Authors", "Last_Name"]),
    ];
    let mut seeds = StdRng::seed_from_u64(0xa7_0e5);
    let mut nonempty = 0;
    for spec in specs {
        let db = FileDatabase::build(corpus.clone(), bibtex::schema(), spec.clone()).unwrap();
        let mut queries: Vec<(u64, String)> = [
            "v.Editors.Name.Last_Name = v.Authors.Name.Last_Name",
            "v.Authors.Name.Last_Name = v.Authors.Name.Last_Name",
            "v.Authors.Name.First_Name = v.Authors.Name.Last_Name",
        ]
        .iter()
        .map(|cond| (0, format!("SELECT v FROM References v WHERE {cond}")))
        .collect();
        for _ in 0..CASES / 2 {
            let seed = seeds.next_u64();
            let rng = &mut StdRng::seed_from_u64(seed);
            let mut path = || PATHS[rng.random_range(0..PATHS.len())];
            let compare = format!("v.{} = v.{}", path(), path());
            let select = if rng.random_range(0..2) == 0 { "v" } else { "v.Key" };
            let cond = match rng.random_range(0..4) {
                0 => format!("NOT {compare}"),
                1 => format!("({compare} AND v.Year = \"1982\")"),
                2 => format!("({compare} OR v.Authors.Name.Last_Name = \"Chang\")"),
                _ => compare,
            };
            queries.push((seed, format!("SELECT {select} FROM References v WHERE {cond}")));
        }
        for (seed, query) in queries {
            let checked = run(&db, &query).and_then(|()| same_objects_as_baseline(&db, &query));
            if let Err(msg) = checked {
                panic!("{spec:?}, seed {seed:#x}: {msg} on `{query}`");
            }
            nonempty += usize::from(db.query(&query).is_ok_and(|r| !r.values.is_empty()));
        }
    }
    let cases = 4 * (CASES / 2 + 3);
    assert!(nonempty * 4 > cases, "only {nonempty} of {cases} queries had answers");
}
