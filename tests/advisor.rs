//! Seeded end-to-end check of the §7 index advisor on all five schemas.
//! Each case draws an atom path — a walk down the grammar from a view
//! symbol to a token — and one of that token's values in the corpus, and
//! asks `advise` for the index set of `SELECT v FROM View v WHERE v.path =
//! "value"`. A database indexed on exactly that set must answer as the
//! database baseline (`run_baseline`, full load) does. A draw both sides
//! refuse (a path naming a choice branch) is drawn again.
//! On bibtex, logs and mail the index must also compute every answer
//! exactly (`exact_index`): §7 calls the set sufficient "to fully compute
//! Q".
//!
//! Every case draws from a fixed `StdRng` stream; a failure prints the
//! query, which reproduces it alone.

mod common;

use std::collections::{BTreeMap, BTreeSet};

use common::shown;
use qof::baseline::{run_baseline, BaselineMode};
use qof::corpus::{bibtex, code, logs, mail, sgml, Rng, StdRng};
use qof::grammar::{IndexSpec, StructuringSchema};
use qof::text::Corpus;
use qof::{advise, parse_query, FileDatabase};

/// Cases per schema.
const CASES: usize = 60;

/// One side's answer: the sorted renderings of its values, or its error.
type Answer = Result<Vec<String>, String>;

/// A schema, a small generated corpus over it, and whether the advised
/// index must answer exactly.
fn corpora() -> Vec<(&'static str, StructuringSchema, String, bool)> {
    vec![
        (
            "bibtex",
            bibtex::schema(),
            bibtex::generate(&bibtex::BibtexConfig::with_refs(20)).0,
            true,
        ),
        (
            "logs",
            logs::schema(),
            logs::generate(&logs::LogConfig { n_sessions: 12, ..Default::default() }).0,
            true,
        ),
        (
            "mail",
            mail::schema(),
            mail::generate(&mail::MailConfig { n_messages: 12, ..Default::default() }).0,
            true,
        ),
        ("sgml", sgml::schema(), sgml::generate(&sgml::SgmlConfig::default()).0, false),
        (
            "code",
            code::schema(),
            code::generate(&code::CodeConfig { n_functions: 12, ..Default::default() }).0,
            false,
        ),
    ]
}

/// A walk of at most eight steps down the grammar from `symbol` that ends
/// at a token, spelled as attribute names, or `None` when it does not get
/// there.
fn atom_path(schema: &StructuringSchema, symbol: &str, rng: &mut StdRng) -> Option<Vec<String>> {
    let g = &schema.grammar;
    let mut at = g.symbol(symbol)?;
    let mut steps = Vec::new();
    for _ in 0..8 {
        let children = g.children_of(at);
        if children.is_empty() {
            return (!steps.is_empty()).then_some(steps);
        }
        at = children[rng.random_range(0..children.len())];
        steps.push(g.name(at).to_owned());
    }
    None
}

/// A query's answer from the index and from the baseline, each as the
/// sorted renderings of its values, and whether the index's was exact.
fn answers(db: &FileDatabase, query: &str) -> (Answer, Answer, bool) {
    let ours = db.query(query);
    let exact = ours.as_ref().is_ok_and(|r| r.stats.exact_index);
    let ours = ours.map(|r| shown(&r.values, &r.db)).map_err(|e| e.to_string());
    let base = run_baseline(db.corpus(), db.schema(), query, BaselineMode::FullLoad)
        .map(|r| shown(&r.values, &r.db))
        .map_err(|e| e.to_string());
    (ours, base, exact)
}

#[test]
fn a_database_on_the_advised_index_set_answers_as_the_baseline() {
    let mut seeds = StdRng::seed_from_u64(0xad71_5e00);
    for (name, schema, text, must_be_exact) in corpora() {
        let corpus = Corpus::from_text(&text);
        let full = FileDatabase::build(corpus.clone(), schema.clone(), IndexSpec::full()).unwrap();
        let views: Vec<(String, String)> =
            schema.views().map(|(v, s)| (v.to_owned(), s.to_owned())).collect();
        let mut dbs: BTreeMap<BTreeSet<String>, FileDatabase> = BTreeMap::new();
        let (mut answered, mut nonempty, mut refused) = (0, 0, 0);
        let mut rng = StdRng::seed_from_u64(seeds.next_u64());
        while answered < CASES {
            let (view, symbol) = &views[rng.random_range(0..views.len())];
            let Some(steps) = atom_path(&schema, symbol, &mut rng) else { continue };
            let token = steps.last().expect("a path has a step");
            let Some(regions) = full.instance().get(token).filter(|set| !set.is_empty()) else {
                continue;
            };
            let region = regions.as_slice()[rng.random_range(0..regions.len())];
            let value = corpus.slice(region.span());
            if value.is_empty() || value.contains(['"', '\\', '\n']) || value.trim() != value {
                continue;
            }
            let query = format!("SELECT v FROM {view} v WHERE v.{} = \"{value}\"", steps.join("."));
            let parsed = parse_query(&query).unwrap();
            let advice = advise(&schema, full.full_rig(), std::slice::from_ref(&parsed));
            let db = dbs.entry(advice.index_set.clone()).or_insert_with(|| {
                let spec = IndexSpec::names(advice.index_set.iter().cloned());
                FileDatabase::build(corpus.clone(), schema.clone(), spec).unwrap()
            });
            let (ours, base, exact) = answers(db, &query);
            let set = &advice.index_set;
            match (&ours, &base) {
                (Ok(a), Ok(b)) if a == b => {
                    answered += 1;
                    nonempty += usize::from(!a.is_empty());
                    assert!(
                        exact || !must_be_exact,
                        "{name}: `{query}` is inexact on the advised set {set:?}"
                    );
                }
                // A path naming a choice branch (QOF022) fails on both
                // sides; draw again.
                (Err(_), Err(_)) => {
                    refused += 1;
                    assert!(refused < CASES, "{name}: {refused} paths refused");
                }
                _ => panic!(
                    "{name}: `{query}` on the advised set {set:?}: index {ours:?} against \
                     baseline {base:?}"
                ),
            }
        }
        assert!(nonempty * 4 > CASES, "{name}: {nonempty} of {CASES} answers non-empty");
    }
}
