//! Candidate values against the database baseline, on all five schemas
//! under a full index and under a partial one drawn from a fixed
//! `StdRng` stream.
//!
//! * Projection oracle: every attribute path of one to three steps down
//!   the grammar from the view, projected as `SELECT v.p FROM View v`,
//!   returns exactly the values the baseline returns. Atoms come from the
//!   index's regions; sets, tuples and objects from parsed candidates.
//! * Indexed parses: `Parser::parse_indexed`, which stops a candidate's
//!   parse after the last field the sink keeps, builds the same values
//!   and objects as `Parser::parse_into` under random push-down filters
//!   and under the filters of random queries with residuals, reads no
//!   more than the candidate bytes (fewer whenever the filter drops the
//!   view's last field), and the queries it serves match the baseline.
//!
//! Paths that step through a value-transparent node (a `Child` builder:
//! the choice `Stmt → Call | If`, sgml's `Para → <p> Text </p>`) are left
//! out: the index and the baseline resolve those steps differently.
//! Every case runs on its own seed; a failure prints it.

use qof::baseline::{run_baseline, BaselineMode};
use qof::corpus::{bibtex, code, logs, mail, sgml, Rng, StdRng};
use qof::db::{Database, Value};
use qof::grammar::{
    AtomText, Grammar, IndexSpec, Parser, PathFilter, RuleBody, StructuringSchema, SymbolId, Term,
    ValueBuilder, ValueSink,
};
use qof::pat::RegionSet;
use qof::text::Corpus;
use qof::FileDatabase;

/// Random queries and filters per schema and index.
const CASES: usize = 30;

/// Every schema with a small seeded corpus over it.
fn corpora() -> Vec<(StructuringSchema, String)> {
    vec![
        (bibtex::schema(), bibtex::generate(&bibtex::BibtexConfig::with_refs(12)).0),
        (
            sgml::schema(),
            sgml::generate(&sgml::SgmlConfig { top_sections: 6, ..Default::default() }).0,
        ),
        (
            code::schema(),
            code::generate(&code::CodeConfig { n_functions: 10, ..Default::default() }).0,
        ),
        (
            logs::schema(),
            logs::generate(&logs::LogConfig { n_sessions: 8, ..Default::default() }).0,
        ),
        (
            mail::schema(),
            mail::generate(&mail::MailConfig { n_messages: 8, ..Default::default() }).0,
        ),
    ]
}

/// Every attribute path of `1..=depth` steps from `symbol` that never
/// steps out of a value-transparent node.
fn attribute_paths(g: &Grammar, symbol: SymbolId, depth: usize) -> Vec<Vec<String>> {
    let mut out = Vec::new();
    if depth == 0 || g.rule(symbol).builder == ValueBuilder::Child {
        return out;
    }
    let mut children = g.children_of(symbol);
    children.dedup();
    for child in children {
        out.push(vec![g.name(child).to_owned()]);
        for mut rest in attribute_paths(g, child, depth - 1) {
            rest.insert(0, g.name(child).to_owned());
            out.push(rest);
        }
    }
    out
}

/// The symbol an attribute path ends at.
fn last_symbol(g: &Grammar, path: &[String]) -> SymbolId {
    g.symbol(path.last().expect("a non-empty path")).expect("a grammar symbol")
}

/// A value with its objects spelled out, sets in a database-independent
/// order.
fn show(value: &Value, db: &Database) -> String {
    match value {
        Value::Ref(oid) => match db.deref(*oid) {
            Some(v) => format!("&{}", show(v, db)),
            None => format!("dangling {oid:?}"),
        },
        Value::Tuple(fields) => {
            let fields: Vec<String> =
                fields.iter().map(|(name, v)| format!("{name}: {}", show(v, db))).collect();
            format!("({})", fields.join(", "))
        }
        Value::Set(items) => {
            let mut items: Vec<String> = items.iter().map(|v| show(v, db)).collect();
            items.sort();
            format!("{{{}}}", items.join(", "))
        }
        Value::List(items) => {
            let items: Vec<String> = items.iter().map(|v| show(v, db)).collect();
            format!("[{}]", items.join(", "))
        }
        atom => format!("{atom:?}"),
    }
}

/// The sorted renderings of a result's values.
fn shown(values: &[Value], db: &Database) -> Vec<String> {
    let mut out: Vec<String> = values.iter().map(|v| show(v, db)).collect();
    out.sort();
    out
}

/// A partial index: the view symbol plus about half of the others.
fn partial_spec(g: &Grammar, view_symbol: &str, rng: &mut StdRng) -> IndexSpec {
    let mut spec = IndexSpec::names([view_symbol]);
    for (_, name) in g.symbols() {
        if rng.random_range(0..2) == 0 {
            spec = spec.with_name(name);
        }
    }
    spec
}

fn label(spec: &IndexSpec) -> String {
    if spec.is_full() {
        "full".to_owned()
    } else {
        format!("{:?}", spec.plain_names().collect::<Vec<_>>())
    }
}

/// `q`'s answer must match the baseline's.
fn matches_baseline(db: &FileDatabase, q: &str, at: &str) {
    let ours = db.query(q).unwrap_or_else(|e| panic!("{at}: {q}: {e}"));
    let base = run_baseline(db.corpus(), db.schema(), q, BaselineMode::FullLoad).unwrap();
    assert_eq!(
        shown(&ours.values, &ours.db),
        shown(&base.values, &base.db),
        "{at}: index and baseline disagree on {q}"
    );
}

#[test]
fn every_short_attribute_projection_matches_the_baseline() {
    let mut rng = StdRng::seed_from_u64(0x9b07_ec71);
    let mut checked = 0;
    for (schema, text) in corpora() {
        let (view, symbol) = schema.views().next().expect("a view");
        let g = &schema.grammar;
        let paths = attribute_paths(g, g.symbol(symbol).expect("view symbol"), 3);
        for spec in [IndexSpec::full(), partial_spec(g, symbol, &mut rng)] {
            let at = format!("{} index", label(&spec));
            let db = FileDatabase::build(Corpus::from_text(&text), schema.clone(), spec).unwrap();
            // Every projection over all of the view, then under a
            // selection on each atom path with a value the baseline finds.
            let mut wheres = vec![String::new()];
            for cond in
                paths.iter().filter(|p| g.rule(last_symbol(g, p)).builder == ValueBuilder::Atom)
            {
                let cond = cond.join(".");
                let q = format!("SELECT v.{cond} FROM {view} v");
                let found = run_baseline(db.corpus(), &schema, &q, BaselineMode::FullLoad).unwrap();
                let value =
                    found.values.iter().filter_map(Value::as_str).find(|v| !v.contains('"'));
                wheres.extend(value.map(|value| format!(" WHERE v.{cond} = \"{value}\"")));
            }
            for selection in &wheres {
                for path in &paths {
                    let q = format!("SELECT v.{} FROM {view} v{selection}", path.join("."));
                    matches_baseline(&db, &q, &at);
                    checked += 1;
                }
            }
        }
    }
    assert!(checked >= 800, "only {checked} projections checked");
}

/// Whether `filter` drops the last non-terminal of `symbol`'s sequence.
fn drops_last_field(g: &Grammar, symbol: SymbolId, filter: &PathFilter) -> bool {
    let RuleBody::Seq(terms) = &g.rule(symbol).body else { return false };
    terms.iter().rev().find_map(|t| match t {
        Term::NonTerm(s) => Some(!filter.keeps(g.name(*s))),
        Term::Lit(_) => None,
    }) == Some(true)
}

/// Every object of `db`, spelled out.
fn objects(db: &Database) -> Vec<String> {
    (0..db.object_count() as u32)
        .map(|i| {
            let oid = qof::db::Oid(i);
            format!("{:?} {:?}", db.class_of(oid), db.deref(oid))
        })
        .collect()
}

/// Parses every region of `regions` with `parse_into` and with
/// `parse_indexed` under `filter`: the values, objects and value counts
/// must agree, and the indexed parse must read at most each region's
/// bytes — fewer when `filter` drops the last field. Returns the bytes
/// the indexed parses read.
fn same_parses(
    db: &FileDatabase,
    symbol: SymbolId,
    filter: &PathFilter,
    regions: &RegionSet,
    at: &str,
) -> u64 {
    let g = &db.schema().grammar;
    let text = AtomText::Shared(db.corpus().shared_text());
    let (whole_parser, indexed_parser) =
        (Parser::new(g, db.corpus().text()), Parser::new(g, db.corpus().text()));
    let (mut whole_db, mut indexed_db) = (Database::new(), Database::new());
    let mut whole = ValueSink::new(g, text, &mut whole_db, filter);
    let mut indexed = ValueSink::new(g, text, &mut indexed_db, filter);
    let drops = drops_last_field(g, symbol, filter);
    for r in regions {
        let before = indexed_parser.stats().bytes_scanned;
        whole_parser.parse_into(symbol, r.span(), &mut whole).unwrap();
        indexed_parser.parse_indexed(symbol, r.span(), &mut indexed).unwrap();
        assert_eq!(whole.take(), indexed.take(), "{at}: values of {r:?} under {filter:?}");
        let (read, len) = (indexed_parser.stats().bytes_scanned - before, u64::from(r.len()));
        if drops {
            assert!(read < len, "{at}: {r:?} read {read} of {len} bytes under {filter:?}");
        } else {
            assert_eq!(read, len, "{at}: {r:?} under {filter:?}");
        }
    }
    drop((whole, indexed));
    assert_eq!(objects(&whole_db), objects(&indexed_db), "{at}: objects under {filter:?}");
    assert_eq!(whole_db.stats(), indexed_db.stats(), "{at}: value counts under {filter:?}");
    let total: u64 = regions.iter().map(|r| u64::from(r.len())).sum();
    assert_eq!(whole_parser.stats().bytes_scanned, total, "{at}: parse_into reads every byte");
    indexed_parser.stats().bytes_scanned
}

/// A random query over `view`: objects or a projection, under a residual
/// `=` condition or none.
fn random_query(view: &str, paths: &[Vec<String>], words: &[&str], rng: &mut StdRng) -> String {
    let path =
        |rng: &mut StdRng| format!("v.{}", paths[rng.random_range(0..paths.len())].join("."));
    let word = words[rng.random_range(0..words.len())];
    match rng.random_range(0..3) {
        0 => format!("SELECT v FROM {view} v WHERE {} = \"{word}\"", path(rng)),
        1 => format!("SELECT {} FROM {view} v WHERE {} = \"{word}\"", path(rng), path(rng)),
        _ => format!("SELECT {} FROM {view} v", path(rng)),
    }
}

#[test]
fn indexed_candidate_parses_build_what_whole_parses_build() {
    let mut seeds = StdRng::seed_from_u64(0x1dec_5eed);
    let (mut filters, mut early) = (0, 0);
    for (schema, text) in corpora() {
        let (view, symbol) = schema.views().next().expect("a view");
        let g = &schema.grammar;
        let sym = g.symbol(symbol).expect("view symbol");
        let paths = attribute_paths(g, sym, 3);
        let words: Vec<&str> =
            text.split(|c: char| !c.is_alphanumeric()).filter(|w| !w.is_empty()).collect();
        for spec in [IndexSpec::full(), partial_spec(g, symbol, &mut seeds)] {
            let name = label(&spec);
            let db = FileDatabase::build(Corpus::from_text(&text), schema.clone(), spec).unwrap();
            let regions = db.instance().get(symbol).expect("the view is indexed").clone();
            for i in 0..CASES {
                let seed = seeds.next_u64();
                let rng = &mut StdRng::seed_from_u64(seed);
                let at = format!("{view} on the {name} index, case {i} (seed {seed:#x})");
                // A random push-down filter: a few of the view's paths.
                let chosen: Vec<&Vec<String>> = (0..rng.random_range(0..4))
                    .map(|_| &paths[rng.random_range(0..paths.len())])
                    .collect();
                let filter =
                    PathFilter::from_paths(&chosen.into_iter().cloned().collect::<Vec<_>>());
                same_parses(&db, sym, &filter, &regions, &at);
                filters += 1;
                early += usize::from(drops_last_field(g, sym, &filter));

                // A random query: its answer, which parses candidates with
                // `parse_indexed`, matches the baseline, and its own
                // filter builds the same values both ways.
                let q = random_query(view, &paths, &words, rng);
                let at = format!("{at}, {q}");
                matches_baseline(&db, &q, &at);
                let plan = db.plan(&q).unwrap();
                let Some(filter) = &plan.vars[0].parse else { continue };
                same_parses(&db, sym, filter, &regions, &at);
                let (candidates, _, _) = db.query_regions(&q).unwrap();
                let bytes: u64 = candidates.iter().map(|r| u64::from(r.len())).sum();
                let read = db.query(&q).unwrap().stats.parse.bytes_scanned;
                if drops_last_field(g, sym, filter) && !candidates.is_empty() {
                    assert!(read < bytes, "{at}: read {read} of {bytes} candidate bytes");
                    early += 1;
                } else {
                    assert_eq!(read, bytes, "{at}");
                }
            }
        }
    }
    assert!(early * 4 >= filters, "only {early} of {filters} cases stopped early");
}
