//! Golden values: the parser's observable output on one small seeded file
//! of every corpus, pinned byte for byte. For each corpus the report holds
//!
//! * a digest of the `Debug` rendering of the full value and of two
//!   filtered (§6.2 push-down) values, with every object they created;
//! * per-name region digests under a full, a partial and a scoped
//!   (§7 selective) [`IndexSpec`];
//! * the counters `bytes_scanned`, `nodes_built`, `value_nodes` and
//!   `objects_created` of the parse tree API, the executor and the
//!   database baseline.
//!
//! The expected report is `tests/golden_values.txt`. A change to value
//! building, region extraction or the counters shows up as a line diff
//! there.
//!
//! A second test runs a grammar whose failing alternative builds a nested
//! object before it fails: nothing of the failed attempt may survive.

use std::fmt::Write as _;

use qof::baseline::{run_baseline, BaselineMode};
use qof::corpus::{bibtex, code, logs, mail, sgml};
use qof::db::{Database, Oid};
use qof::grammar::{
    build_value, build_value_filtered, extract_regions, lit, nt, Grammar, IndexSpec, Parser,
    PathFilter, StructuringSchema, TokenPattern, ValueBuilder,
};
use qof::text::Corpus;
use qof::FileDatabase;

/// One corpus: a small file, its schema, and what to filter and index.
struct Case {
    name: &'static str,
    text: String,
    schema: StructuringSchema,
    view: &'static str,
    filters: [&'static [&'static str]; 2],
    partial: &'static [&'static str],
    scoped: (&'static str, &'static str),
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "bibtex",
            text: bibtex::generate(&bibtex::BibtexConfig {
                n_refs: 3,
                seed: 7,
                editors_per_ref: (1, 2),
                ..Default::default()
            })
            .0,
            schema: bibtex::schema(),
            view: "References",
            filters: [&["Reference", "Key"], &["Reference", "Authors", "Name", "Last_Name"]],
            partial: &["Reference", "Last_Name"],
            scoped: ("Authors", "Name"),
        },
        Case {
            name: "sgml",
            text: sgml::generate(&sgml::SgmlConfig {
                top_sections: 2,
                max_depth: 3,
                subsections: (1, 2),
                seed: 7,
                ..Default::default()
            })
            .0,
            schema: sgml::schema(),
            view: "Sections",
            filters: [&["Section", "Head"], &["Section", "Subsections", "Section", "Head"]],
            partial: &["Section", "Head"],
            scoped: ("Subsections", "Section"),
        },
        Case {
            name: "code",
            text: code::generate(&code::CodeConfig {
                n_functions: 4,
                seed: 7,
                if_percent: 40,
                ..Default::default()
            })
            .0,
            schema: code::schema(),
            view: "Functions",
            filters: [&["Function", "FnName"], &["Function", "Body", "Stmt", "Callee"]],
            partial: &["Function", "Callee"],
            scoped: ("If", "Callee"),
        },
        Case {
            name: "logs",
            text: logs::generate(&logs::LogConfig { n_sessions: 3, seed: 7, ..Default::default() })
                .0,
            schema: logs::schema(),
            view: "Sessions",
            filters: [&["Session", "User"], &["Session", "Requests", "Request", "Status"]],
            partial: &["Session", "Path"],
            scoped: ("Requests", "Status"),
        },
        Case {
            name: "mail",
            text: mail::generate(&mail::MailConfig {
                n_messages: 3,
                seed: 7,
                ..Default::default()
            })
            .0,
            schema: mail::schema(),
            view: "Messages",
            filters: [&["Message", "Sender"], &["Message", "Recipients", "Addr"]],
            partial: &["Message", "Addr"],
            scoped: ("Recipients", "Addr"),
        },
    ]
}

/// FNV-1a, 64 bits: stable across platforms and runs.
fn digest(s: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The `Debug` rendering of a value followed by every object of `db`.
fn render(value: &dyn std::fmt::Debug, db: &Database) -> String {
    let mut out = format!("{value:?}");
    for i in 0..db.object_count() {
        let oid = Oid(i as u32);
        let _ = write!(out, "\n{oid} {:?} {:?}", db.class_of(oid), db.deref(oid));
    }
    out
}

fn counters(line: &mut String, bytes: u64, nodes: u64, db: qof::db::DbStats) {
    let _ = writeln!(
        line,
        "bytes_scanned={bytes} nodes_built={nodes} value_nodes={} objects_created={}",
        db.value_nodes, db.objects_created
    );
}

fn regions(out: &mut String, label: &str, instance: &qof::pat::Instance) {
    for (name, set) in instance.iter() {
        let spans: Vec<String> = set.iter().map(|r| format!("{}-{}", r.start, r.end)).collect();
        let _ = writeln!(out, "  {label} {name}: {} {}", set.len(), digest(&spans.join(",")));
    }
}

fn report(case: &Case) -> String {
    let g = &case.schema.grammar;
    let text = case.text.as_str();
    let mut out = format!("== {} ({} bytes)\n", case.name, text.len());

    let parser = Parser::new(g, text);
    let tree = parser.parse_root(0..text.len() as u32).unwrap();
    let s = parser.stats();
    let _ = write!(out, "  tree: ");
    counters(&mut out, s.bytes_scanned, s.nodes_built, Default::default());

    let mut db = Database::new();
    let full = build_value(&tree, g, text, &mut db);
    let shown = render(&full, &db);
    let _ = write!(out, "  full value {} {}: ", shown.len(), digest(&shown));
    counters(&mut out, 0, 0, db.stats());
    for (i, path) in case.filters.iter().enumerate() {
        let mut db = Database::new();
        let filter = PathFilter::from_paths(&[path.to_vec()]);
        let v = build_value_filtered(&tree, g, text, &mut db, &filter);
        let shown = render(&v, &db);
        let _ = write!(out, "  filtered {i} {} {}: ", shown.len(), digest(&shown));
        counters(&mut out, 0, 0, db.stats());
    }

    let scoped =
        IndexSpec::names(case.partial.iter().copied()).with_scoped(case.scoped.0, case.scoped.1);
    for (label, spec) in [
        ("full", IndexSpec::full()),
        ("partial", IndexSpec::names(case.partial.iter().copied())),
        ("scoped", scoped),
    ] {
        regions(&mut out, &format!("tree/{label}"), &extract_regions(&tree, g, &spec));
        let fdb = FileDatabase::build(Corpus::from_text(text), case.schema.clone(), spec).unwrap();
        regions(&mut out, &format!("db/{label}"), fdb.instance());
    }

    let fdb = FileDatabase::build(Corpus::from_text(text), case.schema.clone(), IndexSpec::full())
        .unwrap();
    let q = format!("SELECT v FROM {} v", case.view);
    let res = fdb.query(&q).unwrap();
    let shown = render(&res.values, &res.db);
    let _ = write!(out, "  query {} {}: ", shown.len(), digest(&shown));
    counters(&mut out, res.stats.parse.bytes_scanned, res.stats.parse.nodes_built, res.stats.db);

    let corpus = Corpus::from_text(text);
    let b = run_baseline(&corpus, &case.schema, &q, BaselineMode::FullLoad).unwrap();
    let shown = render(&b.values, &b.db);
    let _ = write!(out, "  baseline {} {}: ", shown.len(), digest(&shown));
    counters(&mut out, b.stats.parse.bytes_scanned, b.stats.parse.nodes_built, b.stats.db);
    out
}

#[test]
fn values_regions_and_counters_match_the_golden_report() {
    let actual: String = cases().iter().map(report).collect();
    let expected = include_str!("golden_values.txt");
    if actual != expected {
        for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
            if a != e {
                eprintln!("first difference at line {}:\n  got      {a}\n  expected {e}", i + 1);
                break;
            }
        }
        panic!("golden report differs; the full report is:\n{actual}");
    }
}

/// `S → Item*`, `Item → Long | Short`: `Long` parses a nested `Obj`
/// object and then fails on its `!`, so `Short` re-parses the same text.
fn backtracking_schema() -> StructuringSchema {
    let g = Grammar::builder("S")
        .repeat("S", "Item", None, ValueBuilder::Set)
        .choice("Item", &["Long", "Short"], ValueBuilder::Child)
        .seq("Long", [lit("("), nt("Obj"), lit("!"), lit(")")], ValueBuilder::TupleAuto)
        .seq("Short", [lit("("), nt("Obj"), lit(")")], ValueBuilder::TupleAuto)
        .seq("Obj", [lit("<"), nt("Word"), lit(">")], ValueBuilder::ObjectAuto("Obj".into()))
        .token("Word", TokenPattern::Word, ValueBuilder::Atom)
        .build()
        .unwrap();
    StructuringSchema::new(g).with_view("Items", "Item")
}

#[test]
fn a_failed_alternative_leaks_no_object_extent_entry_or_region() {
    let schema = backtracking_schema();
    let text = "(<x>) (<y>!) (<z>)";
    let g = &schema.grammar;

    let parser = Parser::new(g, text);
    let tree = parser.parse_root(0..text.len() as u32).unwrap();
    // S, 3 × (Item, Long|Short, Obj, Word).
    assert_eq!(parser.stats().nodes_built, 13);
    let mut db = Database::new();
    let v = build_value(&tree, g, text, &mut db);
    assert_eq!(db.stats().objects_created, 3, "one object per item, none from failed attempts");
    assert_eq!(db.extent("Obj").len(), 3);
    assert_eq!(db.stats().value_nodes, 3 * 2);
    assert_eq!(v.elements().map(<[_]>::len), Some(3));

    let instance = extract_regions(&tree, g, &IndexSpec::full());
    assert_eq!(instance.get("Long").map(qof::pat::RegionSet::len), Some(1));
    assert_eq!(instance.get("Short").map(qof::pat::RegionSet::len), Some(2));
    assert_eq!(instance.get("Obj").map(qof::pat::RegionSet::len), Some(3));
    assert_eq!(instance.get("Word").map(qof::pat::RegionSet::len), Some(3));

    let fdb =
        FileDatabase::build(Corpus::from_text(text), schema.clone(), IndexSpec::full()).unwrap();
    assert_eq!(fdb.instance(), &instance, "the database indexes what the tree holds");
    let res = fdb.query("SELECT i FROM Items i").unwrap();
    assert_eq!(res.values.len(), 3);
    assert_eq!(res.stats.db.objects_created, 3);
    assert_eq!(res.db.extent("Obj").len(), 3);
    assert_eq!(res.stats.parse.nodes_built, 3 * 4);
}
