//! What a view path names when it crosses a `Child` node — a node whose
//! value is its child's, such as code's `Stmt → Call | If` and sgml's
//! `Para → <p> Text </p>` (DESIGN.md §19).
//!
//! * Both sides of the paper's comparison read one resolver: the index
//!   (`FileDatabase::query`) and the baseline (`run_baseline`) return the
//!   same values, or the same plan error, on full and partial indexes. A
//!   path may not name a choice branch (`Stmt.Call`) or a `Child`
//!   sequence's inner symbol (`Para.Text`); a path that ends on a `Child`
//!   node compares the node its value comes from (`Paras.Para = "…"`).
//! * Resolver oracle, with neither the index nor the baseline: for every
//!   schema and every attribute path of one to three steps that resolves,
//!   and every way of turning a run of its steps into a `*X`, `X1..Xn` or
//!   `A+` variable step, the resolved `DbStep`s evaluated over a view
//!   node's built value reach exactly the values built for the parse-tree
//!   nodes its region chain reaches from the same view node (`⊃` to any
//!   node of the name below, the node itself included; `⊃^n` to those
//!   exactly `n + 1` nodes down).
//! * Variable steps mean on the index what they mean to the baseline:
//!   known reproductions, and a seeded loop of selections, projections,
//!   negations, disjunctions and content compares with variable steps
//!   over all five schemas, on full and drawn partial indexes.

mod common;

use std::collections::BTreeSet;

use common::{show, shown, with_variable};
use qof::baseline::{run_baseline, BaselineMode};
use qof::corpus::{bibtex, code, logs, mail, sgml, Rng, StdRng};
use qof::db::{eval_path, Database};
use qof::grammar::{
    build_value, resolve_path, Grammar, IndexSpec, ParseNode, Parser, QStep, SkOp,
    StructuringSchema, SymbolId,
};
use qof::text::Corpus;
use qof::FileDatabase;

/// The index's answer and the baseline's, as sorted renderings or as the
/// error text.
fn both_sides(db: &FileDatabase, q: &str) -> [Result<Vec<String>, String>; 2] {
    let index = db.query(q).map(|r| shown(&r.values, &r.db)).map_err(|e| e.to_string());
    let baseline = run_baseline(db.corpus(), db.schema(), q, BaselineMode::FullLoad)
        .map(|r| shown(&r.values, &r.db))
        .map_err(|e| e.to_string());
    [index, baseline]
}

/// What a query must return on both sides.
enum Expect {
    /// This many values, or at least one.
    Values(Option<usize>),
    /// A plan error naming the attribute and the symbol under it.
    NoSuchAttribute(&'static str, &'static str),
}

fn check(db: &FileDatabase, at: &str, q: &str, expect: &Expect) {
    let [index, baseline] = both_sides(db, q);
    assert_eq!(index, baseline, "{at}: index and baseline disagree on {q}");
    match (expect, &index) {
        (Expect::Values(n), Ok(values)) => {
            assert!(n.is_some() || !values.is_empty(), "{at}: {q} returned nothing");
            if let Some(n) = n {
                assert_eq!(values.len(), *n, "{at}: {q}");
            }
        }
        (Expect::NoSuchAttribute(attribute, under), Err(e)) => assert_eq!(
            *e,
            format!("attribute `{attribute}` does not exist under `{under}`"),
            "{at}: {q}"
        ),
        (_, got) => panic!("{at}: {q} returned {got:?}"),
    }
}

#[test]
fn child_paths_mean_the_same_on_the_index_and_the_baseline() {
    let text =
        code::generate(&code::CodeConfig { n_functions: 50, if_percent: 40, ..Default::default() })
            .0;
    for spec in [IndexSpec::full(), IndexSpec::names(["Function", "Stmt", "Callee"])] {
        let at = format!("code, {spec:?}");
        let db = FileDatabase::build(Corpus::from_text(&text), code::schema(), spec).unwrap();
        for (q, expect) in [
            (
                "SELECT v.Body.Stmt.Call.Callee FROM Functions v",
                Expect::NoSuchAttribute("Call", "Stmt"),
            ),
            ("SELECT v.Body.Stmt.If FROM Functions v", Expect::NoSuchAttribute("If", "Stmt")),
            (
                "SELECT v.Body.Stmt.If.Nested FROM Functions v",
                Expect::NoSuchAttribute("If", "Stmt"),
            ),
            ("SELECT v.Body.Stmt.Callee FROM Functions v", Expect::Values(None)),
            ("SELECT v.Body.Stmt.Nested FROM Functions v", Expect::Values(None)),
            ("SELECT v.Body.Stmt FROM Functions v", Expect::Values(None)),
            ("SELECT v.Stmt+.Callee FROM Functions v", Expect::Values(None)),
        ] {
            check(&db, &at, q, &expect);
        }
    }

    let text = sgml::generate(&sgml::SgmlConfig::default()).0;
    let corpus = Corpus::from_text(&text);
    let paras = run_baseline(
        &corpus,
        &sgml::schema(),
        "SELECT v.Paras.Para FROM Sections v",
        BaselineMode::FullLoad,
    )
    .unwrap();
    let para = paras.values[0].as_str().expect("a paragraph's value is its text").to_owned();
    for spec in [IndexSpec::full(), IndexSpec::names(["Section", "Text"])] {
        let at = format!("sgml, {spec:?}");
        let db = FileDatabase::build(corpus.clone(), sgml::schema(), spec).unwrap();
        for (q, expect) in [
            (
                "SELECT v.Paras.Para.Text FROM Sections v".to_owned(),
                Expect::NoSuchAttribute("Text", "Para"),
            ),
            (
                format!("SELECT v FROM Sections v WHERE v.Paras.Para.Text = \"{para}\""),
                Expect::NoSuchAttribute("Text", "Para"),
            ),
            (
                "SELECT v.Paras.Para FROM Sections v".to_owned(),
                Expect::Values(Some(paras.values.len())),
            ),
            (
                format!("SELECT v FROM Sections v WHERE v.Paras.Para = \"{para}\""),
                Expect::Values(Some(1)),
            ),
            (
                format!("SELECT v.Head FROM Sections v WHERE v.Paras.Para = \"{para}\""),
                Expect::Values(Some(1)),
            ),
        ] {
            check(&db, &at, &q, &expect);
        }
    }
}

/// Every grammar path of `1..=depth` steps below `symbol`, spelled as
/// symbol names.
fn grammar_paths(g: &Grammar, symbol: SymbolId, depth: usize) -> Vec<Vec<String>> {
    let mut out = Vec::new();
    if depth == 0 {
        return out;
    }
    for child in g.children_of(symbol) {
        out.push(vec![g.name(child).to_owned()]);
        for mut rest in grammar_paths(g, child, depth - 1) {
            rest.insert(0, g.name(child).to_owned());
            out.push(rest);
        }
    }
    out
}

/// The parse-tree nodes a region chain reaches from `node`: a `⊃d` hop to
/// the children of a name, a `⊃` hop to the nodes of the name below, the
/// node itself included, and a `⊃^n` hop to those exactly `n + 1` down.
fn chain_nodes<'a>(
    g: &Grammar,
    node: &'a ParseNode,
    names: &[String],
    ops: &[SkOp],
) -> Vec<&'a ParseNode> {
    fn down<'a>(n: &'a ParseNode, depth: u32, out: &mut Vec<&'a ParseNode>) {
        match depth {
            0 => out.push(n),
            _ => n.children.iter().for_each(|c| down(c, depth - 1, out)),
        }
    }
    let mut frontier = vec![node];
    for (name, op) in names.iter().zip(ops) {
        let mut below = Vec::new();
        for n in frontier {
            match op {
                SkOp::Adjacent => below.extend(&n.children),
                SkOp::Star | SkOp::Closure => n.walk(&mut |d| below.push(d)),
                SkOp::Exact(k) => down(n, k + 1, &mut below),
            }
        }
        frontier = below.into_iter().filter(|c| g.name(c.symbol) == name).collect();
    }
    frontier
}

/// `path` with every run of its steps turned into a `*X`, `X1..Xn` or
/// `A+` step, each way once.
fn variable_forms(path: &[String]) -> Vec<Vec<QStep>> {
    let attrs = |steps: &[String]| steps.iter().map(|s| QStep::Attr(s.clone())).collect::<Vec<_>>();
    let mut out = Vec::new();
    for from in 0..path.len() {
        for to in from..path.len() {
            let (head, tail) = (attrs(&path[..from]), attrs(&path[to..]));
            let mut variable = |step: QStep, tail: &[QStep]| {
                out.push([&head[..], &[step], tail].concat());
            };
            variable(QStep::Star("X".into()), &tail);
            if to > from {
                variable(QStep::Vars((to - from) as u32), &tail);
            }
            variable(QStep::Plus(path[to].clone()), &tail[1..]);
        }
    }
    out
}

#[test]
fn resolved_steps_reach_what_the_region_chain_reaches() {
    let schemas: Vec<(&str, StructuringSchema, String)> = vec![
        ("bibtex", bibtex::schema(), bibtex::generate(&bibtex::BibtexConfig::with_refs(6)).0),
        (
            "sgml",
            sgml::schema(),
            sgml::generate(&sgml::SgmlConfig { top_sections: 3, ..Default::default() }).0,
        ),
        (
            "code",
            code::schema(),
            code::generate(&code::CodeConfig {
                n_functions: 8,
                if_percent: 40,
                ..Default::default()
            })
            .0,
        ),
        (
            "logs",
            logs::schema(),
            logs::generate(&logs::LogConfig { n_sessions: 5, ..Default::default() }).0,
        ),
        (
            "mail",
            mail::schema(),
            mail::generate(&mail::MailConfig { n_messages: 5, ..Default::default() }).0,
        ),
    ];
    for (name, schema, text) in schemas {
        let g = &schema.grammar;
        let (_, view_symbol) = schema.views().next().expect("a view");
        let sym = g.symbol(view_symbol).expect("view symbol");
        let tree = Parser::new(g, &text).parse_root(0..text.len() as u32).unwrap();
        let mut views: Vec<&ParseNode> = Vec::new();
        tree.walk(&mut |n| {
            if n.symbol == sym {
                views.push(n);
            }
        });
        let (mut checked, mut crossing, mut variable) = (0, 0, 0);
        for path in grammar_paths(g, sym, 3) {
            let fixed: Vec<QStep> = path.iter().map(|s| QStep::Attr(s.clone())).collect();
            for steps in [vec![fixed], variable_forms(&path)].concat() {
                let Ok(spec) = resolve_path(g, view_symbol, &steps) else { continue };
                let is_fixed = steps.iter().all(|s| matches!(s, QStep::Attr(_)));
                for view in &views {
                    let mut db = Database::new();
                    let value = build_value(view, g, &text, &mut db);
                    let mut via_steps = BTreeSet::new();
                    let mut via_chain = BTreeSet::new();
                    for alt in &spec.alternatives {
                        via_steps.extend(
                            eval_path(&db, &value, &alt.steps).iter().map(|v| show(v, &db)),
                        );
                        let mut chain_db = Database::new();
                        for node in chain_nodes(g, view, &alt.names[1..], &alt.ops) {
                            let v = build_value(node, g, &text, &mut chain_db);
                            via_chain.insert(show(&v, &chain_db));
                        }
                    }
                    let at = format!("{name}: {steps:?} from the view at {:?}", view.span);
                    assert_eq!(via_steps, via_chain, "{at}");
                    if is_fixed
                        && spec.alternatives.iter().any(|a| a.names.len() > path.len() + 1)
                        && !via_steps.is_empty()
                    {
                        crossing += 1;
                    }
                    variable += usize::from(!is_fixed && !via_steps.is_empty());
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "{name}: no path checked");
        assert!(variable > 0, "{name}: no variable step reached a value");
        if matches!(name, "sgml" | "code") {
            assert!(crossing > 0, "{name}: no `Child`-crossing path returned values");
        }
    }
}

#[test]
fn content_compares_of_non_atomic_paths_compare_values() {
    // Only an atom's value is its region text. A session with one request
    // has a `Requests` region and a `Request` region of the same text, yet
    // a set of one tuple is not that tuple, so neither compare holds.
    let text = logs::generate(&logs::LogConfig { n_sessions: 12, ..Default::default() }).0;
    for spec in [IndexSpec::full(), IndexSpec::names(["Session", "Requests", "Request"])] {
        let at = format!("logs, {spec:?}");
        let db = FileDatabase::build(Corpus::from_text(&text), logs::schema(), spec).unwrap();
        for q in [
            "SELECT v FROM Sessions v WHERE v.Requests.Request = v.Requests",
            "SELECT v FROM Sessions v, Sessions w WHERE v.Requests.Request = w.Requests",
        ] {
            let [index, baseline] = both_sides(&db, q);
            assert_eq!(index, baseline, "{at}: index and baseline disagree on {q}");
        }
    }
    // A cross-variable join pairs by value, not by region text: two
    // author sets of one value may be written in different orders. Under
    // a partial index the chains are inexact and may locate an enclosing
    // region, whose text is no key at all.
    let cfg = bibtex::BibtexConfig { n_refs: 200, name_pool: 4, ..Default::default() };
    let text = bibtex::generate(&cfg).0;
    for spec in [
        IndexSpec::full(),
        IndexSpec::names(["Reference", "Last_Name"]),
        IndexSpec::names(["Reference", "Authors", "Editors"]),
    ] {
        let at = format!("bibtex, {spec:?}");
        let db = FileDatabase::build(Corpus::from_text(&text), bibtex::schema(), spec).unwrap();
        for q in [
            "SELECT r FROM References r, References s WHERE r.Authors = s.Editors",
            "SELECT r FROM References r, References s WHERE r.Authors.Name = s.Editors.Name",
            "SELECT r FROM References r, References s \
             WHERE r.Authors.Name.Last_Name = s.Editors.Name.Last_Name",
        ] {
            check(&db, &at, q, &Expect::Values(None));
        }
    }
    // Compares between atoms along exact chains stay exact index answers.
    let cfg = bibtex::BibtexConfig {
        n_refs: 60,
        name_pool: 6,
        editors_per_ref: (1, 2),
        referred_per_ref: (1, 2),
        ..Default::default()
    };
    let text = bibtex::generate(&cfg).0;
    let same_var =
        "SELECT r FROM References r WHERE r.Editors.Name.Last_Name = r.Authors.Name.Last_Name";
    let cross_var = "SELECT r FROM References r, References s WHERE r.Referred.RefKey = s.Key";
    let db =
        FileDatabase::build(Corpus::from_text(&text), bibtex::schema(), IndexSpec::full()).unwrap();
    for q in [same_var, cross_var] {
        check(&db, "bibtex, full", q, &Expect::Values(None));
        assert!(db.query(q).unwrap().stats.exact_index, "{q} needs no residual");
    }
}

#[test]
fn variable_steps_mean_the_same_on_the_index_and_the_baseline() {
    let bib = |cfg: bibtex::BibtexConfig| bibtex::generate(&cfg).0;
    // Per corpus: a partial index, and queries with their answer counts.
    type Case<'a> = (StructuringSchema, String, &'a [&'a str], &'a [(&'a str, usize)]);
    let cases: [Case; 5] = [
        (
            bibtex::schema(),
            bib(bibtex::BibtexConfig::with_refs(20)),
            &["Reference", "Last_Name"],
            &[
                // A set item is a target.
                ("SELECT v.Referred.*X.RefKey FROM References v", 12),
                ("SELECT r.*X.Name FROM References r", 63),
                // `A+` reaches the `A` nodes, and the next step is theirs.
                ("SELECT v.Editors+.Name FROM References v", 20),
                ("SELECT v.Key FROM References v WHERE v.Editors+.Name = \"Key000008\"", 0),
                // `⊃^n` on deep regions.
                ("SELECT r.X1.X2.Last_Name FROM References r", 44),
            ],
        ),
        (
            bibtex::schema(),
            bib(bibtex::BibtexConfig { n_refs: 40, name_pool: 4, seed: 5, ..Default::default() }),
            &["Reference", "Last_Name"],
            &[(
                "SELECT r.Key FROM References r WHERE r.X1.X2.Last_Name = r.Authors.Name.Last_Name",
                40,
            )],
        ),
        (
            logs::schema(),
            logs::generate(&logs::LogConfig::default()).0,
            &["Session", "Status"],
            &[
                // A `Request` is the next region down from `Requests`.
                ("SELECT v.Requests.X1.Request.Status FROM Sessions v", 0),
                ("SELECT v.Requests.Request.Status FROM Sessions v", 2),
                ("SELECT v.*X.Request FROM Sessions v", 135),
            ],
        ),
        (
            sgml::schema(),
            sgml::generate(&sgml::SgmlConfig::default()).0,
            &["Section", "Head"],
            &[
                ("SELECT v.Subsections.*X.Section.Head FROM Sections v", 7),
                ("SELECT s.*X.Text FROM Sections s", 27),
                ("SELECT s.*X.Section.Head FROM Sections s", 11),
            ],
        ),
        (
            code::schema(),
            code::generate(&code::CodeConfig {
                n_functions: 50,
                if_percent: 40,
                ..Default::default()
            })
            .0,
            &["Function", "Callee"],
            &[
                // `Stmt` and `Call` are two regions.
                ("SELECT f.X1.X2.Callee FROM Functions f", 0),
                ("SELECT f.X1.X2.X3.Callee FROM Functions f", 36),
            ],
        ),
    ];
    for (schema, text, partial, queries) in cases {
        let corpus = Corpus::from_text(&text);
        for spec in [IndexSpec::full(), IndexSpec::names(partial.iter().copied())] {
            let db = FileDatabase::build(corpus.clone(), schema.clone(), spec.clone()).unwrap();
            for (q, n) in queries {
                check(&db, &format!("{spec:?}"), q, &Expect::Values(Some(*n)));
            }
        }
    }
    // The projections of `*X.Name`, `*X.Request` and `Editors+.Name` are
    // the tuples themselves.
    let db = FileDatabase::build(
        Corpus::from_text(&bib(bibtex::BibtexConfig::with_refs(20))),
        bibtex::schema(),
        IndexSpec::full(),
    )
    .unwrap();
    for q in ["SELECT r.*X.Name FROM References r", "SELECT v.Editors+.Name FROM References v"] {
        let [names, _] = both_sides(&db, q);
        assert!(names.unwrap().iter().all(|v| v.starts_with("(First_Name: ")), "{q}");
    }
}

/// Queries whose paths take variable steps, over all five schemas, on a
/// full index and two drawn partial ones: selections, projections,
/// negations, disjunctions and content compares, each the baseline's.
#[test]
fn drawn_variable_paths_agree_with_the_baseline() {
    const CASES: usize = 60;
    let mut seeds = StdRng::seed_from_u64(0x7a71_ab1e);
    let (mut cases, mut answered) = (0, 0);
    for (schema, text) in [
        (bibtex::schema(), bibtex::generate(&bibtex::BibtexConfig::with_refs(16)).0),
        (sgml::schema(), sgml::generate(&sgml::SgmlConfig::default()).0),
        (
            code::schema(),
            code::generate(&code::CodeConfig {
                n_functions: 12,
                if_percent: 40,
                ..Default::default()
            })
            .0,
        ),
        (
            logs::schema(),
            logs::generate(&logs::LogConfig { n_sessions: 12, ..Default::default() }).0,
        ),
        (
            mail::schema(),
            mail::generate(&mail::MailConfig { n_messages: 12, ..Default::default() }).0,
        ),
    ] {
        let g = &schema.grammar;
        let (view, symbol) = schema.views().next().expect("a view");
        let paths = grammar_paths(g, g.symbol(symbol).expect("view symbol"), 3);
        let words: Vec<&str> =
            text.split(|c: char| !c.is_alphanumeric()).filter(|w| !w.is_empty()).collect();
        let corpus = Corpus::from_text(&text);
        let mut specs = vec![IndexSpec::full()];
        for _ in 0..2 {
            let mut rng = StdRng::seed_from_u64(seeds.next_u64());
            let mut spec = IndexSpec::names([symbol]);
            for (_, name) in g.symbols() {
                if rng.random_range(0..2) == 0 {
                    spec = spec.with_name(name);
                }
            }
            specs.push(spec);
        }
        for spec in specs {
            let db = FileDatabase::build(corpus.clone(), schema.clone(), spec.clone()).unwrap();
            for _ in 0..CASES {
                let seed = seeds.next_u64();
                let rng = &mut StdRng::seed_from_u64(seed);
                let path = |variable: bool, rng: &mut StdRng| {
                    let path = paths[rng.random_range(0..paths.len())].clone();
                    let path = if variable { with_variable(path, rng) } else { path };
                    format!("v.{}", path.join("."))
                };
                let variable = rng.random_range(0..2) == 0;
                let (p, q, r) = (path(true, rng), path(false, rng), path(variable, rng));
                let word = words[rng.random_range(0..words.len())];
                let query = match rng.random_range(0..5) {
                    0 => format!("SELECT v FROM {view} v WHERE {p} = \"{word}\""),
                    1 => format!("SELECT {p} FROM {view} v"),
                    2 => format!("SELECT {q} FROM {view} v WHERE NOT {p} = \"{word}\""),
                    3 => format!(
                        "SELECT v FROM {view} v WHERE ({p} = \"{word}\" OR {r} = \"{word}\")"
                    ),
                    _ => format!("SELECT v FROM {view} v WHERE {p} = {r}"),
                };
                let [index, baseline] = both_sides(&db, &query);
                assert_eq!(index, baseline, "{view} on {spec:?}, seed {seed:#x}: {query}");
                answered += usize::from(index.is_ok_and(|v| !v.is_empty()));
                cases += 1;
            }
        }
    }
    assert!(answered * 3 > cases, "only {answered} of {cases} queries had answers");
}
