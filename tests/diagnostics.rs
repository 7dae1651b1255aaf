//! Integration tests for the static analyzer behind `qof check`: one test
//! per `QOF0xx` code, a golden render test, and the robustness guarantee
//! that malformed queries produce errors — never panics.

use qof::corpus::{bibtex, code, logs};
use qof::grammar::{lit, nt, Grammar, IndexSpec, StructuringSchema, TokenPattern, ValueBuilder};
use qof::pat::RegionExpr;
use qof::text::Corpus;
use qof::{
    check_index, check_query, check_schema, render_all, AbsInterp, Code, FileDatabase, Rig,
    Severity,
};

fn bibtex_db(spec: IndexSpec) -> FileDatabase {
    let (text, _) = bibtex::generate(&bibtex::BibtexConfig::with_refs(5));
    FileDatabase::build(Corpus::from_text(&text), bibtex::schema(), spec).unwrap()
}

fn codes(diags: &[qof::Diagnostic]) -> Vec<Code> {
    diags.iter().map(|d| d.code).collect()
}

fn find(diags: &[qof::Diagnostic], code: Code) -> &qof::Diagnostic {
    diags
        .iter()
        .find(|d| d.code == code)
        .unwrap_or_else(|| panic!("no {code} in {:?}", codes(diags)))
}

/// A tiny grammar with a dead rule: `Orphan` has a rule but no derivation
/// from `Root` reaches it.
fn orphan_schema() -> StructuringSchema {
    let g = Grammar::builder("Root")
        .seq("Root", [lit("("), nt("Leaf"), lit(")")], ValueBuilder::TupleAuto)
        .token("Leaf", TokenPattern::Word, ValueBuilder::Atom)
        .token("Orphan", TokenPattern::Word, ValueBuilder::Atom)
        .build()
        .unwrap();
    StructuringSchema::new(g).with_view("Roots", "Root")
}

#[test]
fn qof001_unreachable_nonterminal() {
    let diags = check_schema(&orphan_schema());
    let d = find(&diags, Code::Qof001);
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.message.contains("`Orphan`"), "{}", d.message);
}

#[test]
fn qof002_nullable_rule() {
    // BibTeX's `Ref_Set` is an undelimited repetition: it can match the
    // empty string, which is exactly what QOF002 warns about.
    let diags = check_schema(&bibtex::schema());
    let d = find(&diags, Code::Qof002);
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.message.contains("`Ref_Set`"), "{}", d.message);
}

#[test]
fn qof004_view_over_missing_symbol() {
    let schema = orphan_schema().with_view("Leaves", "Laef");
    let diags = check_schema(&schema);
    let d = find(&diags, Code::Qof004);
    assert_eq!(d.severity, Severity::Error);
    assert!(d.notes.iter().any(|n| n.contains("`Leaf`")), "wants a did-you-mean: {:?}", d.notes);
}

#[test]
fn qof010_dead_indexed_name() {
    // Not a grammar symbol at all: an error, with a suggestion.
    let schema = bibtex::schema();
    let diags = check_index(&schema, &IndexSpec::names(["Reference", "Lst_Name"]));
    let d = find(&diags, Code::Qof010);
    assert_eq!(d.severity, Severity::Error);
    assert!(d.notes.iter().any(|n| n.contains("`Last_Name`")), "{:?}", d.notes);

    // A real symbol that no derivation reaches: a warning.
    let diags = check_index(&orphan_schema(), &IndexSpec::names(["Root", "Orphan"]));
    let d = find(&diags, Code::Qof010);
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.message.contains("`Orphan`"), "{}", d.message);

    // A full index never warns.
    assert!(check_index(&schema, &IndexSpec::full()).is_empty());
}

#[test]
fn qof011_inexact_partial_index_path() {
    // Indexing only {Reference, Last_Name} leaves both Authors.Name and
    // Editors.Name routes in the partial universe, so `Reference ⊃d
    // Last_Name` admits false positives — §6.3 names the ambiguous edge.
    let db = bibtex_db(IndexSpec::names(["Reference", "Last_Name"]));
    let diags = db.check("SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\"");
    let d = find(&diags, Code::Qof011);
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.message.contains("Reference → Last_Name"), "{}", d.message);

    // Under full indexing the same query is exact: no QOF011.
    let db = bibtex_db(IndexSpec::full());
    let diags = db.check("SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\"");
    assert!(!codes(&diags).contains(&Code::Qof011), "{:?}", codes(&diags));
}

#[test]
fn qof020_syntax_error() {
    let db = bibtex_db(IndexSpec::full());
    let diags = db.check("SELEC r FROM References r");
    let d = find(&diags, Code::Qof020);
    assert_eq!(d.severity, Severity::Error);
    // Syntax errors suppress all later checks.
    assert_eq!(diags.len(), 1);
}

#[test]
fn qof021_unknown_view_with_suggestion() {
    let db = bibtex_db(IndexSpec::full());
    let diags = db.check("SELECT r FROM Refrences r");
    let d = find(&diags, Code::Qof021);
    assert_eq!(d.severity, Severity::Error);
    assert!(d.notes.iter().any(|n| n.contains("`References`")), "{:?}", d.notes);
}

#[test]
fn qof022_unknown_attribute_with_suggestion() {
    let db = bibtex_db(IndexSpec::full());
    let diags = db.check("SELECT r FROM References r WHERE r.Authors.Name.Lst_Name = \"x\"");
    let d = find(&diags, Code::Qof022);
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains("`Lst_Name`"), "{}", d.message);
    assert!(d.notes.iter().any(|n| n.contains("`Last_Name`")), "{:?}", d.notes);
    // A choice branch is no attribute, fixed or as a variable step's
    // target: the note names a field below it, not the branch again.
    let (text, _) = code::generate(&code::CodeConfig { n_functions: 3, ..Default::default() });
    let db =
        FileDatabase::build(Corpus::from_text(&text), code::schema(), IndexSpec::full()).unwrap();
    for path in ["f.Body.Stmt.Call.Callee", "f.*X.Call"] {
        let diags = db.check(&format!("SELECT f FROM Functions f WHERE {path} = \"x\""));
        let d = find(&diags, Code::Qof022);
        assert!(d.notes.iter().any(|n| n.contains("`Callee`")), "{path}: {:?}", d.notes);
    }
}

#[test]
fn qof023_type_mismatch() {
    // A schema whose `Pid` annotation builds integer atoms.
    let g = Grammar::builder("Entry")
        .seq("Entry", [lit("["), nt("Pid"), lit("]")], ValueBuilder::TupleAuto)
        .token("Pid", TokenPattern::Number, ValueBuilder::AtomInt)
        .build()
        .unwrap();
    let rig = Rig::from_grammar(&g);
    let schema = StructuringSchema::new(g).with_view("Entries", "Entry");

    let diags = check_query(&schema, &rig, None, "SELECT e FROM Entries e WHERE e.Pid = \"abc\"");
    let d = find(&diags, Code::Qof023);
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.message.contains("`e.Pid`"), "{}", d.message);

    // Numeric constants (and prefixes) are fine.
    let diags = check_query(&schema, &rig, None, "SELECT e FROM Entries e WHERE e.Pid = \"1234\"");
    assert!(!codes(&diags).contains(&Code::Qof023), "{:?}", codes(&diags));

    // The type is the builder of the symbol the path's value comes from,
    // through set items and value-transparent nodes.
    let g = Grammar::builder("Entry")
        .seq("Entry", [lit("["), nt("Items"), lit("]")], ValueBuilder::TupleAuto)
        .repeat("Items", "Item", None, ValueBuilder::Set)
        .seq("Item", [lit("("), nt("Pid"), lit(")")], ValueBuilder::Child)
        .token("Pid", TokenPattern::Number, ValueBuilder::AtomInt)
        .build()
        .unwrap();
    let rig = Rig::from_grammar(&g);
    let schema = StructuringSchema::new(g).with_view("Entries", "Entry");
    for path in ["e.Items.Item", "e.*X.Pid"] {
        let q = format!("SELECT e FROM Entries e WHERE {path} = \"abc\"");
        let d = find(&check_query(&schema, &rig, None, &q), Code::Qof023).clone();
        assert!(d.message.contains(&format!("`{path}`")), "{}", d.message);
    }
    let g = Grammar::builder("Entry")
        .seq("Entry", [lit("["), nt("Items"), lit("]")], ValueBuilder::TupleAuto)
        .repeat("Items", "Item", None, ValueBuilder::Set)
        .seq("Item", [lit("("), nt("Pid"), lit(")")], ValueBuilder::TupleAuto)
        .token("Pid", TokenPattern::Number, ValueBuilder::AtomInt)
        .build()
        .unwrap();
    let rig = Rig::from_grammar(&g);
    let schema = StructuringSchema::new(g).with_view("Entries", "Entry");
    let diags = check_query(
        &schema,
        &rig,
        None,
        "SELECT e FROM Entries e WHERE e.Items.Item.Pid = \"abc\"",
    );
    find(&diags, Code::Qof023);
}

#[test]
fn qof024_trivially_empty() {
    let db = bibtex_db(IndexSpec::full());

    // No RIG path Reference → Ref_Set (the set contains references, not
    // the other way round): Proposition 3.3 empties the star path.
    let diags = db.check("SELECT r FROM References r WHERE r.*X.Ref_Set = \"x\"");
    let d = find(&diags, Code::Qof024);
    assert_eq!(d.severity, Severity::Warning);
    assert!(
        d.notes.iter().any(|n| n.contains("no path from `Reference` to `Ref_Set`")),
        "wants the witnessing RIG evidence: {:?}",
        d.notes
    );
    // Exactness of an empty result is moot: no QOF011 alongside.
    assert!(!codes(&diags).contains(&Code::Qof011), "{:?}", codes(&diags));

    // Fixed-depth variables: no walk of exactly 5 edges reaches Year.
    let diags = db.check("SELECT r FROM References r WHERE r.X1.X2.X3.X4.Year = \"1982\"");
    let d = find(&diags, Code::Qof024);
    assert!(d.notes.iter().any(|n| n.contains("exactly 5 edges")), "{:?}", d.notes);

    // The engine agrees: the query runs and returns nothing.
    let res = db.query("SELECT r FROM References r WHERE r.*X.Ref_Set = \"x\"").unwrap();
    assert!(res.values.is_empty());
}

#[test]
fn qof025_star_suggestion() {
    // Every Status under Session lies on Requests → Request → Status, so
    // `s.*X.Status` selects the same regions with one inclusion (§5.3).
    let (text, _) = logs::generate(&logs::LogConfig { n_sessions: 3, ..Default::default() });
    let db =
        FileDatabase::build(Corpus::from_text(&text), logs::schema(), IndexSpec::full()).unwrap();
    let diags = db.check("SELECT s FROM Sessions s WHERE s.Requests.Request.Status = \"500\"");
    let d = find(&diags, Code::Qof025);
    assert_eq!(d.severity, Severity::Help);
    assert!(d.message.contains("s.*X.Status"), "{}", d.message);
}

#[test]
fn qof026_view_not_indexed() {
    let db = bibtex_db(IndexSpec::names(["Year"]));
    let diags = db.check("SELECT r FROM References r WHERE r.Year = \"1982\"");
    let d = find(&diags, Code::Qof026);
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains("`Reference`"), "{}", d.message);
}

#[test]
fn golden_render_for_bibtex_schema() {
    let text = render_all(&check_schema(&bibtex::schema()), None);
    let expected = "\
warning[QOF002]: non-terminal `Ref_Set` can match the empty string
  = note: zero-width regions cannot be ordered in the region forest, so nesting tests on them are unreliable; delimit the rule (e.g. bracket the repetition)

0 error(s), 1 warning(s)
";
    assert_eq!(text, expected);
}

#[test]
fn golden_render_with_source_span() {
    let db = bibtex_db(IndexSpec::full());
    let src = "SELECT r FROM Refrences r";
    let diags = db.check(src);
    let expected = "\
error[QOF021]: unknown view `Refrences`
 --> query:1:15
  |
1 | SELECT r FROM Refrences r
  |               ^^^^^^^^^
  = note: did you mean `References`?
";
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].render(Some(src)), expected);
}

#[test]
fn malformed_queries_error_never_panic() {
    let db = bibtex_db(IndexSpec::full());
    let must_err = [
        "",
        " ",
        "SELECT",
        "SELECT r",
        "SELECT r FROM",
        "SELECT FROM WHERE",
        "SELECT r FROM References",
        "SELECT r FROM References r WHERE",
        "SELECT r FROM References r WHERE r.",
        "SELECT r FROM References r WHERE r.Year =",
        "SELECT r FROM References r WHERE r.Year = \"",
        "SELECT r FROM Nope r",
        "SELECT x FROM References r WHERE y.Z = \"w\"",
        "SELECT r FROM References r WHERE r.*X = \"w\"",
        "SELECT r FROM References r WHERE r.Title.Last_Name = \"Chang\"",
        "SELECT r FROM References r, References s",
        "ΣΕΛΕΚΤ ρ",
    ];
    for q in must_err {
        assert!(db.query(q).is_err(), "`{q}` should fail");
    }
    // Stranger shapes may or may not plan; they must simply never panic,
    // in the engine or in the analyzer.
    let odd = [
        "SELECT r FROM References r WHERE NOT NOT NOT r.Year = \"1\"",
        "SELECT r.Year.Key FROM References r",
        "SELECT r FROM References r WHERE r.X1.X2.X3.X4.X5.X6.Key = \"k\"",
        "SELECT r FROM References r, References s WHERE r.Year = s.Year",
        "SELECT r FROM References r WHERE r.Key = \"k*\"",
    ];
    for q in must_err.iter().chain(odd.iter()) {
        let _ = db.query(q);
        let _ = db.explain(q);
        let _ = db.check(q); // diagnostics never panic either
    }
}

// --- QOF1xx: the abstract-interpretation lint family ---------------------

/// These tests drive the interpreter `qof check` runs: RIG-only, over the
/// database's indexed RIG.
#[test]
fn qof100_provably_empty_subexpression() {
    let db = bibtex_db(IndexSpec::full());
    let interp = AbsInterp::new(db.partial_rig());
    // Year and Title are RIG siblings, so `Year ⊃ Title` is empty and so
    // is every inclusion over it.
    let dead = RegionExpr::name("Year").including(RegionExpr::name("Title"));
    let expr = RegionExpr::name("Reference").including(dead);
    let mut out = Vec::new();
    interp.lint_expr(&expr, &mut out);
    let d = find(&out, Code::Qof100);
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.message.contains("provably empty"), "{}", d.message);
    // Outermost node only: exactly one report for the whole subtree.
    assert_eq!(out.len(), 1, "{:?}", codes(&out));
}

#[test]
fn qof101_dead_union_and_difference_branches() {
    let db = bibtex_db(IndexSpec::full());
    let interp = AbsInterp::new(db.partial_rig());
    let dead = RegionExpr::name("Year").including(RegionExpr::name("Title"));
    let mut out = Vec::new();
    interp.lint_expr(&RegionExpr::name("Year").union(dead.clone()), &mut out);
    let d = find(&out, Code::Qof101);
    assert!(d.message.contains("dead `∪` branch"), "{}", d.message);

    let mut out = Vec::new();
    interp.lint_expr(&RegionExpr::name("Year").difference(dead), &mut out);
    let d = find(&out, Code::Qof101);
    assert!(d.message.contains("dead `−` branch"), "{}", d.message);
}

#[test]
fn qof102_redundant_intersection() {
    let db = bibtex_db(IndexSpec::full());
    let interp = AbsInterp::new(db.partial_rig());
    let mut out = Vec::new();
    interp.lint_expr(&RegionExpr::name("Year").intersect(RegionExpr::name("Year")), &mut out);
    let d = find(&out, Code::Qof102);
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.message.contains("redundant intersection"), "{}", d.message);
}

#[test]
fn qof103_inclusion_across_disjoint_rig_components() {
    // Year and Title are RIG siblings: no inclusion path in either
    // direction, so `Year ⊃ Title` is unsatisfiable by Proposition 3.3.
    let db = bibtex_db(IndexSpec::full());
    let interp = AbsInterp::new(db.partial_rig());
    let mut out = Vec::new();
    interp.lint_expr(&RegionExpr::name("Year").including(RegionExpr::name("Title")), &mut out);
    let d = find(&out, Code::Qof103);
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.message.contains("disjoint RIG components"), "{}", d.message);
    assert!(!codes(&out).contains(&Code::Qof100), "QOF103 replaces QOF100: {:?}", codes(&out));
}

#[test]
fn qof104_closure_over_non_cyclic_name() {
    let db = bibtex_db(IndexSpec::full());
    let diags = db.check("SELECT r FROM References r WHERE r.Authors+.Name = \"x\"");
    let d = find(&diags, Code::Qof104);
    assert_eq!(d.severity, Severity::Help);
    assert!(d.message.contains("`Authors+`"), "{}", d.message);
    assert!(d.notes.iter().any(|n| n.contains("no cycle")), "{:?}", d.notes);

    // A genuinely recursive name stays quiet.
    let (text, _) = qof::corpus::sgml::generate(&qof::corpus::sgml::SgmlConfig::default());
    let sdb = FileDatabase::build(
        Corpus::from_text(&text),
        qof::corpus::sgml::schema(),
        IndexSpec::full(),
    )
    .unwrap();
    let diags = sdb.check("SELECT s FROM Sections s WHERE s.Section+.Head = \"intro\"");
    assert!(!codes(&diags).contains(&Code::Qof104), "{:?}", codes(&diags));
}

#[test]
fn clean_queries_raise_no_qof1xx() {
    let db = bibtex_db(IndexSpec::full());
    for q in [
        "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\"",
        "SELECT r FROM References r WHERE r.Year = \"1982\"",
    ] {
        let diags = db.check(q);
        assert!(
            !diags.iter().any(|d| d.code.as_str().starts_with("QOF1")),
            "`{q}`: {:?}",
            codes(&diags)
        );
    }
}

#[test]
fn diagnostic_to_json_shares_the_renderer_data_model() {
    let db = bibtex_db(IndexSpec::full());
    let src = "SELECT r FROM Refrences r";
    let diags = db.check(src);
    assert_eq!(diags.len(), 1);
    let json = diags[0].to_json();
    assert!(json.contains("\"code\":\"QOF021\""), "{json}");
    assert!(json.contains("\"severity\":\"error\""), "{json}");
    assert!(json.contains("\"message\":\"unknown view `Refrences`\""), "{json}");
    assert!(json.contains("\"span\":{\"start\":14,\"end\":23}"), "{json}");
    assert!(json.contains("did you mean `References`?"), "{json}");
}
