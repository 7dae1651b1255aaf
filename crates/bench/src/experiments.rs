//! The experiment suite F2–F3, E1–E12, A1 (see DESIGN.md §4 for the
//! experiment ↔ paper-claim mapping). Every experiment prints its
//! human-readable table *and* records its key numbers into an
//! [`ExperimentReport`], which the harness serializes to
//! `BENCH_harness.json` (see [`crate::report`]).
//!
//! Experiments run at two scales: [`Scale::Full`] regenerates the
//! EXPERIMENTS.md tables; [`Scale::Small`] is the CI smoke configuration —
//! same code paths, corpora shrunk to finish in seconds.

use std::time::Instant;

use qof_core::baseline::BaselineMode;
use qof_core::{
    advise, certify, optimize, parse_query, Direction, FileDatabase, InclusionExpr, Rig, SelectKind,
};
use qof_corpus::{bibtex, logs};
use qof_grammar::{render_tree, IndexSpec, Parser, Sink, SymbolId};
use qof_pat::{direct_including_counted, direct_including_layered, Engine, RegionExpr};
use qof_text::{Corpus, Span, WordIndex};

use crate::report::{ExperimentReport, Measurement};
use crate::{
    bibtex_corpus, bibtex_full, bibtex_partial, fmt_secs, grep_scan, median_secs,
    multi_file_bibtex, sgml_full, time_baseline, time_query, AUTHOR_EDITS, CHANG_AUTHOR,
    CHANG_STAR, EDITOR_IS_AUTHOR, MIXED_WORKLOAD, SELECTIVE_JOIN,
};

/// How big a corpus each experiment builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI smoke scale: seconds, not minutes.
    Small,
    /// The EXPERIMENTS.md scale.
    Full,
}

impl Scale {
    /// Chooses the scale-appropriate value.
    fn pick<T>(self, small: T, full: T) -> T {
        match self {
            Scale::Small => small,
            Scale::Full => full,
        }
    }

    /// The label written into the JSON report.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Small => "small",
            Scale::Full => "full",
        }
    }
}

/// Collects an experiment's measurements.
#[derive(Debug, Default)]
struct Recorder {
    ms: Vec<Measurement>,
    trace_json: Option<String>,
}

impl Recorder {
    fn rec(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.ms.push(Measurement { name: name.into(), value, unit });
    }

    /// Embeds a serialized `QueryTrace` into the experiment's report
    /// (rendered under `"trace"`; last call wins).
    fn attach_trace(&mut self, json: String) {
        self.trace_json = Some(json);
    }
}

/// `(id, title)` of every experiment, in canonical run order.
pub const EXPERIMENTS: &[(&str, &str)] = &[
    ("f2", "parse tree (full indexing) and derived RIG — Figure 2 / §3.2"),
    ("f3", "partial indexing Zp = {Reference, Key, Last_Name} — Figure 3 / §6.1"),
    ("e1", "optimized vs unoptimized inclusion expression (§3.2)"),
    ("e2", "index vs standard database vs grep-style scan (§1 headline)"),
    ("e3", "⊃ vs ⊃d (forest) vs ⊃d (paper's layered program) — §3.1"),
    ("e4", "partial indexing: candidates, scan volume, time (§6)"),
    ("e5", "push-down parsing of candidates vs full object construction (§6.2)"),
    ("e6", "content joins: index-located regions + DB join vs pure DB (§5.2)"),
    ("e7", "path variables *X: text index vs OODB traversal (§5.3)"),
    ("e8", "optimizer scaling with expression length (Theorem 3.6)"),
    ("e9", "choosing what to index: size vs time (§7)"),
    ("e10", "exact answers with partial indexing (§6.3)"),
    ("e12", "query server under closed-loop load: latency from /metrics, log overhead"),
    ("e13", "persistent index (.qofx): reopen vs rebuild"),
    ("a1", "ablation: common-subexpression sharing in boolean queries (§5.2)"),
    ("a2", "analyzer: qof check latency and rewrite-certifier overhead"),
    ("a3", "plan cache: hit rate, cold pass and warm pass"),
    ("a5", "workload analytics: fingerprint aggregation overhead and heavy-hitter accuracy"),
];

/// All experiment ids, in canonical run order.
pub fn all_ids() -> Vec<&'static str> {
    EXPERIMENTS.iter().map(|(id, _)| *id).collect()
}

/// Runs one experiment by id; `None` for an unknown id. The returned
/// report carries the experiment's wall-clock time and key measurements.
pub fn run(id: &str, scale: Scale) -> Option<ExperimentReport> {
    let &(id, title) = EXPERIMENTS.iter().find(|(eid, _)| *eid == id)?;
    let mut r = Recorder::default();
    let t0 = Instant::now();
    match id {
        "f2" => f2(),
        "f3" => f3(),
        "e1" => e1(scale, &mut r),
        "e2" => e2(scale, &mut r),
        "e3" => e3(scale, &mut r),
        "e4" => e4(scale, &mut r),
        "e5" => e5(scale, &mut r),
        "e6" => e6(scale, &mut r),
        "e7" => e7(scale, &mut r),
        "e8" => e8(scale, &mut r),
        "e9" => e9(scale, &mut r),
        "e10" => e10(scale, &mut r),
        "e12" => e12(scale, &mut r),
        "e13" => e13(scale, &mut r),
        "a1" => a1(scale, &mut r),
        "a2" => a2(scale, &mut r),
        "a3" => a3(scale, &mut r),
        "a5" => a5(scale, &mut r),
        _ => unreachable!("id came from EXPERIMENTS"),
    }
    Some(ExperimentReport {
        id,
        title,
        wall_secs: t0.elapsed().as_secs_f64(),
        measurements: r.ms,
        trace_json: r.trace_json,
    })
}

fn banner(id: &str, title: &str) {
    println!("\n================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

/// Figure 2: the parse tree under full indexing, plus the derived RIG.
fn f2() {
    banner("F2", "parse tree (full indexing) and derived RIG — Figure 2 / §3.2");
    let (text, _) = bibtex::generate(&bibtex::BibtexConfig::with_refs(1));
    let schema = bibtex::schema();
    let parser = Parser::new(&schema.grammar, &text);
    let tree = parser.parse_root(0..text.len() as u32).unwrap();
    println!(
        "{}",
        render_tree(
            &tree,
            &schema.grammar,
            &text,
            &["Reference", "Authors", "Name", "Last_Name"],
            5
        )
    );
    println!("derived RIG (all non-terminals indexed):");
    print!("{}", Rig::from_grammar(&schema.grammar));
}

/// Figure 3: the partial-indexing view — Zp = {Reference, Key, `Last_Name`}.
fn f3() {
    banner("F3", "partial indexing Zp = {Reference, Key, Last_Name} — Figure 3 / §6.1");
    let (text, _) = bibtex::generate(&bibtex::BibtexConfig::with_refs(1));
    let schema = bibtex::schema();
    let full = Rig::from_grammar(&schema.grammar);
    let indexed =
        ["Reference", "Key", "Last_Name"].iter().map(std::string::ToString::to_string).collect();
    println!("partial RIG:");
    print!("{}", full.partial(&indexed));
    let parser = Parser::new(&schema.grammar, &text);
    let tree = parser.parse_root(0..text.len() as u32).unwrap();
    println!("parse tree with only the indexed names highlighted:");
    println!(
        "{}",
        render_tree(&tree, &schema.grammar, &text, &["Reference", "Key", "Last_Name"], 5)
    );
}

/// E1: optimized vs unoptimized inclusion expression (§3.2's e1 vs e2).
fn e1(scale: Scale, r: &mut Recorder) {
    banner("E1", "optimized vs unoptimized inclusion expression (§3.2)");
    println!(
        "{:>8} | {:>10} {:>10} | {:>9} {:>9} | {:>7}",
        "refs", "e1 (⊃d)", "e2 (opt)", "ops e1", "ops e2", "speedup"
    );
    for n in scale.pick(vec![100, 400], vec![200, 800, 3200]) {
        let fdb = bibtex_full(n);
        let e1 = InclusionExpr::all_direct(
            Direction::Including,
            vec!["Reference".into(), "Authors".into(), "Name".into(), "Last_Name".into()],
            Some((SelectKind::Eq, "Chang".into())),
        );
        let e2 = optimize(&e1, fdb.full_rig()).expr;
        let (x1, x2) = (e1.to_region_expr(), e2.to_region_expr());
        let words = WordIndex::build(fdb.corpus());
        let run = |x: &RegionExpr| {
            let engine = Engine::new(fdb.corpus(), &words, fdb.instance());
            let t = Instant::now();
            let res = engine.eval(x).unwrap();
            (t.elapsed().as_secs_f64(), engine.stats(), res.len())
        };
        let t1 = median_secs(5, || run(&x1).0);
        let t2 = median_secs(5, || run(&x2).0);
        let (_, s1, r1) = run(&x1);
        let (_, s2, r2) = run(&x2);
        assert_eq!(r1, r2, "optimization must preserve the answer");
        r.rec(format!("unopt_secs_{n}"), t1, "s");
        r.rec(format!("opt_secs_{n}"), t2, "s");
        r.rec(format!("speedup_{n}"), t1 / t2.max(1e-12), "x");
        println!(
            "{:>8} | {} {} | {:>9} {:>9} | {:>6.2}x",
            n,
            fmt_secs(t1),
            fmt_secs(t2),
            s1.regions_consumed,
            s2.regions_consumed,
            t1 / t2.max(1e-12)
        );
    }
    println!("(ops = regions consumed by operator applications; ⊃d consults the whole universe)");
}

/// E2: index evaluation vs the standard-database pipeline vs raw scan.
fn e2(scale: Scale, r: &mut Recorder) {
    banner("E2", "index vs standard database vs grep-style scan (§1 headline)");
    println!(
        "{:>8} | {:>10} {:>10} {:>10} {:>10} | {:>12} {:>12}",
        "refs", "index", "db full", "db reduced", "grep", "idx bytes", "db bytes"
    );
    for n in scale.pick(vec![100, 400], vec![200, 800, 3200, 12800]) {
        let corpus = bibtex_corpus(n);
        let schema = bibtex::schema();
        let fdb = bibtex_full(n);
        let ti = median_secs(3, || time_query(&fdb, CHANG_AUTHOR).1);
        let tf = median_secs(3, || {
            time_baseline(&corpus, &schema, CHANG_AUTHOR, BaselineMode::FullLoad).1
        });
        let tr = median_secs(3, || {
            time_baseline(&corpus, &schema, CHANG_AUTHOR, BaselineMode::ReducedLoad).1
        });
        let tg = median_secs(3, || grep_scan(&corpus, "Chang").1);
        let (ri, _) = time_query(&fdb, CHANG_AUTHOR);
        let (rb, _) = time_baseline(&corpus, &schema, CHANG_AUTHOR, BaselineMode::FullLoad);
        assert_eq!(ri.values.len(), rb.values.len());
        r.rec(format!("index_secs_{n}"), ti, "s");
        r.rec(format!("db_full_secs_{n}"), tf, "s");
        r.rec(format!("db_reduced_secs_{n}"), tr, "s");
        r.rec(format!("grep_secs_{n}"), tg, "s");
        println!(
            "{:>8} | {} {} {} {} | {:>12} {:>12}",
            n,
            fmt_secs(ti),
            fmt_secs(tf),
            fmt_secs(tr),
            fmt_secs(tg),
            ri.stats.bytes_touched(),
            rb.stats.parse.bytes_scanned,
        );
    }
    println!("(query work only; index construction is the text system's offline service)");
}

/// E3: the cost of ⊃d vs ⊃ as nesting deepens (§3.1's layered program),
/// over every heading and over one σ-selected heading, where the
/// navigated forest kernel's work follows the selection.
fn e3(scale: Scale, r: &mut Recorder) {
    banner("E3", "⊃ vs ⊃d (forest) vs ⊃d (paper's layered program) — §3.1");
    println!(
        "{:>6} {:>9} {:>6} | {:>10} {:>10} {:>12} | {:>8}",
        "depth", "regions", "heads", "⊃", "⊃d fast", "⊃d layered", "d/plain"
    );
    for depth in scale.pick(vec![2, 4], vec![2, 4, 6, 8]) {
        let fdb = sgml_full(depth, 4);
        let sections = fdb.instance().get("Section").unwrap().clone();
        let heads = fdb.instance().get("Head").unwrap().clone();
        let universe = fdb.instance().universe();
        let forest = fdb.instance().forest();
        let middle = heads.as_slice()[heads.len() / 2];
        let text = &fdb.corpus().text()[middle.start as usize..middle.end as usize];
        let engine = Engine::new(fdb.corpus(), fdb.word_index(), fdb.instance());
        let selected = engine.eval(&RegionExpr::name("Head").select_eq(text)).unwrap();
        for (row, witnesses) in [("", &heads), ("sel_", &selected)] {
            let t_plain = median_secs(9, || {
                let t = Instant::now();
                std::hint::black_box(sections.including(witnesses));
                t.elapsed().as_secs_f64()
            });
            // Section is an indexed name, so the engine's kernel runs
            // without the membership scan.
            let t_fast = median_secs(9, || {
                let t = Instant::now();
                std::hint::black_box(direct_including_counted(&sections, witnesses, forest, true));
                t.elapsed().as_secs_f64()
            });
            let t_layered = median_secs(9, || {
                let t = Instant::now();
                std::hint::black_box(direct_including_layered(&sections, witnesses, &universe));
                t.elapsed().as_secs_f64()
            });
            r.rec(format!("plain_{row}secs_depth{depth}"), t_plain, "s");
            r.rec(format!("forest_{row}secs_depth{depth}"), t_fast, "s");
            r.rec(format!("layered_{row}secs_depth{depth}"), t_layered, "s");
            println!(
                "{:>6} {:>9} {:>6} | {} {} {} | {:>7.1}x",
                depth,
                universe.len(),
                witnesses.len(),
                fmt_secs(t_plain),
                fmt_secs(t_fast),
                fmt_secs(t_layered),
                t_layered / t_plain.max(1e-12)
            );
        }
    }
    println!("(the layered program is the paper's evidence that ⊃d is the expensive operator)");
}

/// E4: partial indexing — candidate superset factor and end-to-end cost.
fn e4(scale: Scale, r: &mut Recorder) {
    banner("E4", "partial indexing: candidates, scan volume, time (§6)");
    let n = scale.pick(400, 3200);
    let specs: Vec<(&str, Vec<&str>)> = vec![
        ("full", vec![]),
        ("{Ref,Auth,Last}", vec!["Reference", "Authors", "Last_Name"]),
        ("{Ref,Last}", vec!["Reference", "Last_Name"]),
        ("{Ref}", vec!["Reference"]),
    ];
    println!(
        "{:>16} | {:>8} {:>6} | {:>9} {:>8} {:>8} {:>12} {:>12} | {:>10}",
        "index", "regions", "exact", "cands", "results", "nodes", "parsed B", "of corpus", "time"
    );
    let mut answer = None;
    for (label, names) in specs {
        let fdb = if names.is_empty() { bibtex_full(n) } else { bibtex_partial(n, &names) };
        let t = median_secs(3, || time_query(&fdb, CHANG_AUTHOR).1);
        let (res, _) = time_query(&fdb, CHANG_AUTHOR);
        let first = answer.get_or_insert_with(|| res.values.clone());
        assert_eq!(*first, res.values, "the {label} index answers like the full one");
        let s = &res.stats;
        r.rec(format!("secs_{label}"), t, "s");
        r.rec(format!("candidates_{label}"), s.candidates as f64, "regions");
        r.rec(format!("results_{label}"), s.results as f64, "regions");
        r.rec(format!("value_nodes_{label}"), s.db.value_nodes as f64, "nodes");
        r.rec(format!("bytes_scanned_{label}"), s.parse.bytes_scanned as f64, "bytes");
        println!(
            "{:>16} | {:>8} {:>6} | {:>9} {:>8} {:>8} {:>12} {:>11.2}% | {}",
            label,
            fdb.instance().region_count(),
            s.exact_index,
            s.candidates,
            s.results,
            s.db.value_nodes,
            s.parse.bytes_scanned,
            100.0 * s.parse.bytes_scanned as f64 / fdb.corpus().len() as f64,
            fmt_secs(t),
        );
    }
    println!(
        "(answers are identical in every row; smaller indexes check more candidates, \
         and every row builds the objects of its results only)"
    );
}

/// E5: pushing the query into candidate parsing (§6.2), on the executor's
/// path. Both queries parse every `Reference` candidate once; `SELECT r`
/// builds each whole object and reads all of it, while projecting one
/// path builds only the fields on it and stops reading after `Authors`,
/// the last field it keeps. A third row parses the full row's candidates
/// into a sink that keeps nothing: recognition alone, which splits the
/// full row into recognizing and building.
fn e5(scale: Scale, r: &mut Recorder) {
    banner("E5", "push-down parsing of candidates vs full object construction (§6.2)");
    let n = scale.pick(400, 3200);
    let fdb = bibtex_partial(n, &["Reference", "Last_Name"]);
    println!(
        "{:>10} | {:>12} {:>12} | {:>12} {:>12} {:>12}",
        "mode", "time", "nodes", "objects", "candidates", "parsed"
    );
    let (mut candidates, mut parsed) = (Vec::new(), Vec::new());
    for (label, q) in [
        ("full", "SELECT r FROM References r"),
        ("push-down", "SELECT r.Authors.Name.Last_Name FROM References r"),
    ] {
        let secs = median_secs(3, || time_query(&fdb, q).1);
        let (res, _) = time_query(&fdb, q);
        let s = &res.stats;
        r.rec(format!("secs_{label}"), secs, "s");
        r.rec(format!("value_nodes_{label}"), s.db.value_nodes as f64, "nodes");
        r.rec(format!("candidates_{label}"), s.candidates as f64, "regions");
        r.rec(format!("bytes_scanned_{label}"), s.parse.bytes_scanned as f64, "bytes");
        println!(
            "{:>10} | {} {:>12} | {:>12} {:>12} {:>12}",
            label,
            fmt_secs(secs),
            s.db.value_nodes,
            s.db.objects_created,
            s.candidates,
            s.parse.bytes_scanned
        );
        candidates.push(s.candidates);
        parsed.push(s.parse.bytes_scanned);
    }
    assert_eq!(candidates[0], candidates[1], "both modes parse the same candidates");
    assert!(parsed[1] < parsed[0], "push-down stops reading after its last field");

    // The full row answers every candidate, so its results are its
    // candidates.
    let regions = fdb.query("SELECT r FROM References r").expect("query runs").regions;
    let grammar = &fdb.schema().grammar;
    let reference = grammar.symbol("Reference").expect("the BibTeX grammar has `Reference`");
    let recognize = || {
        let parser = Parser::new(grammar, fdb.corpus().text());
        for region in &regions {
            parser.parse_indexed(reference, region.span(), &mut Recognizer).expect("it parses");
        }
        parser.stats().bytes_scanned
    };
    let secs = median_secs(3, || {
        let t = Instant::now();
        recognize();
        t.elapsed().as_secs_f64()
    });
    let bytes = recognize();
    r.rec("secs_recognize", secs, "s");
    r.rec("bytes_scanned_recognize", bytes as f64, "bytes");
    let (n, zero) = (regions.len(), 0);
    println!(
        "{:>10} | {} {zero:>12} | {zero:>12} {n:>12} {bytes:>12}",
        "recognize",
        fmt_secs(secs)
    );
    assert_eq!(bytes, parsed[0], "recognition reads what the full row reads");
    println!(
        "(same candidates; the filter skips fields and the text after the last one kept; \
         recognizing alone builds nothing)"
    );
}

/// A sink that keeps nothing: a parse into it only recognizes the text.
struct Recognizer;

impl Sink for Recognizer {
    type Mark = ();

    fn enter(&mut self, _: SymbolId) {}

    fn leave(&mut self, _: SymbolId, _: Span) {}

    fn mark(&self) {}

    fn rollback(&mut self, (): ()) {}
}

/// E6: the select–project–join hybrid (§5.2): a same-variable content
/// compare, and a two-variable join answered as one semi-join per side.
fn e6(scale: Scale, r: &mut Recorder) {
    banner("E6", "content joins: index-located regions + DB join vs pure DB (§5.2)");
    println!(
        "{:>8} | {:>14} | {:>10} | {:>8} {:>8} | {:>12}",
        "refs", "index", "time", "answers", "cands", "bytes"
    );
    for n in scale.pick(vec![100, 400], vec![200, 800, 3200]) {
        let corpus = bibtex_corpus(n);
        let schema = bibtex::schema();
        let tb = median_secs(3, || {
            time_baseline(&corpus, &schema, EDITOR_IS_AUTHOR, BaselineMode::FullLoad).1
        });
        let (rb, _) = time_baseline(&corpus, &schema, EDITOR_IS_AUTHOR, BaselineMode::FullLoad);
        r.rec(format!("db_secs_{n}"), tb, "s");
        // The baseline answers a two-variable join by a nested loop over
        // all n² pairs; past 800 references that takes too long to repeat.
        let join_db = (n <= 800).then(|| {
            let t = median_secs(3, || {
                time_baseline(&corpus, &schema, AUTHOR_EDITS, BaselineMode::FullLoad).1
            });
            r.rec(format!("join_db_secs_{n}"), t, "s");
            (time_baseline(&corpus, &schema, AUTHOR_EDITS, BaselineMode::FullLoad).0, t)
        });
        // {Reference, Last_Name} locates every last name on both sides: its
        // text test keeps the references that repeat one (DESIGN.md §21).
        let mut answers = [None, None];
        for (label, fdb) in
            [("full", bibtex_full(n)), ("partial", bibtex_partial(n, &["Reference", "Last_Name"]))]
        {
            let queries = [("", EDITOR_IS_AUTHOR), ("join_", AUTHOR_EDITS)];
            for ((row, q), want) in queries.into_iter().zip(&mut answers) {
                let t = median_secs(3, || time_query(&fdb, q).1);
                let (res, _) = time_query(&fdb, q);
                assert_eq!(*want.get_or_insert_with(|| res.values.clone()), res.values, "{q}");
                let (s, k) = (&res.stats, res.values.len());
                r.rec(format!("{row}{label}_secs_{n}"), t, "s");
                r.rec(format!("{row}answers_{label}_{n}"), k as f64, "values");
                r.rec(format!("{row}candidates_{label}_{n}"), s.candidates as f64, "regions");
                r.rec(format!("{row}bytes_{label}_{n}"), s.bytes_touched() as f64, "bytes");
                println!(
                    "{n:>8} | {:>14} | {} | {k:>8} {:>8} | {:>12}",
                    format!("{}{label}", if row.is_empty() { "" } else { "⋈ " }),
                    fmt_secs(t),
                    s.candidates,
                    s.bytes_touched()
                );
            }
        }
        assert_eq!(answers[0].as_ref().map(Vec::len), Some(rb.values.len()));
        let bytes = rb.stats.parse.bytes_scanned;
        let k = rb.values.len();
        println!(
            "{n:>8} | {:>14} | {} | {k:>8} {:>8} | {bytes:>12}",
            "database",
            fmt_secs(tb),
            "-"
        );
        if let Some((jb, t)) = join_db {
            assert_eq!(answers[1].as_ref().map(Vec::len), Some(jb.values.len()));
            r.rec(format!("join_answers_db_{n}"), jb.values.len() as f64, "values");
            let (k, bytes) = (jb.values.len(), jb.stats.parse.bytes_scanned);
            println!(
                "{n:>8} | {:>14} | {} | {k:>8} {:>8} | {bytes:>12}",
                "⋈ database",
                fmt_secs(t),
                "-"
            );
        }
        // A selective join whose local conditions read past its join paths:
        // each side's candidates are parsed as far as those conditions.
        let fdb = bibtex_partial(n, &["Reference", "Authors", "Name", "Year"]);
        let t = median_secs(5, || time_query(&fdb, SELECTIVE_JOIN).1);
        let (res, _) = time_query(&fdb, SELECTIVE_JOIN);
        let (s, k) = (&res.stats, res.values.len());
        r.rec(format!("selective_join_secs_{n}"), t, "s");
        r.rec(format!("selective_join_bytes_{n}"), s.bytes_touched() as f64, "bytes");
        println!(
            "{n:>8} | {:>14} | {} | {k:>8} {:>8} | {:>12}",
            "⋈ selective",
            fmt_secs(t),
            s.candidates,
            s.bytes_touched()
        );
    }
    println!(
        "(⋈: {AUTHOR_EDITS}; ⋈ selective, on {{Reference, Authors, Name, Year}}: {SELECTIVE_JOIN})"
    );
}

/// E7: path expressions with variables — cheap on text, expensive in the
/// OODB (§5.3's inversion claim). The database walks the routes by which
/// the grammar nests `Last_Name` in a reference; both sides must answer
/// alike.
fn e7(scale: Scale, r: &mut Recorder) {
    banner("E7", "path variables *X: text index vs OODB traversal (§5.3)");
    println!(
        "{:>8} | {:>10} {:>10} | {:>10} {:>10} | {:>14} | {:>8}",
        "refs", "idx fixed", "idx *X", "db fixed", "db *X", "db *X nodes", "answers"
    );
    for n in scale.pick(vec![100, 400], vec![200, 800, 3200]) {
        let corpus = bibtex_corpus(n);
        let schema = bibtex::schema();
        let fdb = bibtex_full(n);
        let t_if = median_secs(3, || time_query(&fdb, CHANG_AUTHOR).1);
        let t_is = median_secs(3, || time_query(&fdb, CHANG_STAR).1);
        let t_bf = median_secs(3, || {
            time_baseline(&corpus, &schema, CHANG_AUTHOR, BaselineMode::FullLoad).1
        });
        let t_bs = median_secs(3, || {
            time_baseline(&corpus, &schema, CHANG_STAR, BaselineMode::FullLoad).1
        });
        let (rb, _) = time_baseline(&corpus, &schema, CHANG_STAR, BaselineMode::FullLoad);
        let (ri, _) = time_query(&fdb, CHANG_STAR);
        let (answers, nodes) = (ri.values.len(), rb.stats.path.nodes_visited);
        r.rec(format!("idx_star_secs_{n}"), t_is, "s");
        r.rec(format!("db_star_secs_{n}"), t_bs, "s");
        r.rec(format!("db_star_nodes_{n}"), nodes as f64, "nodes");
        r.rec(format!("star_answers_idx_{n}"), answers as f64, "values");
        r.rec(format!("star_answers_db_{n}"), rb.values.len() as f64, "values");
        println!(
            "{:>8} | {} {} | {} {} | {nodes:>14} | {answers:>8}",
            n,
            fmt_secs(t_if),
            fmt_secs(t_is),
            fmt_secs(t_bf),
            fmt_secs(t_bs),
        );
    }
    println!("(on text, *X is plain ⊃ — no more expensive than the fixed path)");
}

/// E8: the optimizer runs in time polynomial in expression length.
fn e8(scale: Scale, r: &mut Recorder) {
    banner("E8", "optimizer scaling with expression length (Theorem 3.6)");
    println!("{:>8} | {:>12} | {:>14}", "length", "time", "µs per name");
    for n in scale.pick(vec![4usize, 8, 16], vec![4usize, 8, 16, 32, 64, 128]) {
        // A long chain RIG A0 → A1 → … with shortcut edges every 3 nodes,
        // so both rewrite kinds stay busy.
        let mut rig = Rig::new();
        let names: Vec<String> = (0..n).map(|i| format!("A{i}")).collect();
        for w in names.windows(2) {
            rig.add_edge(&w[0], &w[1]);
        }
        for i in (0..n.saturating_sub(3)).step_by(3) {
            rig.add_edge(&names[i], &names[i + 3]);
        }
        let e = InclusionExpr::all_direct(Direction::Including, names.clone(), None);
        let t = median_secs(9, || {
            let t0 = Instant::now();
            std::hint::black_box(optimize(&e, &rig));
            t0.elapsed().as_secs_f64()
        });
        r.rec(format!("optimize_secs_len{n}"), t, "s");
        println!("{:>8} | {} | {:>13.2}", n, fmt_secs(t), t * 1e6 / n as f64);
    }
}

/// E9: index selection — size vs query-time tradeoff (§7).
fn e9(scale: Scale, r: &mut Recorder) {
    banner("E9", "choosing what to index: size vs time (§7)");
    let n = scale.pick(400, 3200);
    let schema = bibtex::schema();
    let workload = [CHANG_AUTHOR, "SELECT r FROM References r WHERE r.Year = \"1982\""];
    let full = bibtex_full(n);
    let queries: Vec<_> = workload.iter().map(|q| parse_query(q).unwrap()).collect();
    let advice = advise(&schema, full.full_rig(), &queries);
    println!("advised set: {:?}", advice.index_set);
    let advised_names: Vec<&str> = advice.index_set.iter().map(String::as_str).collect();
    let scoped = IndexSpec::names(["Reference", "Year"]).with_scoped("Authors", "Last_Name");
    let corpus = bibtex_corpus(n);
    let scoped_db = FileDatabase::build(corpus, schema.clone(), scoped).unwrap();
    let setups: Vec<(&str, &FileDatabase)> = vec![("full", &full)];
    let advised_db = bibtex_partial(n, &advised_names);
    let tiny_db = bibtex_partial(n, &["Reference", "Last_Name", "Year"]);
    let mut rows: Vec<(&str, &FileDatabase)> = setups;
    rows.push(("advised", &advised_db));
    rows.push(("scoped §7", &scoped_db));
    rows.push(("tiny", &tiny_db));
    println!(
        "{:>10} | {:>9} {:>12} | {:>10} {:>8} {:>12}",
        "index", "regions", "approx B", "avg time", "exact", "parsed B"
    );
    for (label, fdb) in rows {
        let mut total = 0.0;
        let mut exact = true;
        let mut parsed = 0u64;
        for q in workload {
            let t = median_secs(3, || time_query(fdb, q).1);
            let (res, _) = time_query(fdb, q);
            total += t;
            exact &= res.stats.exact_index;
            parsed += res.stats.parse.bytes_scanned;
        }
        let avg = total / workload.len() as f64;
        r.rec(format!("avg_secs_{label}"), avg, "s");
        println!(
            "{:>10} | {:>9} {:>12} | {} {:>8} {:>12}",
            label,
            fdb.instance().region_count(),
            fdb.instance().approx_bytes(),
            fmt_secs(avg),
            exact,
            parsed
        );
    }
}

/// E10: §6.3 — partial indexes that are provably exact skip parsing.
fn e10(scale: Scale, r: &mut Recorder) {
    banner("E10", "exact answers with partial indexing (§6.3)");
    let cfg = logs::LogConfig {
        n_sessions: scale.pick(500, 4000),
        error_percent: 5,
        ..Default::default()
    };
    let (text, _) = logs::generate(&cfg);
    let corpus = Corpus::from_text(&text);
    let q = "SELECT s FROM Sessions s WHERE s.Requests.Request.Status = \"500\"";
    println!(
        "{:>22} | {:>8} {:>6} | {:>9} {:>12} | {:>10}",
        "index", "regions", "exact", "cands", "parsed B", "time"
    );
    for (label, names) in [
        ("full", vec![]),
        ("{Session,Status}", vec!["Session", "Status"]),
        ("{Session,Request}", vec!["Session", "Request"]),
    ] {
        let spec = if names.is_empty() { IndexSpec::full() } else { IndexSpec::names(names) };
        let fdb = FileDatabase::build(corpus.clone(), logs::schema(), spec).unwrap();
        let t = median_secs(3, || time_query(&fdb, q).1);
        let (res, _) = time_query(&fdb, q);
        r.rec(format!("secs_{label}"), t, "s");
        println!(
            "{:>22} | {:>8} {:>6} | {:>9} {:>12} | {}",
            label,
            fdb.instance().region_count(),
            res.stats.exact_index,
            res.stats.candidates,
            res.stats.parse.bytes_scanned,
            fmt_secs(t)
        );
    }
    println!(
        "({{Session,Status}} is exact: the route runs through unindexed names only; \
              {{Session,Request}} cannot test the status and must parse)"
    );
}

/// Reads quantile `q` (seconds) of a Prometheus histogram out of `/metrics`
/// exposition text: smallest bucket upper bound whose cumulative count
/// covers `q` of the total. Only unlabeled series match (`name_bucket{le=`),
/// so per-operator histograms don't leak in.
fn prom_histogram_quantile(metrics: &str, name: &str, q: f64) -> f64 {
    let prefix = format!("{name}_bucket{{le=\"");
    let mut buckets: Vec<(f64, f64)> = Vec::new();
    for line in metrics.lines() {
        let Some(rest) = line.strip_prefix(&prefix) else { continue };
        let Some((le, count)) = rest.split_once("\"} ") else { continue };
        let le = if le == "+Inf" { f64::INFINITY } else { le.parse().unwrap_or(f64::NAN) };
        buckets.push((le, count.trim().parse().unwrap_or(0.0)));
    }
    let total = buckets.last().map_or(0.0, |b| b.1);
    if total == 0.0 {
        return 0.0;
    }
    let target = q * total;
    buckets.iter().find(|(_, c)| *c >= target).map_or(f64::INFINITY, |(le, _)| *le)
}

/// Reads a counter's value out of Prometheus exposition text.
fn prom_counter(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// E12: the `qof serve` stack under closed-loop load — concurrent
/// keep-alive HTTP clients posting the mixed workload (plus one malformed
/// query each), with p50/p95 read back from `/metrics` the way a scraper
/// would beside the p50 round trip the clients measured (the server-side
/// histogram cannot see socket stalls), the query log cross-checked line-for-line against
/// `qof_queries_total`, and the log's overhead measured by re-running the
/// identical load with the log discarded.
fn e12(scale: Scale, r: &mut Recorder) {
    use std::net::TcpListener;

    use qof_server::{serve, Client, QueryLog, ServerConfig, ServerHandle};

    banner("E12", "query server under closed-loop load: latency from /metrics, log overhead");
    let (files, refs) = scale.pick((4, 30), (8, 200));
    let clients = scale.pick(2, 4);
    let per_client = scale.pick(20, 150);
    println!(
        "corpus: {files} files × {refs} refs; {clients} closed-loop clients × {per_client} \
         requests (first one malformed)"
    );

    let build_db = || {
        FileDatabase::build(multi_file_bibtex(files, refs), bibtex::schema(), IndexSpec::full())
            .expect("generated corpus indexes")
    };
    // One closed-loop run: start a fresh server, drive it, return the
    // handle (still serving), the load's wall-clock seconds and every
    // request's client-side round trip in seconds.
    let run_load = |log: QueryLog| -> (ServerHandle, f64, Vec<f64>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback listener");
        let handle = serve(build_db(), listener, log, &ServerConfig::default()).expect("serve");
        let addr = handle.addr();
        let t = Instant::now();
        let rtts = std::thread::scope(|s| {
            let workers: Vec<_> = (0..clients)
                .map(|c| {
                    s.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect");
                        let mut rtts = Vec::with_capacity(per_client);
                        for i in 0..per_client {
                            let (want, q) = if i == 0 {
                                (400, "SELEC nope")
                            } else {
                                (200, MIXED_WORKLOAD[(c + i) % MIXED_WORKLOAD.len()])
                            };
                            let sent = Instant::now();
                            let (status, body) = client.post("/query", q).expect("request");
                            rtts.push(sent.elapsed().as_secs_f64());
                            assert_eq!(status, want, "{body}");
                        }
                        rtts
                    })
                })
                .collect();
            workers.into_iter().flat_map(|w| w.join().expect("client does not panic")).collect()
        });
        (handle, t.elapsed().as_secs_f64(), rtts)
    };

    // Pass 1: log discarded (the no-overhead baseline).
    let (plain, t_plain, _) = run_load(QueryLog::discard());
    plain.shutdown();

    // Pass 2: the same load with the query log on a real file.
    let log_path = std::env::temp_dir().join(format!("qof-e12-{}.log", std::process::id()));
    let file = std::fs::File::create(&log_path).expect("create query log");
    let (handle, t_logged, mut rtts) = run_load(QueryLog::new(Box::new(file)));

    let total = (clients * per_client) as u64;
    let mut scraper = Client::connect(handle.addr()).expect("connect");
    let (status, metrics) = scraper.get("/metrics").expect("scrape");
    assert_eq!(status, 200);
    let queries = prom_counter(&metrics, "qof_queries_total");
    let errors = prom_counter(&metrics, "qof_query_errors_total");
    assert_eq!(queries, total, "every request is counted exactly once");
    assert_eq!(errors, clients as u64, "one malformed query per client");
    let log_lines =
        std::fs::read_to_string(&log_path).expect("read query log").lines().count() as u64;
    assert_eq!(log_lines, queries, "metrics and the query log advance in lockstep");
    let (_, recorder_json) = scraper.get("/flight-recorder").expect("recorder");
    assert!(recorder_json.contains("\"id\":"), "flight recorder holds traces");
    handle.shutdown();
    std::fs::remove_file(&log_path).ok();

    let p50 = prom_histogram_quantile(&metrics, "qof_query_latency_seconds", 0.50);
    let p95 = prom_histogram_quantile(&metrics, "qof_query_latency_seconds", 0.95);
    rtts.sort_by(f64::total_cmp);
    let client_p50 = rtts[rtts.len() / 2];
    let overhead = t_logged / t_plain.max(1e-12);
    r.rec("requests", total as f64, "queries");
    r.rec("wall_secs_logged", t_logged, "s");
    r.rec("throughput_qps", total as f64 / t_logged.max(1e-12), "1/s");
    r.rec("p50_ms", p50 * 1e3, "ms");
    r.rec("p95_ms", p95 * 1e3, "ms");
    r.rec("client_p50_ms", client_p50 * 1e3, "ms");
    r.rec("log_overhead_ratio", overhead, "x");
    println!(
        "{total} requests in {} = {:.0} q/s; server-side p50 {} p95 {} (log₂ bucket bounds); \
         client round-trip p50 {}",
        fmt_secs(t_logged),
        total as f64 / t_logged.max(1e-12),
        fmt_secs(p50),
        fmt_secs(p95),
        fmt_secs(client_p50),
    );
    println!(
        "query log: {log_lines} lines (= qof_queries_total); overhead vs no log {overhead:.3}x"
    );
    println!("(closed-loop: each client waits for its response before the next request)");
}

/// E13: the persistent index — a server reopening a `.qofx` file must
/// start an order of magnitude faster than one rebuilding from source,
/// answer every representative query identically, and pay less than one
/// index byte per corpus byte on disk (beyond the embedded corpus text
/// itself).
fn e13(scale: Scale, r: &mut Recorder) {
    banner("E13", "persistent index (.qofx): reopen vs rebuild");
    let (files, refs) = scale.pick((4, 60), (16, 400));
    let corpus = multi_file_bibtex(files, refs);
    let corpus_bytes = u64::from(corpus.len());

    // Stage the corpus as real source files: a cold server start without
    // a persisted index must read them back and re-tokenize, re-structure
    // and re-index everything, so that whole pipeline is the baseline.
    let mut src_dir = std::env::temp_dir();
    src_dir.push(format!("qof-bench-e13-src-{}", std::process::id()));
    std::fs::create_dir_all(&src_dir).expect("temp source dir");
    for f in corpus.files() {
        let span = (f.span.start as usize)..(f.span.end as usize);
        std::fs::write(src_dir.join(&f.name), &corpus.text()[span]).expect("stage source file");
    }
    let names: Vec<String> = corpus.files().iter().map(|f| f.name.clone()).collect();
    drop(corpus);

    // Cold build: what a server without a persisted index must do, timed
    // by phase: reading the files into a corpus, the region sweep that
    // parses them, and the word index.
    let t = Instant::now();
    let mut builder = qof_text::CorpusBuilder::new();
    for name in &names {
        let text = std::fs::read_to_string(src_dir.join(name)).expect("read source file");
        builder.add_file(name.clone(), &text);
    }
    let corpus = builder.build();
    let t_assembly = t.elapsed().as_secs_f64();
    let (mem, phases) = FileDatabase::build_timed(corpus, bibtex::schema(), IndexSpec::full())
        .expect("generated corpus indexes");
    let t_build = t.elapsed().as_secs_f64();
    std::fs::remove_dir_all(&src_dir).ok();

    let mut path = std::env::temp_dir();
    path.push(format!("qof-bench-e13-{}.qofx", std::process::id()));
    let t = Instant::now();
    let file_bytes = mem.persist(&path).expect("persist succeeds");
    let t_persist = t.elapsed().as_secs_f64();

    // Reopen repeatedly; the median is the steady cold-start cost.
    let passes = scale.pick(3usize, 9);
    let t_open = median_secs(passes, || {
        let t = Instant::now();
        std::hint::black_box(FileDatabase::open(&path, bibtex::schema()).expect("reopens"));
        t.elapsed().as_secs_f64()
    });
    let opened = FileDatabase::open(&path, bibtex::schema()).expect("reopens");
    std::fs::remove_file(&path).ok();

    // Every representative query must answer byte-identically on the
    // built and the reopened database.
    for q in MIXED_WORKLOAD {
        let (a, b) = (mem.query(q).expect("query runs"), opened.query(q).expect("query runs"));
        assert_eq!(a.regions, b.regions, "regions differ on {q}");
        assert_eq!(a.values, b.values, "values differ on {q}");
        assert_eq!(a.stats.exact_index, b.stats.exact_index, "exactness differs on {q}");
    }

    let index_bytes = file_bytes.saturating_sub(corpus_bytes);
    #[allow(clippy::cast_precision_loss)]
    let per_byte = if corpus_bytes == 0 { 0.0 } else { index_bytes as f64 / corpus_bytes as f64 };
    let speedup = t_build / t_open.max(1e-9);

    r.rec("build_secs", t_build, "s");
    r.rec("build_assembly_secs", t_assembly, "s");
    r.rec("build_region_sweep_secs", phases.region_sweep.as_secs_f64(), "s");
    r.rec("build_word_index_secs", phases.word_index.as_secs_f64(), "s");
    r.rec("persist_secs", t_persist, "s");
    r.rec("open_secs", t_open, "s");
    r.rec("cold_start_speedup", speedup, "x");
    r.rec("file_bytes", file_bytes as f64, "B");
    r.rec("corpus_bytes", corpus_bytes as f64, "B");
    r.rec("index_bytes_per_corpus_byte", per_byte, "ratio");
    println!(
        "{:>10} | {:>9} | {:>9} | {:>9} | {:>9} | {:>9} | {:>9} | {:>7}",
        "build", "assembly", "regions", "words", "persist", "reopen", "speedup", "idx B/B"
    );
    println!(
        "{} | {} | {} | {} | {} | {} | {:>8.1}x | {:>7.3}",
        fmt_secs(t_build),
        fmt_secs(t_assembly),
        fmt_secs(phases.region_sweep.as_secs_f64()),
        fmt_secs(phases.word_index.as_secs_f64()),
        fmt_secs(t_persist),
        fmt_secs(t_open),
        speedup,
        per_byte,
    );
}

/// A1 (ablation): common-subexpression sharing across OR branches (§5.2:
/// "the goal is to find common subexpressions … and evaluate them once").
fn a1(scale: Scale, r: &mut Recorder) {
    banner("A1", "ablation: common-subexpression sharing in boolean queries (§5.2)");
    println!(
        "{:>8} | {:>10} {:>10} | {:>8} {:>9} | {:>7}",
        "refs", "shared", "unshared", "σ∋ ops", "σ∋ ops u", "speedup"
    );
    for n in scale.pick(vec![200usize], vec![800usize, 3200]) {
        let fdb = bibtex_full(n);
        let words = WordIndex::build(fdb.corpus());
        // Both OR branches share an expensive subexpression: σ∋ over a
        // frequent abstract word (large posting list) on the Reference set.
        let shared = RegionExpr::name("Reference").select_contains("solving");
        let e = shared
            .clone()
            .intersect(
                RegionExpr::name("Reference").including(
                    RegionExpr::name("Authors")
                        .including(RegionExpr::name("Last_Name").select_eq("Chang")),
                ),
            )
            .union(
                shared.intersect(
                    RegionExpr::name("Reference").including(
                        RegionExpr::name("Editors")
                            .including(RegionExpr::name("Last_Name").select_eq("Corliss")),
                    ),
                ),
            );
        let engine = Engine::new(fdb.corpus(), &words, fdb.instance());
        let t_shared = median_secs(9, || {
            let t = Instant::now();
            std::hint::black_box(engine.eval(&e).unwrap());
            t.elapsed().as_secs_f64()
        });
        let t_unshared = median_secs(9, || {
            let t = Instant::now();
            std::hint::black_box(engine.eval_unshared(&e).unwrap());
            t.elapsed().as_secs_f64()
        });
        engine.reset_stats();
        engine.eval(&e).unwrap();
        let ops_s = engine.stats().ops("σ∋");
        engine.reset_stats();
        engine.eval_unshared(&e).unwrap();
        let ops_u = engine.stats().ops("σ∋");
        r.rec(format!("shared_secs_{n}"), t_shared, "s");
        r.rec(format!("unshared_secs_{n}"), t_unshared, "s");
        println!(
            "{:>8} | {} {} | {:>8} {:>9} | {:>6.2}x",
            n,
            fmt_secs(t_shared),
            fmt_secs(t_unshared),
            ops_s,
            ops_u,
            t_unshared / t_shared.max(1e-12)
        );
    }
}

/// A2: what the static-analysis layer costs. Three numbers per corpus
/// size: the full `qof check` pipeline per query (planning + abstract
/// interpretation + lints), the end-to-end query it guards, and the
/// certifier alone on the §3.2 golden chain (the per-plan overhead the
/// query path now always pays).
fn a2(scale: Scale, r: &mut Recorder) {
    banner("A2", "analyzer: qof check latency and rewrite-certifier overhead");
    println!(
        "{:>8} | {:>10} {:>10} {:>12} | {:>9}",
        "refs", "check", "query", "certify", "chk/qry"
    );
    let queries = [CHANG_AUTHOR, CHANG_STAR, "SELECT r FROM References r WHERE r.Year = \"1982\""];
    for n in scale.pick(vec![200usize], vec![800usize, 3200]) {
        let fdb = bibtex_full(n);
        let t_check = median_secs(9, || {
            let t = Instant::now();
            for q in &queries {
                std::hint::black_box(fdb.check(q));
            }
            t.elapsed().as_secs_f64() / queries.len() as f64
        });
        let t_query = median_secs(9, || {
            let t = Instant::now();
            for q in &queries {
                std::hint::black_box(fdb.query(q).unwrap());
            }
            t.elapsed().as_secs_f64() / queries.len() as f64
        });
        // The certifier micro-benchmark: the trace replay for the golden
        // chain's two-step rewrite, amortized over a tight loop.
        let rig = fdb.partial_rig();
        let chain = InclusionExpr::all_direct(
            Direction::Including,
            ["Reference", "Authors", "Name", "Last_Name"].iter().map(ToString::to_string).collect(),
            None,
        );
        let opt = optimize(&chain, rig);
        let t_cert = median_secs(9, || {
            let t = Instant::now();
            for _ in 0..100 {
                std::hint::black_box(certify(&chain, rig, &opt));
            }
            t.elapsed().as_secs_f64() / 100.0
        });
        r.rec(format!("check_secs_{n}"), t_check, "s");
        r.rec(format!("query_secs_{n}"), t_query, "s");
        r.rec(format!("certify_secs_{n}"), t_cert, "s");
        println!(
            "{:>8} | {} {} {:>11} | {:>8.2}x",
            n,
            fmt_secs(t_check),
            fmt_secs(t_query),
            fmt_secs(t_cert),
            t_check / t_query.max(1e-12)
        );
    }
}

/// A3: what the plan cache buys. A mixed workload runs one cold pass —
/// every chain misses the cache and is optimized and certified — and then
/// warm passes of the same queries, which plan from the cache.
fn a3(scale: Scale, r: &mut Recorder) {
    banner("A3", "plan cache: hit rate, cold pass and warm pass");
    let workload = [
        CHANG_AUTHOR,
        CHANG_STAR,
        EDITOR_IS_AUTHOR,
        "SELECT r FROM References r WHERE r.Year = \"1982\"",
    ];
    println!(
        "{:>8} | {:>9} {:>10} {:>8} | {:>10} {:>10}",
        "refs", "pc hits", "pc misses", "hit rate", "1st pass", "warm pass"
    );
    for n in scale.pick(vec![200usize], vec![800usize, 3200]) {
        let fdb = bibtex_full(n);
        let t = Instant::now();
        for q in &workload {
            let (_, trace) = fdb.query_traced(q).unwrap();
            if *q == CHANG_AUTHOR {
                r.attach_trace(trace.to_json());
            }
        }
        let t_cold = t.elapsed().as_secs_f64() / workload.len() as f64;
        let passes = scale.pick(3usize, 9);
        let t_warm = median_secs(passes, || {
            let t = Instant::now();
            for q in &workload {
                std::hint::black_box(fdb.query_traced(q).unwrap());
            }
            t.elapsed().as_secs_f64() / workload.len() as f64
        });
        let pc = fdb.plan_cache_stats();
        let hit_rate = pc.hits as f64 / (pc.hits + pc.misses).max(1) as f64;
        r.rec(format!("plan_cache_hit_rate_{n}"), hit_rate, "ratio");
        r.rec(format!("plan_cache_hits_{n}"), pc.hits as f64, "count");
        r.rec(format!("plan_cache_misses_{n}"), pc.misses as f64, "count");
        r.rec(format!("cold_pass_secs_{n}"), t_cold, "s");
        r.rec(format!("warm_pass_secs_{n}"), t_warm, "s");
        println!(
            "{:>8} | {:>9} {:>10} {:>7.0}% | {} {}",
            n,
            pc.hits,
            pc.misses,
            hit_rate * 100.0,
            fmt_secs(t_cold),
            fmt_secs(t_warm),
        );
    }
}

fn a5(scale: Scale, r: &mut Recorder) {
    use qof_pat::{WorkloadObs, WorkloadTable};
    banner("A5", "workload analytics: fingerprint aggregation overhead and heavy-hitter accuracy");
    let workload = [
        CHANG_AUTHOR,
        CHANG_STAR,
        EDITOR_IS_AUTHOR,
        "SELECT r FROM References r WHERE r.Year = \"1982\"",
    ];
    println!(
        "{:>8} | {:>10} {:>10} | {:>11} {:>9}",
        "refs", "untraced", "traced", "observe", "analytics"
    );
    for n in scale.pick(vec![200usize], vec![800usize, 3200]) {
        let fdb = bibtex_full(n);
        for q in &workload {
            fdb.query(q).unwrap();
            fdb.query_traced(q).unwrap();
        }
        let passes = scale.pick(5usize, 11);
        // `query` and `query_traced` run one path, and both feed the
        // workload table: "untraced" times `query`, which drops the trace.
        let t_plain = median_secs(passes, || {
            let t = Instant::now();
            for q in &workload {
                std::hint::black_box(fdb.query(q).unwrap());
            }
            t.elapsed().as_secs_f64() / workload.len() as f64
        });
        let t_traced = median_secs(passes, || {
            let t = Instant::now();
            for q in &workload {
                std::hint::black_box(fdb.query_traced(q).unwrap());
            }
            t.elapsed().as_secs_f64() / workload.len() as f64
        });
        // The analytics cost in isolation: feed a fresh table the same
        // observation stream the traced passes produced, far more times
        // than any pass would, and take ns per observe.
        let traces: Vec<_> = workload.iter().map(|q| fdb.query_traced(q).unwrap().1).collect();
        let observations: Vec<WorkloadObs> = traces
            .iter()
            .map(|tr| WorkloadObs {
                fingerprint: tr.fingerprint,
                exemplar: &tr.query,
                nanos: tr.total_nanos,
                bytes: tr.bytes_touched,
            })
            .collect();
        let table = WorkloadTable::new();
        let rounds = scale.pick(20_000usize, 100_000);
        let t0 = Instant::now();
        for i in 0..rounds {
            table.observe(&observations[i % observations.len()]);
        }
        let observe_nanos = t0.elapsed().as_secs_f64() * 1e9 / rounds as f64;
        // One observe per query: the analytics share of a query is observe
        // time over whole-query time.
        let analytics_pct = observe_nanos / (t_traced * 1e9).max(f64::EPSILON) * 100.0;
        r.rec(format!("untraced_pass_secs_{n}"), t_plain, "s");
        r.rec(format!("traced_pass_secs_{n}"), t_traced, "s");
        r.rec(format!("workload_observe_nanos_{n}"), observe_nanos, "ns");
        r.rec(format!("analytics_overhead_pct_{n}"), analytics_pct, "%");
        println!(
            "{:>8} | {} {} | {:>9.0}ns {:>8.3}%",
            n,
            fmt_secs(t_plain),
            fmt_secs(t_traced),
            observe_nanos,
            analytics_pct,
        );
    }
    // Heavy-hitter accuracy under eviction pressure: a skewed stream of 4×
    // the table's capacity distinct fingerprints. The space-saving bound
    // guarantees every entry's true count lies in [hits − overcount, hits].
    let table = WorkloadTable::new();
    let capacity = table.capacity();
    let shapes = capacity * 4;
    let mut true_hot = 0u64;
    for round in 0..shapes {
        let fp = (round % shapes) as u64 + 1;
        // Fingerprint 1 is hot: it reappears every 4th observation.
        let repeats = if fp == 1 { 64 } else { 1 };
        for _ in 0..repeats {
            table.observe(&WorkloadObs {
                fingerprint: fp,
                exemplar: &format!("shape {fp}"),
                nanos: 1_000,
                bytes: 10,
            });
            if fp == 1 {
                true_hot += 1;
            }
        }
    }
    let snapshot = table.snapshot();
    let hot = snapshot.iter().find(|e| e.fingerprint == 1).expect("hot shape survives eviction");
    println!(
        "heavy hitters: {shapes} shapes through {capacity} slots — hot shape kept \
         (hits {} overcount {} true {true_hot})",
        hot.hits, hot.overcount
    );
    r.rec("workload_capacity", capacity as f64, "entries");
    r.rec("hot_shape_hits", hot.hits as f64, "count");
    r.rec("hot_shape_overcount", hot.overcount as f64, "count");
    let (_, tr) = bibtex_full(scale.pick(50, 200)).query_traced(CHANG_AUTHOR).unwrap();
    r.attach_trace(tr.to_json());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_is_rejected() {
        assert!(run("e99", Scale::Small).is_none());
    }

    #[test]
    fn a3_reports_plan_cache_hit_rate_and_pass_times() {
        let report = run("a3", Scale::Small).unwrap();
        let names: Vec<&str> = report.measurements.iter().map(|m| m.name.as_str()).collect();
        for stem in ["plan_cache_hit_rate_", "cold_pass_secs_", "warm_pass_secs_"] {
            assert!(names.iter().any(|n| n.starts_with(stem)), "{stem}: {names:?}");
        }
        let hit_rate = report
            .measurements
            .iter()
            .find(|m| m.name.starts_with("plan_cache_hit_rate_"))
            .unwrap();
        assert!(hit_rate.value > 0.0, "warm passes must hit the plan cache");
        // The embedded trace is a v10 document: no estimates, and the hit
        // rate comes from the cache, not from per-query counts.
        let trace = report.trace_json.as_deref().unwrap();
        assert!(trace.contains("\"schema_version\":10"), "{trace}");
        assert!(!trace.contains("\"estimates\"") && !trace.contains("plan_cache"), "{trace}");
    }

    #[test]
    fn a5_reports_analytics_overhead_and_heavy_hitters() {
        let report = run("a5", Scale::Small).unwrap();
        let get = |name: &str| {
            report
                .measurements
                .iter()
                .find(|m| m.name == name || m.name.starts_with(name))
                .unwrap_or_else(|| panic!("missing measurement {name}"))
                .value
        };
        assert!(get("workload_observe_nanos_") > 0.0);
        // The acceptance bar: analytics must stay a rounding error on the
        // traced path (one table observe per multi-millisecond query).
        assert!(get("analytics_overhead_pct_") <= 5.0, "analytics overhead above 5%");
        // Space-saving accuracy: the hot shape survives a 4×-capacity
        // sweep and its count bound contains the true count.
        let (hits, over) = (get("hot_shape_hits"), get("hot_shape_overcount"));
        assert!(hits - over <= 4096.0 && hits >= 4096.0 / 64.0, "hot shape bound");
        // The embedded trace is a v10 document carrying the fingerprint.
        let trace = report.trace_json.as_deref().unwrap();
        assert!(trace.contains("\"schema_version\":10"), "{trace}");
        assert!(trace.contains("\"fingerprint\":\""), "{trace}");
        assert!(trace.contains("\"bytes_touched\":"), "{trace}");
    }

    #[test]
    fn e13_reopen_is_faster_equal_and_compact() {
        let report = run("e13", Scale::Small).unwrap();
        let get = |name: &str| {
            report
                .measurements
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("missing measurement {name}"))
                .value
        };
        assert!(get("cold_start_speedup") > 1.0, "reopen must beat rebuild");
        let phases = ["build_assembly_secs", "build_region_sweep_secs", "build_word_index_secs"];
        assert!(phases.iter().all(|p| get(p) > 0.0));
        assert!(phases.iter().map(|p| get(p)).sum::<f64>() <= get("build_secs"));
        assert!(get("index_bytes_per_corpus_byte") < 1.0, "index must be compact");
        assert!(get("open_secs") > 0.0);
        assert!(get("file_bytes") > get("corpus_bytes"));
    }

    #[test]
    fn e5_push_down_builds_fewer_value_nodes() {
        let report = run("e5", Scale::Small).unwrap();
        let get = |name: &str| {
            report
                .measurements
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("missing measurement {name}"))
                .value
        };
        assert!(get("value_nodes_push-down") > 0.0);
        assert!(get("value_nodes_push-down") < get("value_nodes_full"));
        assert!(get("secs_recognize") > 0.0);
        assert_eq!(get("bytes_scanned_recognize"), get("bytes_scanned_full"));
    }

    #[test]
    fn ids_are_unique_and_ordered() {
        let ids = all_ids();
        let mut dedup = ids.clone();
        dedup.dedup();
        assert_eq!(ids, dedup);
        assert!(ids.contains(&"e12"));
        assert!(!ids.contains(&"e11"), "e11 is retired");
        assert!(!ids.contains(&"a4"), "a4 is retired");
    }
}
