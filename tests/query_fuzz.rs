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
//! A fourth loop binds new constants into cached shape plans: each drawn
//! shape runs with constants A, then with constants B on the same
//! database, and B must plan, explain, answer and count as it does on a
//! database that never saw the shape.
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

/// Whether a constant selects by prefix: a `*` after at least one
/// character. `"*"` is a word.
fn is_prefix(constant: &str) -> bool {
    constant.len() > 1 && constant.ends_with('*')
}

/// Which of four pools a word constant of a shape draws from: keys,
/// years, phrases or other words (the values of a bibtex `Key`, `Year`,
/// `Keyword` and `Last_Name`).
fn pool_of(constant: &str) -> usize {
    match constant {
        c if c.starts_with("Key") => 0,
        c if c.bytes().all(|b| b.is_ascii_digit()) => 1,
        c if c.contains(' ') => 2,
        _ => 3,
    }
}

/// A constant of the same selector kind as `constant`: a prefix for a
/// prefix; for a word, a word of its pool, or one time in four a phrase,
/// the empty word or `"*"`.
fn constant_like(constant: &str, pools: &[Vec<&str>; 4], rng: &mut StdRng) -> String {
    const PREFIXES: &[&str] = &["Ch*", "Ta*", "K*", "**", "1*"];
    const ODD_WORDS: &[&str] = &["Taylor series", "", "*", "Chang", "1982"];
    if is_prefix(constant) {
        return PREFIXES[rng.random_range(0..PREFIXES.len())].to_owned();
    }
    if rng.random_range(0..4) == 0 {
        return ODD_WORDS[rng.random_range(0..ODD_WORDS.len())].to_owned();
    }
    let pool = &pools[pool_of(constant)];
    pool[rng.random_range(0..pool.len())].to_owned()
}

/// `query` with each of its constants replaced by `next(constant)`, in
/// order. Constants hold no `"`, so the quotes delimit them.
fn rebind(query: &str, mut next: impl FnMut(&str) -> String) -> String {
    let mut parts = query.split('"');
    let mut out = parts.next().unwrap_or_default().to_owned();
    while let (Some(constant), Some(after)) = (parts.next(), parts.next()) {
        out.push('"');
        out.push_str(&next(constant));
        out.push('"');
        out.push_str(after);
    }
    out
}

/// What a query run shows: its EXPLAIN text, answers (values and
/// regions), run counters, rewrites and facts, or its error.
fn observed(db: &FileDatabase, query: &str) -> Result<[String; 6], String> {
    let (res, trace) = db.query_traced(query).map_err(|e| e.to_string())?;
    Ok([
        res.explain,
        format!("{:?}", shown(&res.values, &res.db)),
        format!("{:?}", res.regions),
        format!("{:?}", res.stats),
        format!("{:?}", trace.rewrites),
        format!("{:?}", trace.facts),
    ])
}

/// A shape's plan with other constants bound in is the plan of the query
/// as written. Each drawn shape runs with constants A and then with
/// constants B of the same kinds: B hits the plan cache, shares A's
/// fingerprint, plans, explains, answers and counts exactly as on a
/// database that never planned the shape, and answers as the baseline
/// does. Drawn shapes: constants swapped
/// between two conjuncts, a constant used twice, a `*X` path whose
/// constant lands in one leaf per derivation alternative, prefixes, the
/// empty word, a phrase and `"*"`, and `AND`/`OR`/`NOT` mixes over every
/// schema, under full, partial and scoped (§7) indexes.
#[test]
fn constants_bind_into_a_cached_shape_plan_as_a_cold_planner_plans_them() {
    const BIBTEX_SHAPES: &[&str] = &[
        "SELECT v FROM References v WHERE v.Authors.Name.Last_Name = \"Chang\" AND v.Year = \"1982\"",
        "SELECT v.Key FROM References v WHERE v.Year = \"1982\" OR v.Authors.Name.Last_Name = \"Chang\"",
        "SELECT v FROM References v WHERE v.Authors.Name.Last_Name = \"Chang\" \
         OR v.Editors.Name.Last_Name = \"Chang\"",
        "SELECT v FROM References v WHERE v.*X.Last_Name = \"Chang\"",
        "SELECT v.Key FROM References v WHERE v.*X.Last_Name = \"Ch*\" AND NOT v.Year = \"1982\"",
        "SELECT v FROM References v WHERE v.Keywords.Keyword = \"Taylor series\"",
        "SELECT v.Title FROM References v WHERE v.Authors.Name.Last_Name = \"\"",
        "SELECT v FROM References v WHERE v.Key = \"*\" OR v.Key = \"K*\"",
        "SELECT v FROM References v, References s WHERE v.Referred.RefKey = s.Key \
         AND s.Year = \"1982\"",
    ];
    let mut seeds = StdRng::seed_from_u64(0x5_4a9e);
    let bib_cfg = bibtex::BibtexConfig { n_refs: 20, name_pool: 6, ..Default::default() };
    let (bib_text, truth) = bibtex::generate(&bib_cfg);
    // The bibtex shapes draw values the references hold, each from its
    // field's pool, so that most of their conjuncts and disjuncts select
    // something.
    let refs = &truth.refs;
    let bib_pools: [Vec<&str>; 4] = [
        refs.iter().map(|r| r.key.as_str()).collect(),
        refs.iter().map(|r| r.year.as_str()).collect(),
        refs.iter().flat_map(|r| r.keywords.iter().map(String::as_str)).collect(),
        refs.iter()
            .flat_map(|r| r.authors.iter().chain(&r.editors).map(|n| n.1.as_str()))
            .collect(),
    ];
    let mut corpora = corpora();
    corpora[0].1 = bib_text;
    let (mut hits, mut answered, mut baselined) = (0, 0, 0);
    for (schema, text) in corpora {
        let (view, symbol) = schema.views().next().expect("a view");
        let (view, symbol) = (view.to_owned(), symbol.to_owned());
        let bib = symbol == "Reference";
        let pools = if bib {
            bib_pools.clone()
        } else {
            let words: Vec<&str> =
                text.split(|c: char| !c.is_alphanumeric()).filter(|w| !w.is_empty()).collect();
            [(); 4].map(|()| words.clone())
        };
        let corpus = Corpus::from_text(&text);
        let mut specs = vec![IndexSpec::full()];
        if bib {
            specs.push(IndexSpec::names(["Reference", "Last_Name"]));
            specs.push(IndexSpec::names(["Reference", "Key"]).with_scoped("Authors", "Last_Name"));
        } else {
            let mut rng = StdRng::seed_from_u64(seeds.next_u64());
            let mut partial = IndexSpec::names([symbol.as_str()]);
            for (_, name) in schema.grammar.symbols() {
                if rng.random_range(0..2) == 0 {
                    partial = partial.with_name(name);
                }
            }
            specs.push(partial);
        }
        for spec in specs {
            let build = || FileDatabase::build(corpus.clone(), schema.clone(), spec.clone());
            let db = build().unwrap();
            let drawn = if bib { BIBTEX_SHAPES.len() + 20 } else { 20 };
            for i in 0..drawn {
                let seed = seeds.next_u64();
                let rng = &mut StdRng::seed_from_u64(seed);
                let shape = match BIBTEX_SHAPES.get(i).filter(|_| bib) {
                    Some(shape) => (*shape).to_owned(),
                    None => {
                        let cond = random_cond(&schema, (&view, &symbol), &["Ch*", "w"], 2, rng);
                        format!("SELECT v FROM {view} v WHERE {cond}")
                    }
                };
                // A keeps equal constants of the shape equal; B swaps the
                // constants of a two-constant query one time in two, and
                // otherwise draws each anew.
                let mut drawn_for = std::collections::HashMap::new();
                let a = rebind(&shape, |c| {
                    drawn_for
                        .entry(c.to_owned())
                        .or_insert_with(|| constant_like(c, &pools, rng))
                        .clone()
                });
                let a_constants: Vec<&str> = a.split('"').skip(1).step_by(2).collect();
                let swap = a_constants.len() == 2
                    && is_prefix(a_constants[0]) == is_prefix(a_constants[1])
                    && rng.random_range(0..2) == 0;
                let mut swapped = a_constants.iter().rev();
                let b = rebind(&shape, |c| match swapped.next().filter(|_| swap) {
                    Some(constant) => (*constant).to_owned(),
                    None => constant_like(c, &pools, rng),
                });
                let planned_a = db.plan(&a).map(|plan| plan.fingerprint);
                let before = db.plan_cache_stats();
                let warm = observed(&db, &b);
                let after = db.plan_cache_stats();
                let cold = observed(&build().unwrap(), &b);
                let context = format!("{spec:?}, case {i} (seed {seed:#x}): `{a}` then `{b}`");
                assert_eq!(warm, cold, "{context}");
                if let Ok(fingerprint) = planned_a {
                    assert_eq!(
                        (after.hits, after.misses),
                        (before.hits + 1, before.misses),
                        "{context}"
                    );
                    assert_eq!(db.plan(&b).unwrap().fingerprint, fingerprint, "{context}");
                    hits += 1;
                }
                // And the bound plan is B's own: its EXPLAIN text keeps no
                // placeholder, and its answers are the baseline's. Only for
                // words: a prefix is known to select differently on the
                // index (a one-word atom, or a whole word when the target
                // is not indexed) and in the baseline (any atom starting
                // with it).
                if let Ok(w) = &warm {
                    assert!(!w[0].contains('$'), "{context}: {}", w[0]);
                }
                if !b.split('"').skip(1).step_by(2).any(is_prefix) {
                    if let Err(msg) = same_objects_as_baseline(&db, &b) {
                        panic!("{context}: {msg}");
                    }
                    baselined += 1;
                }
                answered += usize::from(warm.is_ok_and(|w| w[1] != "[]"));
            }
        }
    }
    assert!(hits > 100, "only {hits} shapes planned");
    assert!(answered > 30, "only {answered} rebound queries had answers");
    assert!(baselined > 100, "only {baselined} rebound queries met the baseline");
}
