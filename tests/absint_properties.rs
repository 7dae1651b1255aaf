//! Soundness of the abstract interpreter: for random region expressions
//! over generated BibTeX corpora, the concrete result must lie inside the
//! abstract over-approximation — its cardinality within the static
//! interval, and a proven-empty verdict implying a genuinely empty
//! concrete set. The rewrite certifier and the `QOF10x` lints rest on
//! these properties.
//!
//! Every case runs on its own seed drawn from a fixed `StdRng` stream, so
//! the suite runs offline and the same cases run every time; a failure
//! prints the case's seed, which reproduces it alone.

use std::sync::OnceLock;

use qof::corpus::bibtex::{self, BibtexConfig};
use qof::corpus::{Rng, StdRng};
use qof::grammar::IndexSpec;
use qof::pat::{Engine, RegionExpr};
use qof::text::Corpus;
use qof::{AbsInterp, FileDatabase};

/// Region names of the BibTeX grammar (leaves and containers alike).
const NAMES: [&str; 9] =
    ["Reference", "Key", "Authors", "Name", "First_Name", "Last_Name", "Year", "Keywords", "Title"];

/// Words that may or may not occur in a generated corpus, plus ones that
/// certainly do not — absence is what drives the emptiness facts.
const WORDS: [&str; 6] = ["Chang", "1982", "Taylor", "and", "zzznosuchword", "qqqabsent"];

/// Cases per property.
const CASES: usize = 256;

/// Runs [`CASES`] cases of `case`, each on a seed drawn from one fixed
/// stream; a failing case panics with its seed and message.
fn for_cases(name: &str, mut case: impl FnMut(&mut StdRng) -> Result<(), String>) {
    let mut seeds = StdRng::seed_from_u64(0xab51_0e7a);
    for i in 0..CASES {
        let seed = seeds.next_u64();
        if let Err(msg) = case(&mut StdRng::seed_from_u64(seed)) {
            panic!("{name}: case {i} (seed {seed:#x}) failed: {msg}");
        }
    }
}

fn dbs() -> &'static [FileDatabase; 2] {
    static DBS: OnceLock<[FileDatabase; 2]> = OnceLock::new();
    DBS.get_or_init(|| {
        [8, 40].map(|n| {
            let (text, _) = bibtex::generate(&BibtexConfig::with_refs(n));
            FileDatabase::build(Corpus::from_text(&text), bibtex::schema(), IndexSpec::full())
                .unwrap()
        })
    })
}

fn word(rng: &mut StdRng) -> &'static str {
    WORDS[rng.random_range(0..WORDS.len())]
}

/// An arbitrary region expression over the schema's names and the word
/// pool, at most `depth` operators deep.
fn random_expr(rng: &mut StdRng, depth: usize) -> RegionExpr {
    if depth == 0 || rng.random_range(0..3) == 0 {
        return if rng.random_range(0..2) == 0 {
            RegionExpr::name(NAMES[rng.random_range(0..NAMES.len())])
        } else {
            RegionExpr::word(word(rng))
        };
    }
    let a = random_expr(rng, depth - 1);
    match rng.random_range(0..13) {
        0 => a.union(random_expr(rng, depth - 1)),
        1 => a.intersect(random_expr(rng, depth - 1)),
        2 => a.difference(random_expr(rng, depth - 1)),
        3 => a.including(random_expr(rng, depth - 1)),
        4 => a.included_in(random_expr(rng, depth - 1)),
        5 => a.direct_including(random_expr(rng, depth - 1)),
        6 => a.direct_included_in(random_expr(rng, depth - 1)),
        7 => a.select_eq(word(rng)),
        8 => a.select_contains(word(rng)),
        9 => a.innermost(),
        10 => a.outermost(),
        11 => {
            let gap = rng.random_range(0..20) as u32;
            a.near(random_expr(rng, depth - 1), gap)
        }
        _ => {
            let n = rng.random_range(1..4) as u32;
            a.select_count_at_least(word(rng), n)
        }
    }
}

fn eval(db: &FileDatabase, expr: &RegionExpr) -> usize {
    Engine::new(db.corpus(), db.word_index(), db.instance()).eval(expr).unwrap().len()
}

/// Concrete cardinality lies in the static interval, and a proven-empty
/// abstract state implies an empty concrete result.
#[test]
fn concrete_results_lie_within_the_abstract_state() {
    for_cases("statistics-backed soundness", |rng| {
        let db = &dbs()[rng.random_range(0..2)];
        let expr = random_expr(rng, 3);
        let st = db.abs_interp().analyze(&expr);
        let n = eval(db, &expr) as u64;
        if n < st.card.lo || st.card.hi.is_some_and(|hi| n > hi) {
            return Err(format!(
                "concrete {n} outside the static interval {} for `{expr}`",
                st.card
            ));
        }
        if st.empty && n > 0 {
            return Err(format!("proven-empty `{expr}` evaluated to {n} regions"));
        }
        Ok(())
    });
}

/// The RIG-only interpreter (the one behind `qof check`) must be at least
/// as loose as the statistics-backed one: anything it proves empty is
/// empty concretely too.
#[test]
fn rig_only_interpreter_is_sound() {
    for_cases("RIG-only soundness", |rng| {
        let db = &dbs()[rng.random_range(0..2)];
        let expr = random_expr(rng, 3);
        let st = AbsInterp::new(db.partial_rig()).analyze(&expr);
        if st.empty && eval(db, &expr) > 0 {
            return Err(format!("`{expr}` proven empty but has regions"));
        }
        // RIG-only intervals carry no statistics: the lower bound stays 0.
        if st.card.lo != 0 {
            return Err(format!("RIG-only lower bound {} for `{expr}`", st.card.lo));
        }
        Ok(())
    });
}

/// Node facts are a pure repackaging of the abstract state.
#[test]
fn facts_mirror_the_analysis() {
    for_cases("facts", |rng| {
        let expr = random_expr(rng, 3);
        let interp = dbs()[0].abs_interp();
        let st = interp.analyze(&expr);
        let fact = interp.fact("n", &expr);
        let same = fact.card_lo == st.card.lo
            && fact.card_hi == st.card.hi
            && fact.empty == st.empty
            && fact.domain_known == st.domain.is_some();
        if same {
            Ok(())
        } else {
            Err(format!("fact {fact:?} does not mirror {st:?} for `{expr}`"))
        }
    });
}
