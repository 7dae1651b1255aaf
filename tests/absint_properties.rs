//! Soundness of the abstract interpreter: for random region expressions,
//! the concrete result must lie inside the RIG-only abstract state — every
//! span a region of a type the static domain names, and a proven-empty
//! verdict implying a genuinely empty concrete set. The trace facts and
//! the `QOF10x` lints rest on these properties.
//!
//! The properties run on three databases: BibTeX with a full index,
//! BibTeX with a partial index (names drawn from the indexed set, RIG from
//! `partial_rig()`), and SGML, whose `Section` nests in itself so the RIG
//! has a cycle.
//!
//! Every case runs on its own seed drawn from a fixed `StdRng` stream, so
//! the suite runs offline and the same cases run every time; a failure
//! prints the case's seed, which reproduces it alone.

use std::sync::OnceLock;

use qof::corpus::bibtex::{self, BibtexConfig};
use qof::corpus::sgml::{self, SgmlConfig};
use qof::corpus::{Rng, StdRng};
use qof::grammar::IndexSpec;
use qof::pat::{Engine, RegionExpr, RegionSet};
use qof::text::Corpus;
use qof::{AbsInterp, FileDatabase};

/// Cases per property.
const CASES: usize = 256;

/// One database the properties run on, with the region names (its
/// indexed set) and words the random expressions draw from.
struct Setup {
    label: &'static str,
    db: FileDatabase,
    names: Vec<String>,
    words: Vec<String>,
}

impl Setup {
    fn new(label: &'static str, db: FileDatabase, words: &[&str]) -> Self {
        let names = db.instance().iter().map(|(n, _)| n.to_owned()).collect();
        // Words that may or may not occur, plus ones that certainly do not.
        let words = words.iter().chain(&["zzznosuchword", "qqqabsent"]).map(ToString::to_string);
        Setup { label, db, names, words: words.collect() }
    }

    fn word(&self, rng: &mut StdRng) -> &str {
        &self.words[rng.random_range(0..self.words.len())]
    }

    /// An arbitrary region expression over the indexed names and the word
    /// pool, at most `depth` operators deep.
    fn random_expr(&self, rng: &mut StdRng, depth: usize) -> RegionExpr {
        if depth == 0 || rng.random_range(0..3) == 0 {
            return if rng.random_range(0..2) == 0 {
                RegionExpr::name(&self.names[rng.random_range(0..self.names.len())])
            } else {
                RegionExpr::word(self.word(rng))
            };
        }
        let a = self.random_expr(rng, depth - 1);
        match rng.random_range(0..11) {
            0 => a.union(self.random_expr(rng, depth - 1)),
            1 => a.intersect(self.random_expr(rng, depth - 1)),
            2 => a.difference(self.random_expr(rng, depth - 1)),
            3 => a.including(self.random_expr(rng, depth - 1)),
            4 => a.included_in(self.random_expr(rng, depth - 1)),
            5 => a.direct_including(self.random_expr(rng, depth - 1)),
            6 => a.direct_included_in(self.random_expr(rng, depth - 1)),
            7 => a.select_eq(self.word(rng)),
            8 => a.select_contains(self.word(rng)),
            9 => a.innermost(),
            _ => a.outermost(),
        }
    }

    fn eval(&self, expr: &RegionExpr) -> RegionSet {
        let db = &self.db;
        Engine::new(db.corpus(), db.word_index(), db.instance()).eval(expr).unwrap()
    }
}

fn setups() -> &'static [Setup] {
    static SETUPS: OnceLock<Vec<Setup>> = OnceLock::new();
    SETUPS.get_or_init(|| {
        let bib_words = ["Chang", "1982", "Taylor", "and"];
        let bib = |n: usize, spec: IndexSpec| {
            let (text, _) = bibtex::generate(&BibtexConfig::with_refs(n));
            FileDatabase::build(Corpus::from_text(&text), bibtex::schema(), spec).unwrap()
        };
        let partial = IndexSpec::names(["Reference", "Key", "Authors", "Last_Name", "Year"]);
        let (sgml_text, truth) = sgml::generate(&SgmlConfig::default());
        let heads: Vec<&str> =
            truth.sections.iter().take(3).filter_map(|s| s.head.split(' ').next()).collect();
        let sgml_db =
            FileDatabase::build(Corpus::from_text(&sgml_text), sgml::schema(), IndexSpec::full())
                .unwrap();
        vec![
            Setup::new("bibtex 8 refs, full index", bib(8, IndexSpec::full()), &bib_words),
            Setup::new("bibtex 40 refs, full index", bib(40, IndexSpec::full()), &bib_words),
            Setup::new("bibtex 40 refs, partial index", bib(40, partial), &bib_words),
            Setup::new("sgml, recursive Section", sgml_db, &heads),
        ]
    })
}

/// Runs [`CASES`] cases of `case` on every setup, each on a seed drawn
/// from one fixed stream; a failing case panics with its setup, seed and
/// message.
fn for_cases(name: &str, mut case: impl FnMut(&Setup, &mut StdRng) -> Result<(), String>) {
    for setup in setups() {
        let mut seeds = StdRng::seed_from_u64(0xab51_0e7a);
        for i in 0..CASES {
            let seed = seeds.next_u64();
            if let Err(msg) = case(setup, &mut StdRng::seed_from_u64(seed)) {
                panic!("{name} on {}: case {i} (seed {seed:#x}) failed: {msg}", setup.label);
            }
        }
    }
}

/// Whenever the static domain is known, every span of the concrete result
/// is a region of some type it names.
#[test]
fn concrete_results_lie_within_the_abstract_state() {
    for_cases("domain soundness", |setup, rng| {
        let expr = setup.random_expr(rng, 3);
        let st = AbsInterp::new(setup.db.partial_rig()).analyze(&expr);
        let Some(domain) = st.domain else { return Ok(()) };
        let typed = |r| {
            domain.iter().any(|n| setup.db.instance().get(n).is_some_and(|set| set.contains(r)))
        };
        match setup.eval(&expr).iter().find(|r| !typed(r)) {
            Some(r) => Err(format!("span {r:?} of `{expr}` is no region of {domain:?}")),
            None => Ok(()),
        }
    });
}

/// Anything the RIG-only interpreter (the one behind `qof check` and the
/// trace facts) proves empty is empty concretely too.
#[test]
fn rig_only_interpreter_is_sound() {
    for_cases("emptiness soundness", |setup, rng| {
        let expr = setup.random_expr(rng, 3);
        let st = AbsInterp::new(setup.db.partial_rig()).analyze(&expr);
        if st.empty && !setup.eval(&expr).is_empty() {
            return Err(format!("`{expr}` proven empty but has regions"));
        }
        Ok(())
    });
}

/// Node facts are a pure repackaging of the abstract state.
#[test]
fn facts_mirror_the_analysis() {
    for_cases("facts", |setup, rng| {
        let expr = setup.random_expr(rng, 3);
        let interp = AbsInterp::new(setup.db.partial_rig());
        let st = interp.analyze(&expr);
        let fact = interp.fact("n", &expr);
        let domain: Vec<String> = st.domain.clone().unwrap_or_default().into_iter().collect();
        let same = fact.empty == st.empty
            && fact.domain_known == st.domain.is_some()
            && fact.domain == domain
            && fact.notes == st.notes;
        if same {
            Ok(())
        } else {
            Err(format!("fact {fact:?} does not mirror {st:?} for `{expr}`"))
        }
    });
}
