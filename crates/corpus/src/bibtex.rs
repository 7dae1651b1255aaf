//! BibTeX bibliography files — the paper's running example (Figure 1), with
//! the exact field set of the `Corl82a` entry: AUTHOR, TITLE, BOOKTITLE,
//! YEAR, EDITOR, PUBLISHER, ADDRESS, PAGES, REFERRED, KEYWORDS, ABSTRACT.

use crate::rng::{Rng, StdRng};
use qof_grammar::{lit, nt, Grammar, StructuringSchema, TokenPattern, ValueBuilder};
use std::fmt::Write as _;

use crate::vocab::{lorem, INITIALS, KEYWORDS, LAST_NAMES};

/// Knobs for the generator. All randomness flows from `seed`.
#[derive(Debug, Clone)]
pub struct BibtexConfig {
    /// Number of references.
    pub n_refs: usize,
    /// RNG seed.
    pub seed: u64,
    /// Inclusive range of authors per reference.
    pub authors_per_ref: (usize, usize),
    /// Inclusive range of editors per reference.
    pub editors_per_ref: (usize, usize),
    /// Inclusive range of keywords per reference.
    pub keywords_per_ref: (usize, usize),
    /// Inclusive range of cross-references per reference.
    pub referred_per_ref: (usize, usize),
    /// Words in each abstract.
    pub abstract_words: usize,
    /// Use only the first `n` last names (smaller pool ⇒ higher selectivity
    /// of any one name). Clamped to the pool size.
    pub name_pool: usize,
}

impl Default for BibtexConfig {
    fn default() -> Self {
        Self {
            n_refs: 100,
            seed: 42,
            authors_per_ref: (1, 3),
            editors_per_ref: (0, 2),
            keywords_per_ref: (1, 4),
            referred_per_ref: (0, 3),
            abstract_words: 20,
            name_pool: LAST_NAMES.len(),
        }
    }
}

impl BibtexConfig {
    /// A config with `n` references and everything else default.
    pub fn with_refs(n: usize) -> Self {
        Self { n_refs: n, ..Self::default() }
    }
}

/// Ground truth for one generated reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefTruth {
    /// The citation key.
    pub key: String,
    /// `(first, last)` author names.
    pub authors: Vec<(String, String)>,
    /// `(first, last)` editor names.
    pub editors: Vec<(String, String)>,
    /// The year, as written.
    pub year: String,
    /// The title.
    pub title: String,
    /// Keyword phrases.
    pub keywords: Vec<String>,
    /// Keys of referred entries.
    pub referred: Vec<String>,
}

/// Ground truth for a generated file — the oracle for correctness tests.
#[derive(Debug, Clone, Default)]
pub struct BibtexTruth {
    /// One entry per generated reference, in file order.
    pub refs: Vec<RefTruth>,
}

impl BibtexTruth {
    /// Keys of references where `name` is an author's last name.
    pub fn refs_with_author_last(&self, name: &str) -> Vec<&str> {
        self.refs
            .iter()
            .filter(|r| r.authors.iter().any(|(_, l)| l == name))
            .map(|r| r.key.as_str())
            .collect()
    }

    /// Keys of references where `name` is an editor's last name.
    pub fn refs_with_editor_last(&self, name: &str) -> Vec<&str> {
        self.refs
            .iter()
            .filter(|r| r.editors.iter().any(|(_, l)| l == name))
            .map(|r| r.key.as_str())
            .collect()
    }

    /// Keys of references where `name` is an author's *or* editor's last name.
    pub fn refs_with_any_last(&self, name: &str) -> Vec<&str> {
        self.refs
            .iter()
            .filter(|r| {
                r.authors.iter().any(|(_, l)| l == name) || r.editors.iter().any(|(_, l)| l == name)
            })
            .map(|r| r.key.as_str())
            .collect()
    }

    /// Keys of references carrying the keyword phrase.
    pub fn refs_with_keyword(&self, kw: &str) -> Vec<&str> {
        self.refs
            .iter()
            .filter(|r| r.keywords.iter().any(|k| k == kw))
            .map(|r| r.key.as_str())
            .collect()
    }

    /// Keys of references published in `year`.
    pub fn refs_with_year(&self, year: &str) -> Vec<&str> {
        self.refs.iter().filter(|r| r.year == year).map(|r| r.key.as_str()).collect()
    }
}

fn gen_name(rng: &mut StdRng, pool: usize) -> (String, String) {
    let first = INITIALS[rng.random_range(0..INITIALS.len())].to_owned();
    let last = LAST_NAMES[rng.random_range(0..pool)].to_owned();
    (first, last)
}

fn join_names(names: &[(String, String)]) -> String {
    names.iter().map(|(f, l)| format!("{f} {l}")).collect::<Vec<_>>().join(" and ")
}

/// Generates a BibTeX file and its ground truth.
pub fn generate(cfg: &BibtexConfig) -> (String, BibtexTruth) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let pool = cfg.name_pool.clamp(1, LAST_NAMES.len());
    let mut out = String::new();
    let mut truth = BibtexTruth::default();
    let range = |rng: &mut StdRng, (lo, hi): (usize, usize)| {
        if hi <= lo {
            lo
        } else {
            rng.random_range(lo..=hi)
        }
    };
    for i in 0..cfg.n_refs {
        let key = format!("Key{i:06}");
        let n_auth = range(&mut rng, cfg.authors_per_ref);
        let authors: Vec<_> = (0..n_auth).map(|_| gen_name(&mut rng, pool)).collect();
        let n_ed = range(&mut rng, cfg.editors_per_ref);
        let editors: Vec<_> = (0..n_ed).map(|_| gen_name(&mut rng, pool)).collect();
        let year = format!("{}", 1970 + rng.random_range(0..25));
        let title_len = 4 + rng.random_range(0..4);
        let title = lorem(&mut rng, title_len);
        let booktitle_len = 3 + rng.random_range(0..3);
        let booktitle = lorem(&mut rng, booktitle_len);
        let publisher = lorem(&mut rng, 1);
        let address = lorem(&mut rng, 2);
        let p0 = rng.random_range(1..400);
        let pages = format!("{p0}--{}", p0 + rng.random_range(5..40));
        let n_ref = range(&mut rng, cfg.referred_per_ref);
        let referred: Vec<String> = (0..n_ref)
            .map(|_| format!("Key{:06}", rng.random_range(0..cfg.n_refs.max(1))))
            .collect();
        let mut kws: Vec<String> = Vec::new();
        let n_kw = range(&mut rng, cfg.keywords_per_ref);
        for _ in 0..n_kw {
            let k = KEYWORDS[rng.random_range(0..KEYWORDS.len())].to_owned();
            if !kws.contains(&k) {
                kws.push(k);
            }
        }
        let abstract_ = lorem(&mut rng, cfg.abstract_words);

        let _ = write!(
            out,
            "@INCOLLECTION{{{key},\n\
             AUTHOR = \"{}\",\n\
             TITLE = \"{title}\",\n\
             BOOKTITLE = \"{booktitle}\",\n\
             YEAR = \"{year}\",\n\
             EDITOR = \"{}\",\n\
             PUBLISHER = \"{publisher}\",\n\
             ADDRESS = \"{address}\",\n\
             PAGES = \"{pages}\",\n\
             REFERRED = \"{}\",\n\
             KEYWORDS = \"{}\",\n\
             ABSTRACT = \"{abstract_}\"}}\n\n",
            join_names(&authors),
            join_names(&editors),
            referred.join("; "),
            kws.join("; "),
        );
        truth.refs.push(RefTruth { key, authors, editors, year, title, keywords: kws, referred });
    }
    (out, truth)
}

/// The natural structuring schema for BibTeX files (§4.1's example), with
/// the view `References` over the `Reference` non-terminal.
pub fn schema() -> StructuringSchema {
    let grammar = Grammar::builder("Ref_Set")
        .repeat("Ref_Set", "Reference", None, ValueBuilder::Set)
        .seq(
            "Reference",
            [
                lit("@INCOLLECTION{"),
                nt("Key"),
                lit(","),
                lit("AUTHOR = "),
                nt("Authors"),
                lit(","),
                lit("TITLE = \""),
                nt("Title"),
                lit("\","),
                lit("BOOKTITLE = \""),
                nt("Booktitle"),
                lit("\","),
                lit("YEAR = \""),
                nt("Year"),
                lit("\","),
                lit("EDITOR = "),
                nt("Editors"),
                lit(","),
                lit("PUBLISHER = \""),
                nt("Publisher"),
                lit("\","),
                lit("ADDRESS = \""),
                nt("Address"),
                lit("\","),
                lit("PAGES = \""),
                nt("Pages"),
                lit("\","),
                lit("REFERRED = "),
                nt("Referred"),
                lit(","),
                lit("KEYWORDS = "),
                nt("Keywords"),
                lit(","),
                lit("ABSTRACT = \""),
                nt("Abstract"),
                lit("\"}"),
            ],
            ValueBuilder::ObjectAuto("Reference".into()),
        )
        .token("Key", TokenPattern::Word, ValueBuilder::Atom)
        .repeat_delimited(
            "Authors",
            "Name",
            Some(" and "),
            Some("\""),
            Some("\""),
            ValueBuilder::Set,
        )
        // Editors share the Name non-terminal with Authors — the diamond in
        // the RIG (§3.2) that makes the `⊃ Authors` test necessary and
        // partial indexing approximate.
        .repeat_delimited(
            "Editors",
            "Name",
            Some(" and "),
            Some("\""),
            Some("\""),
            ValueBuilder::Set,
        )
        .seq("Name", [nt("First_Name"), nt("Last_Name")], ValueBuilder::TupleAuto)
        .token("First_Name", TokenPattern::Initials, ValueBuilder::Atom)
        .token("Last_Name", TokenPattern::Word, ValueBuilder::Atom)
        .token("Title", TokenPattern::Until("\"".into()), ValueBuilder::Atom)
        .token("Booktitle", TokenPattern::Until("\"".into()), ValueBuilder::Atom)
        .token("Year", TokenPattern::Number, ValueBuilder::Atom)
        .token("Publisher", TokenPattern::Until("\"".into()), ValueBuilder::Atom)
        .token("Address", TokenPattern::Until("\"".into()), ValueBuilder::Atom)
        .token("Pages", TokenPattern::Until("\"".into()), ValueBuilder::Atom)
        .repeat_delimited(
            "Referred",
            "RefKey",
            Some("; "),
            Some("\""),
            Some("\""),
            ValueBuilder::Set,
        )
        .token("RefKey", TokenPattern::Word, ValueBuilder::Atom)
        .repeat_delimited(
            "Keywords",
            "Keyword",
            Some("; "),
            Some("\""),
            Some("\""),
            ValueBuilder::Set,
        )
        .token("Keyword", TokenPattern::Until(";\"".into()), ValueBuilder::Atom)
        .token("Abstract", TokenPattern::Until("\"".into()), ValueBuilder::Atom)
        .build()
        .expect("the BibTeX grammar is well-formed");

    StructuringSchema::new(grammar).with_view("References", "Reference")
}

#[cfg(test)]
mod tests {
    use super::*;
    use qof_grammar::Parser;

    #[test]
    fn generation_is_deterministic() {
        let cfg = BibtexConfig::with_refs(5);
        let (a, _) = generate(&cfg);
        let (b, _) = generate(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn generated_file_parses_completely() {
        let cfg = BibtexConfig::with_refs(25);
        let (text, truth) = generate(&cfg);
        let schema = schema();
        let p = Parser::new(&schema.grammar, &text);
        let tree = p.parse_root(0..text.len() as u32).unwrap();
        assert_eq!(tree.children.len(), 25);
        assert_eq!(truth.refs.len(), 25);
    }

    #[test]
    fn truth_matches_text() {
        let cfg = BibtexConfig::with_refs(10);
        let (text, truth) = generate(&cfg);
        for r in &truth.refs {
            assert!(text.contains(&format!("@INCOLLECTION{{{}", r.key)));
            for (_, last) in &r.authors {
                assert!(text.contains(last.as_str()));
            }
        }
    }

    #[test]
    fn truth_queries() {
        let cfg = BibtexConfig { n_refs: 200, name_pool: 10, ..Default::default() };
        let (_, truth) = generate(&cfg);
        let chang_auth = truth.refs_with_author_last("Chang");
        let chang_any = truth.refs_with_any_last("Chang");
        assert!(!chang_auth.is_empty(), "200 refs over a 10-name pool must hit Chang");
        assert!(chang_any.len() >= chang_auth.len());
    }

    #[test]
    fn empty_editor_lists_parse() {
        let cfg = BibtexConfig {
            n_refs: 8,
            editors_per_ref: (0, 0),
            referred_per_ref: (0, 0),
            ..Default::default()
        };
        let (text, _) = generate(&cfg);
        assert!(text.contains("EDITOR = \"\""));
        let schema = schema();
        let p = Parser::new(&schema.grammar, &text);
        assert!(p.parse_root(0..text.len() as u32).is_ok());
    }

    #[test]
    fn schema_views_and_classes() {
        let s = schema();
        let reference = s.view_symbol("References").expect("the References view");
        // The one class is what the `Reference` annotation builds.
        assert_eq!(s.grammar.rule(reference).builder, ValueBuilder::ObjectAuto("Reference".into()));
    }
}
