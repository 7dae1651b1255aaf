//! SGML-like documents with *self-nested* sections. Regions of the same name
//! nest inside each other, so the derived region inclusion graph contains a
//! cycle ("in general, the RIG may contain cycles (e.g., self-nested
//! regions)", §3). This corpus exercises the optimizer's cycle handling and
//! the transitive-closure path queries of §5.3.
//!
//! ```text
//! <doc><sec><head>alpha beta</head><p>text…</p><sec>…</sec></sec></doc>
//! ```

use crate::rng::{Rng, StdRng};
use qof_grammar::{lit, nt, Grammar, StructuringSchema, TokenPattern, ValueBuilder};

use crate::vocab::lorem;

/// Generator knobs.
#[derive(Debug, Clone)]
pub struct SgmlConfig {
    /// Number of top-level sections.
    pub top_sections: usize,
    /// Maximum nesting depth of sections.
    pub max_depth: usize,
    /// Inclusive range of subsections per section (before depth cutoff).
    pub subsections: (usize, usize),
    /// Inclusive range of paragraphs per section.
    pub paragraphs: (usize, usize),
    /// Words per paragraph.
    pub para_words: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SgmlConfig {
    fn default() -> Self {
        Self {
            top_sections: 4,
            max_depth: 3,
            subsections: (0, 2),
            paragraphs: (1, 3),
            para_words: 12,
            seed: 3,
        }
    }
}

/// Ground truth for one section (flattened, pre-order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionTruth {
    /// The heading text.
    pub head: String,
    /// Nesting depth (top-level = 0).
    pub depth: usize,
    /// Number of direct subsections.
    pub n_subsections: usize,
}

/// Ground truth for a document.
#[derive(Debug, Clone, Default)]
pub struct SgmlTruth {
    /// All sections in pre-order.
    pub sections: Vec<SectionTruth>,
}

impl SgmlTruth {
    /// Headings of sections whose head contains the word.
    pub fn sections_with_head_word(&self, word: &str) -> Vec<&str> {
        self.sections
            .iter()
            .filter(|s| s.head.split(' ').any(|w| w == word))
            .map(|s| s.head.as_str())
            .collect()
    }

    /// Number of sections at nesting depth `d`.
    pub fn count_at_depth(&self, d: usize) -> usize {
        self.sections.iter().filter(|s| s.depth == d).count()
    }
}

fn gen_section(
    rng: &mut StdRng,
    cfg: &SgmlConfig,
    depth: usize,
    out: &mut String,
    truth: &mut SgmlTruth,
) {
    let head_len = 2 + rng.random_range(0..3);
    let head = lorem(rng, head_len);
    out.push_str("<sec><head>");
    out.push_str(&head);
    out.push_str("</head>");
    let n_paras = rng.random_range(cfg.paragraphs.0..=cfg.paragraphs.1.max(cfg.paragraphs.0));
    for _ in 0..n_paras {
        out.push_str("<p>");
        let body = lorem(rng, cfg.para_words);
        out.push_str(&body);
        out.push_str("</p>");
    }
    let n_subs = if depth + 1 >= cfg.max_depth {
        0
    } else {
        rng.random_range(cfg.subsections.0..=cfg.subsections.1.max(cfg.subsections.0))
    };
    let slot = truth.sections.len();
    truth.sections.push(SectionTruth { head, depth, n_subsections: n_subs });
    for _ in 0..n_subs {
        gen_section(rng, cfg, depth + 1, out, truth);
    }
    truth.sections[slot].n_subsections = n_subs;
    out.push_str("</sec>");
}

/// Generates a document and its ground truth.
pub fn generate(cfg: &SgmlConfig) -> (String, SgmlTruth) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut out = String::from("<doc>");
    let mut truth = SgmlTruth::default();
    for _ in 0..cfg.top_sections {
        gen_section(&mut rng, &cfg.clone(), 0, &mut out, &mut truth);
    }
    out.push_str("</doc>");
    (out, truth)
}

/// The structuring schema for documents, views `Sections` over `Section`.
///
/// `Section → … Subsections …` and `Subsections → Section*` close the cycle
/// `Section → Subsections → Section` in the RIG.
pub fn schema() -> StructuringSchema {
    let grammar = Grammar::builder("Doc")
        .seq("Doc", [lit("<doc>"), nt("Sections"), lit("</doc>")], ValueBuilder::Child)
        .repeat("Sections", "Section", None, ValueBuilder::Set)
        .seq(
            "Section",
            [
                lit("<sec>"),
                lit("<head>"),
                nt("Head"),
                lit("</head>"),
                nt("Paras"),
                nt("Subsections"),
                lit("</sec>"),
            ],
            ValueBuilder::ObjectAuto("Section".into()),
        )
        .token("Head", TokenPattern::Until("<".into()), ValueBuilder::Atom)
        .repeat("Paras", "Para", None, ValueBuilder::Set)
        .seq("Para", [lit("<p>"), nt("Text"), lit("</p>")], ValueBuilder::Child)
        .token("Text", TokenPattern::Until("<".into()), ValueBuilder::Atom)
        .repeat("Subsections", "Section", None, ValueBuilder::Set)
        .build()
        .expect("the SGML grammar is well-formed");
    StructuringSchema::new(grammar).with_view("Sections", "Section")
}

#[cfg(test)]
mod tests {
    use super::*;
    use qof_grammar::Parser;

    #[test]
    fn generates_and_parses() {
        let (text, truth) = generate(&SgmlConfig::default());
        let s = schema();
        let tree = Parser::new(&s.grammar, &text).parse_root(0..text.len() as u32).unwrap();
        assert!(!truth.sections.is_empty());
        // Count Section nodes in the tree.
        let mut sections = 0;
        let sec = s.grammar.symbol("Section").unwrap();
        tree.walk(&mut |n| {
            if n.symbol == sec {
                sections += 1;
            }
        });
        assert_eq!(sections, truth.sections.len());
    }

    #[test]
    fn nesting_reaches_configured_depth() {
        let cfg =
            SgmlConfig { top_sections: 6, max_depth: 4, subsections: (1, 2), ..Default::default() };
        let (_, truth) = generate(&cfg);
        assert!(truth.count_at_depth(0) == 6);
        assert!(truth.count_at_depth(3) > 0, "depth 4 config must produce depth-3 sections");
        assert_eq!(truth.count_at_depth(4), 0);
    }

    #[test]
    fn head_word_query_truth() {
        let (_, truth) = generate(&SgmlConfig::default());
        let first_word = truth.sections[0].head.split(' ').next().unwrap().to_owned();
        assert!(!truth.sections_with_head_word(&first_word).is_empty());
    }

    #[test]
    fn deterministic() {
        let cfg = SgmlConfig::default();
        assert_eq!(generate(&cfg).0, generate(&cfg).0);
    }
}
