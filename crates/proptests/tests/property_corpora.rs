//! Cross-corpus structural properties: for every generator and random
//! configuration, the generated file parses, its extracted regions are
//! properly nested, and satisfy the grammar-derived RIG (modulo extent
//! collapse).

use proptest::prelude::*;
use qof::corpus::{bibtex, code, logs, mail, sgml};
use qof::grammar::{IndexSpec, StructuringSchema};
use qof::text::Corpus;
use qof::{FileDatabase, Rig};

fn check_structure(text: &str, schema: &StructuringSchema) {
    let corpus = Corpus::from_text(text);
    let db = FileDatabase::build(corpus, schema.clone(), IndexSpec::full()).unwrap();
    let forest = db.instance().forest();
    assert!(forest.is_properly_nested(), "grammar-derived regions must nest properly");
    let rig = Rig::from_grammar(&schema.grammar);
    rig.check_instance(db.instance()).expect("instance satisfies the derived RIG");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bibtex_structure(seed in 0u64..500, n in 1usize..30, authors in 1usize..4, editors in 0usize..3) {
        let cfg = bibtex::BibtexConfig {
            n_refs: n,
            seed,
            authors_per_ref: (authors.min(2), authors),
            editors_per_ref: (0, editors),
            ..Default::default()
        };
        let (text, truth) = bibtex::generate(&cfg);
        prop_assert_eq!(truth.refs.len(), n);
        check_structure(&text, &bibtex::schema());
    }

    #[test]
    fn mail_structure(seed in 0u64..500, n in 1usize..25) {
        let cfg = mail::MailConfig { n_messages: n, seed, ..Default::default() };
        let (text, _) = mail::generate(&cfg);
        check_structure(&text, &mail::schema());
    }

    #[test]
    fn logs_structure(seed in 0u64..500, n in 1usize..25, err in 0u32..60) {
        let cfg = logs::LogConfig { n_sessions: n, seed, error_percent: err, ..Default::default() };
        let (text, _) = logs::generate(&cfg);
        check_structure(&text, &logs::schema());
    }

    #[test]
    fn sgml_structure(seed in 0u64..500, top in 1usize..5, depth in 1usize..5) {
        let cfg = sgml::SgmlConfig { top_sections: top, max_depth: depth, seed, ..Default::default() };
        let (text, _) = sgml::generate(&cfg);
        check_structure(&text, &sgml::schema());
    }

    #[test]
    fn code_structure(seed in 0u64..500, n in 1usize..25, ifp in 0u32..70) {
        let cfg = code::CodeConfig { n_functions: n, seed, if_percent: ifp, ..Default::default() };
        let (text, _) = code::generate(&cfg);
        check_structure(&text, &code::schema());
    }
}
