//! Cross-corpus structural properties: for every generator and drawn
//! configuration, the generated file parses, its extracted regions are
//! properly nested and satisfy the grammar-derived RIG (modulo extent
//! collapse), and the one-pass region extraction of the build equals the
//! extraction from the parse tree.
//!
//! Every case draws its configuration from a fixed `StdRng` stream, so the
//! suite runs offline and the same cases run every time; a failure prints
//! the case's seed and configuration, which reproduce it alone.

use qof::corpus::{bibtex, code, logs, mail, sgml};
use qof::corpus::{Rng, StdRng};
use qof::grammar::{extract_regions, IndexSpec, Parser, StructuringSchema};
use qof::text::Corpus;
use qof::{FileDatabase, Rig};

/// Cases per corpus.
const CASES: usize = 24;

fn check_structure(text: &str, schema: &StructuringSchema) -> Result<(), String> {
    let db = FileDatabase::build(Corpus::from_text(text), schema.clone(), IndexSpec::full())
        .map_err(|e| e.to_string())?;
    if !db.instance().forest().is_properly_nested() {
        return Err("grammar-derived regions must nest properly".into());
    }
    Rig::from_grammar(&schema.grammar)
        .check_instance(db.instance())
        .map_err(|e| format!("instance violates the derived RIG: {e:?}"))?;
    let tree = Parser::new(&schema.grammar, text)
        .parse_root(0..text.len() as u32)
        .map_err(|e| e.to_string())?;
    if extract_regions(&tree, &schema.grammar, &IndexSpec::full()) != *db.instance() {
        return Err("the build's regions differ from the parse tree's".into());
    }
    Ok(())
}

/// Runs [`CASES`] cases of `case`, each on a seed drawn from one fixed
/// stream; a failing case panics with its seed and configuration.
fn run_cases(name: &str, mut case: impl FnMut(&mut StdRng) -> (String, String, StructuringSchema)) {
    let mut rng = StdRng::seed_from_u64(0xc0_4a);
    for i in 0..CASES {
        let (config, text, schema) = case(&mut rng);
        if let Err(msg) = check_structure(&text, &schema) {
            panic!("{name}, case {i} ({config}): {msg}");
        }
    }
}

#[test]
fn bibtex_structure() {
    run_cases("bibtex", |rng| {
        let authors = rng.random_range(1..4);
        let cfg = bibtex::BibtexConfig {
            n_refs: rng.random_range(1..30),
            seed: rng.random_range(0..500) as u64,
            authors_per_ref: (authors.min(2), authors),
            editors_per_ref: (0, rng.random_range(0..3)),
            ..Default::default()
        };
        let (text, truth) = bibtex::generate(&cfg);
        assert_eq!(truth.refs.len(), cfg.n_refs, "{cfg:?}");
        (format!("{cfg:?}"), text, bibtex::schema())
    });
}

#[test]
fn mail_structure() {
    run_cases("mail", |rng| {
        let cfg = mail::MailConfig {
            n_messages: rng.random_range(1..25),
            seed: rng.random_range(0..500) as u64,
            ..Default::default()
        };
        (format!("{cfg:?}"), mail::generate(&cfg).0, mail::schema())
    });
}

#[test]
fn logs_structure() {
    run_cases("logs", |rng| {
        let cfg = logs::LogConfig {
            n_sessions: rng.random_range(1..25),
            seed: rng.random_range(0..500) as u64,
            error_percent: rng.random_range(0..60) as u32,
            ..Default::default()
        };
        (format!("{cfg:?}"), logs::generate(&cfg).0, logs::schema())
    });
}

#[test]
fn sgml_structure() {
    run_cases("sgml", |rng| {
        let cfg = sgml::SgmlConfig {
            top_sections: rng.random_range(1..5),
            max_depth: rng.random_range(1..5),
            seed: rng.random_range(0..500) as u64,
            ..Default::default()
        };
        (format!("{cfg:?}"), sgml::generate(&cfg).0, sgml::schema())
    });
}

#[test]
fn code_structure() {
    run_cases("code", |rng| {
        let cfg = code::CodeConfig {
            n_functions: rng.random_range(1..25),
            seed: rng.random_range(0..500) as u64,
            if_percent: rng.random_range(0..70) as u32,
            ..Default::default()
        };
        (format!("{cfg:?}"), code::generate(&cfg).0, code::schema())
    });
}
