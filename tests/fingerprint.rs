//! Cross-process fingerprint determinism: the workload fingerprint is the
//! join key between live `/workload` aggregation, qlog lines, trace JSON
//! and `qof stats --workload` — a hash that changes per process (the
//! `DefaultHasher`/`RandomState` failure mode) would silently break every
//! cross-check. Two separate `qof` processes and an in-process plan must
//! all agree on the fingerprint of the same query.

mod common;

use std::path::PathBuf;
use std::process::Command;

use common::json::{get_arr, get_str, get_u64, Json};
use qof::corpus::bibtex;
use qof::grammar::IndexSpec;
use qof::text::Corpus;
use qof::FileDatabase;

const CHANG: &str = "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\"";

/// Extracts the fixed 16-hex fingerprint field from trace JSON.
fn fingerprint_of(trace_json: &str) -> String {
    let tail = trace_json.split("\"fingerprint\":\"").nth(1).expect("fingerprint field");
    tail.chars().take_while(|c| *c != '"').collect()
}

#[test]
fn fingerprints_agree_across_separate_processes() {
    let dir = std::env::temp_dir().join(format!("qof-fp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let corpus_path = dir.join("refs.bib");
    let (text, _) = bibtex::generate(&bibtex::BibtexConfig::with_refs(20));
    std::fs::write(&corpus_path, &text).unwrap();

    let run = |tag: &str| -> String {
        let trace_path: PathBuf = dir.join(format!("trace-{tag}.json"));
        let out = Command::new(env!("CARGO_BIN_EXE_qof"))
            .args([
                "query",
                "bibtex",
                "--trace-json",
                trace_path.to_str().unwrap(),
                corpus_path.to_str().unwrap(),
                CHANG,
            ])
            .output()
            .expect("qof binary runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        fingerprint_of(&std::fs::read_to_string(&trace_path).unwrap())
    };

    let first = run("a");
    let second = run("b");
    assert_eq!(first, second, "two separate processes must agree");
    assert_ne!(first, "0000000000000000", "a planned chain query has a fingerprint");

    // And the value is the one this (third) process computes for the same
    // plan — the fingerprint is a pure function of the query shape.
    let db =
        FileDatabase::build(Corpus::from_text(&text), bibtex::schema(), IndexSpec::full()).unwrap();
    let plan = db.plan(CHANG).unwrap();
    assert_eq!(first, format!("{:016x}", plan.fingerprint));

    // `qof stats --workload --json`, the workload table outside the
    // server, serves the `/workload` envelope keyed by the same value.
    let out = Command::new(env!("CARGO_BIN_EXE_qof"))
        .args(["stats", "bibtex", "--workload", "--json", corpus_path.to_str().unwrap(), CHANG])
        .output()
        .expect("qof binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let doc = Json::parse(String::from_utf8(out.stdout).unwrap().trim()).unwrap();
    let doc = doc.as_obj().unwrap();
    assert_eq!(get_u64(doc, "schema_version").unwrap(), 5);
    let entries = get_arr(doc, "entries").unwrap();
    assert_eq!(entries.len(), 1, "{entries:?}");
    assert_eq!(get_str(entries[0].as_obj().unwrap(), "fingerprint").unwrap(), first);

    std::fs::remove_dir_all(&dir).unwrap();
}
