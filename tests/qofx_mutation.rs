//! Seeded mutation loop over `.qofx` files whose checksum still holds.
//! Each case overwrites 1–3 bytes of the region (REGN) or corpus (CORP)
//! section of a persisted database and recomputes the header checksum,
//! so the structural decoders — not the checksum — must catch what is
//! wrong. `FileDatabase::open` must return `Ok` or a typed `QofxError`;
//! a database it does open must answer a fixed query list without a
//! panic (a typed query error is fine). The list includes partial-index
//! projections whose candidate parses stop at the last kept field.
//!
//! Every case runs on its own seed drawn from a fixed `StdRng` stream; a
//! failure prints the case's seed.

use std::panic::{catch_unwind, AssertUnwindSafe};

use qof::corpus::bibtex::{self, BibtexConfig};
use qof::corpus::{Rng, StdRng};
use qof::grammar::IndexSpec;
use qof::pat::fnv1a64;
use qof::text::Corpus;
use qof::FileDatabase;

/// Cases per persisted database.
const CASES: usize = 150;

const QUERIES: [&str; 8] = [
    "SELECT r FROM References r",
    "SELECT r.Key FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\"",
    "SELECT r.Authors FROM References r WHERE r.Year = \"1982\"",
    "SELECT r.Key FROM References r",
    "SELECT r.Year FROM References r WHERE r.*X.Last_Name = \"Chang\"",
    "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"Milo\" AND r.Year = \"1990\"",
    "SELECT r FROM References r WHERE r.Editors.Name.Last_Name = r.Authors.Name.Last_Name",
    "SELECT r.Authors.Name.Last_Name FROM References r WHERE NOT r.Year = \"1975\"",
];

/// The byte range of header section `i` (0 CORP, 1 WORD, 2 REGN, 3 SPEC).
fn section(file: &[u8], i: usize) -> std::ops::Range<usize> {
    let field = |at: usize| u64::from_le_bytes(file[at..at + 8].try_into().unwrap()) as usize;
    let (offset, len) = (field(24 + 16 * i), field(32 + 16 * i));
    offset..offset + len
}

/// Mutates 1–3 bytes of the REGN or CORP section and reseals the file
/// with a valid checksum.
fn mutate(clean: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut file = clean.to_vec();
    let target = section(&file, if rng.random_range(0..2) == 0 { 2 } else { 0 });
    for _ in 0..rng.random_range(1..4) {
        let at = rng.random_range(target.clone());
        file[at] = match rng.random_range(0..3) {
            0 => file[at] ^ (1 << rng.random_range(0..8)),
            1 => file[at].wrapping_add(rng.random_range(1..4) as u8),
            _ => rng.random_range(0..256) as u8,
        };
    }
    file[16..24].fill(0);
    let checksum = fnv1a64(&file);
    file[16..24].copy_from_slice(&checksum.to_le_bytes());
    file
}

/// Opens `file` and runs the query list: `Err` only on a panic.
fn survives(path: &std::path::Path, file: &[u8]) -> Result<bool, String> {
    std::fs::write(path, file).unwrap();
    let opened = catch_unwind(|| FileDatabase::open(path, bibtex::schema()))
        .map_err(|_| "open panicked".to_owned())?;
    let Ok(db) = opened else { return Ok(false) };
    for q in QUERIES {
        // A typed query error is an answer too; only a panic fails.
        let _ =
            catch_unwind(AssertUnwindSafe(|| db.query(q))).map_err(|_| format!("{q} panicked"))?;
    }
    Ok(true)
}

#[test]
fn mutated_region_and_corpus_sections_never_panic() {
    let text = bibtex::generate(&BibtexConfig { n_refs: 12, name_pool: 8, ..Default::default() }).0;
    let mut seeds = StdRng::seed_from_u64(0x90f3_a11e);
    let mut opened = 0;
    for (tag, spec) in
        [("full", IndexSpec::full()), ("partial", IndexSpec::names(["Reference", "Last_Name"]))]
    {
        let db = FileDatabase::build(Corpus::from_text(&text), bibtex::schema(), spec).unwrap();
        let path =
            std::env::temp_dir().join(format!("qof-mutation-{}-{tag}.qofx", std::process::id()));
        db.persist(&path).unwrap();
        let clean = std::fs::read(&path).unwrap();
        assert_eq!(survives(&path, &clean), Ok(true), "the clean {tag} file opens");
        for i in 0..CASES {
            let seed = seeds.next_u64();
            let file = mutate(&clean, &mut StdRng::seed_from_u64(seed));
            match survives(&path, &file) {
                Ok(true) => opened += 1,
                Ok(false) => {}
                Err(why) => panic!("{tag} index, case {i} (seed {seed:#x}): {why}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }
    assert!(opened >= CASES / 10, "only {opened} mutated files opened");
}
