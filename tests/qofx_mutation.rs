//! Seeded mutation loop over `.qofx` files whose checksum still holds.
//! Each case overwrites 1–3 bytes of one target in a persisted database —
//! the corpus (CORP), word-index (WORD), region (REGN) or index-spec
//! (SPEC) section, or the header outside its checksum field (magic,
//! version, flags and the section table) — and recomputes the header
//! checksum, so the structural decoders — not the checksum — must catch
//! what is wrong. `FileDatabase::open` must return `Ok` or a typed `QofxError`;
//! a database it does open must answer a fixed query list without a
//! panic (a typed query error is fine). The list includes partial-index
//! projections whose candidate parses stop at the last kept field.
//!
//! Every case runs on its own seed drawn from a fixed `StdRng` stream; a
//! failure prints the case's seed.
//!
//! Crafted cases follow: a checksum-valid WORD section whose posting list
//! disagrees with itself must not open, nor may a checksum-valid header
//! with a flag bit set (no flag is defined) or a non-zero reserved word,
//! and an opened database reads nothing more from its file.

use std::panic::{catch_unwind, AssertUnwindSafe};

use qof::corpus::bibtex::{self, BibtexConfig};
use qof::corpus::{Rng, StdRng};
use qof::grammar::IndexSpec;
use qof::pat::fnv1a64;
use qof::text::varint::decode_u64;
use qof::text::Corpus;
use qof::{FileDatabase, QofxError};

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

/// Recomputes the header checksum of `file` after an edit.
fn reseal(file: &mut [u8]) {
    file[16..24].fill(0);
    let checksum = fnv1a64(file);
    file[16..24].copy_from_slice(&checksum.to_le_bytes());
}

/// Mutates 1–3 bytes of one section, or of the header outside the
/// checksum field (bytes 16..24), and reseals the file with a valid
/// checksum.
fn mutate(clean: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut file = clean.to_vec();
    let target = rng.random_range(0..5);
    for _ in 0..rng.random_range(1..4) {
        let at = match target {
            4 => match rng.random_range(0..80) {
                at @ 0..16 => at,
                at => at + 8,
            },
            i => rng.random_range(section(clean, i)),
        };
        file[at] = match rng.random_range(0..3) {
            0 => file[at] ^ (1 << rng.random_range(0..8)),
            1 => file[at].wrapping_add(rng.random_range(1..4) as u8),
            _ => rng.random_range(0..256) as u8,
        };
    }
    reseal(&mut file);
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

/// Where `word`'s entry lies in the WORD section of an unscoped index: the
/// file offset of its dictionary count and of its posting list, whose
/// wire form starts with the list's own count.
fn locate(file: &[u8], word: &str) -> (usize, usize) {
    let words = section(file, 1);
    let buf = &file[words.clone()];
    assert_eq!(buf[0], 0, "an unscoped index");
    let at = &mut 1;
    let mut found = None;
    let mut offset = 0;
    for _ in 0..decode_u64(buf, at).unwrap() {
        let len = decode_u64(buf, at).unwrap() as usize;
        let this = &buf[*at..*at + len];
        *at += len;
        let count_at = *at;
        decode_u64(buf, at).unwrap();
        if this == word.as_bytes() {
            found = Some((count_at, offset));
        }
        offset += decode_u64(buf, at).unwrap() as usize;
    }
    decode_u64(buf, at).unwrap(); // the blob length
    let (count_at, list_at) = found.unwrap_or_else(|| panic!("`{word}` is indexed"));
    (words.start + count_at, words.start + *at + list_at)
}

/// Adds one to the varint at `at` (its low seven bits are not all set,
/// so its length stays).
fn bump(file: &mut [u8], at: usize) {
    assert_ne!(file[at] & 0x7f, 0x7f);
    file[at] += 1;
}

#[test]
fn checksum_valid_word_lists_that_disagree_with_themselves_do_not_open() {
    let text = bibtex::generate(&BibtexConfig { n_refs: 12, name_pool: 8, ..Default::default() }).0;
    let db =
        FileDatabase::build(Corpus::from_text(&text), bibtex::schema(), IndexSpec::full()).unwrap();
    let path = std::env::temp_dir().join(format!("qof-word-craft-{}.qofx", std::process::id()));
    db.persist(&path).unwrap();
    let clean = std::fs::read(&path).unwrap();
    let (count_at, list_at) = locate(&clean, "Chang");
    let mut crafted: Vec<(&str, Vec<u8>)> = Vec::new();
    // The list's own count, one more than the postings it holds.
    let mut file = clean.clone();
    bump(&mut file, list_at);
    crafted.push(("list count", file));
    // The dictionary's count of the word, one more than its list's.
    let mut file = clean.clone();
    bump(&mut file, count_at);
    crafted.push(("dictionary count", file));
    // The first gap of the list set to zero: two equal postings.
    let mut file = clean.clone();
    let at = &mut list_at.clone();
    decode_u64(&file, at).unwrap(); // count
    assert_eq!(decode_u64(&file, at), Some(1), "one block");
    decode_u64(&file, at).unwrap(); // first posting
    decode_u64(&file, at).unwrap(); // payload length
    file[*at] = 0;
    crafted.push(("zero gap", file));
    for (what, mut file) in crafted {
        reseal(&mut file);
        std::fs::write(&path, &file).unwrap();
        match FileDatabase::open(&path, bibtex::schema()) {
            Err(QofxError::Corrupt(why)) => assert!(why.contains("Chang"), "{what}: {why}"),
            Err(e) => panic!("{what}: {e}"),
            Ok(_) => panic!("{what}: a corrupt posting list opened"),
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Persists a small database, sets the header word at byte `at` to each of
/// `values` in turn, reseals the checksum, and asserts that `open` and
/// `inspect` both reject the file as corrupt.
fn assert_header_word_rejected(at: usize, values: [u32; 2], what: &str) {
    let text = bibtex::generate(&BibtexConfig { n_refs: 12, name_pool: 8, ..Default::default() }).0;
    let db =
        FileDatabase::build(Corpus::from_text(&text), bibtex::schema(), IndexSpec::full()).unwrap();
    let path = std::env::temp_dir().join(format!("qof-{what}-{}.qofx", std::process::id()));
    db.persist(&path).unwrap();
    let clean = std::fs::read(&path).unwrap();
    assert_eq!(clean[at..at + 4], [0; 4], "persist writes {what} 0");
    for value in values {
        let mut file = clean.clone();
        file[at..at + 4].copy_from_slice(&value.to_le_bytes());
        reseal(&mut file);
        std::fs::write(&path, &file).unwrap();
        match FileDatabase::open(&path, bibtex::schema()) {
            Err(QofxError::Corrupt(_)) => {}
            Err(e) => panic!("{what} {value}: open failed with {e}, not as corrupt"),
            Ok(_) => panic!("{what} {value}: the file opened"),
        }
        match qof::inspect_qofx(&path) {
            Err(QofxError::Corrupt(_)) => {}
            Err(e) => panic!("{what} {value}: inspect failed with {e}, not as corrupt"),
            Ok(_) => panic!("{what} {value}: inspect accepted the file"),
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn checksum_valid_files_with_header_flags_set_do_not_open() {
    assert_header_word_rejected(8, [1, 2], "flags");
}

#[test]
fn checksum_valid_files_with_the_reserved_word_set_do_not_open() {
    assert_header_word_rejected(12, [7, 1 << 31], "reserved");
}

#[test]
fn rewriting_the_file_after_open_changes_no_answer() {
    let cfg = |seed| BibtexConfig { n_refs: 12, name_pool: 8, seed, ..Default::default() };
    let build = |seed| {
        let text = bibtex::generate(&cfg(seed)).0;
        FileDatabase::build(Corpus::from_text(&text), bibtex::schema(), IndexSpec::full()).unwrap()
    };
    let (db, other) = (build(1), build(2));
    let path = std::env::temp_dir().join(format!("qof-rewrite-{}.qofx", std::process::id()));
    other.persist(&path).unwrap();
    let other_file = std::fs::read(&path).unwrap();
    db.persist(&path).unwrap();
    let opened = FileDatabase::open(&path, bibtex::schema()).unwrap();
    std::fs::write(&path, other_file).unwrap();
    for q in QUERIES {
        let (want, got) = (db.query(q).unwrap(), opened.query(q).unwrap());
        assert_eq!(want.regions, got.regions, "{q}");
        assert_eq!(want.values, got.values, "{q}");
    }
    std::fs::remove_file(&path).ok();
}
