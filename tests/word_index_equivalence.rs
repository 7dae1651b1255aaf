//! Word-index equivalence: the word scanner and the shared posting push of
//! `WordIndex::build` and `append_span` must index exactly what a plain
//! build indexes — words split by a `char` predicate and a map `entry` per
//! posting.
//!
//! The indexes are compared on all five generated corpora, over the whole
//! text and under a §7 word scope, built in one go from the first file and
//! then extended file by file. The scanner is compared on seeded random
//! strings that mix ASCII letters, punctuation and multi-byte UTF-8, and on
//! words placed around its 64-byte block edges, each at a non-zero base.
//! A corpus built to defeat the index's verified word cache (thousands of
//! distinct words of one length sharing their first eight bytes, more
//! words than cache slots) must index exactly what the reference indexes.

use std::collections::BTreeMap;

use qof::corpus::{bibtex, code, logs, mail, sgml, Rng, StdRng};
use qof::grammar::{IndexSpec, StructuringSchema};
use qof::pat::Region;
use qof::text::{words, Corpus, CorpusBuilder, Pos, Span, WordIndex, WordIndexBuilder};
use qof::FileDatabase;

/// One generated corpus: its files, schema and a region name to scope the
/// word index to.
struct Case {
    name: &'static str,
    files: Vec<String>,
    schema: StructuringSchema,
    scope: &'static str,
}

/// Three files of one generator, on seeds 1 to 3.
fn files(generate: impl Fn(u64) -> String) -> Vec<String> {
    (1..=3).map(generate).collect()
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "bibtex",
            files: files(|seed| {
                bibtex::generate(&bibtex::BibtexConfig { n_refs: 12, seed, ..Default::default() }).0
            }),
            schema: bibtex::schema(),
            scope: "Authors",
        },
        Case {
            name: "mail",
            files: files(|seed| {
                mail::generate(&mail::MailConfig { n_messages: 6, seed, ..Default::default() }).0
            }),
            schema: mail::schema(),
            scope: "Recipients",
        },
        Case {
            name: "logs",
            files: files(|seed| {
                logs::generate(&logs::LogConfig { n_sessions: 6, seed, ..Default::default() }).0
            }),
            schema: logs::schema(),
            scope: "Requests",
        },
        Case {
            name: "sgml",
            files: files(|seed| {
                sgml::generate(&sgml::SgmlConfig { top_sections: 3, seed, ..Default::default() }).0
            }),
            schema: sgml::schema(),
            scope: "Subsections",
        },
        Case {
            name: "code",
            files: files(|seed| {
                code::generate(&code::CodeConfig { n_functions: 6, seed, ..Default::default() }).0
            }),
            schema: code::schema(),
            scope: "If",
        },
    ]
}

/// The `(start, end)` byte offsets of the maximal runs of ASCII
/// alphanumerics in `text`, found `char` by `char`.
fn reference_tokens(text: &str) -> Vec<(usize, usize)> {
    let is_word = |c: char| c.is_ascii_alphanumeric();
    let mut tokens = Vec::new();
    let mut start = None;
    for (at, c) in text.char_indices() {
        match (is_word(c), start) {
            (true, None) => start = Some(at),
            (false, Some(s)) => {
                tokens.push((s, at));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        tokens.push((s, text.len()));
    }
    tokens
}

/// The word index of `corpus` built the plain way: the start of every token
/// inside some `scope` span (every token, without a scope) is pushed
/// through `entry`.
fn reference_index(corpus: &Corpus, scope: Option<&[Span]>) -> BTreeMap<String, Vec<Pos>> {
    let covered = |start: Pos, end: Pos| {
        scope.is_none_or(|spans| spans.iter().any(|s| s.start <= start && end <= s.end))
    };
    let mut map: BTreeMap<String, Vec<Pos>> = BTreeMap::new();
    for (start, end) in reference_tokens(corpus.text()) {
        let (start_pos, end_pos) = (start as Pos, end as Pos);
        if covered(start_pos, end_pos) {
            map.entry(corpus.text()[start..end].to_owned()).or_default().push(start_pos);
        }
    }
    map
}

fn assert_same(case: &str, index: &WordIndex, reference: &BTreeMap<String, Vec<Pos>>) {
    let got: BTreeMap<String, Vec<Pos>> =
        index.iter().map(|(w, p)| (w.to_owned(), p.to_vec())).collect();
    assert_eq!(got.len(), reference.len(), "{case}: distinct words");
    for (word, positions) in reference {
        assert_eq!(got.get(word), Some(positions), "{case}: postings of `{word}`");
    }
    assert_eq!(index.postings(), reference.values().map(Vec::len).sum::<usize>(), "{case}");
}

fn region_spans(db: &FileDatabase, name: &str) -> Vec<Span> {
    let set = db.instance().get(name).unwrap_or_else(|| panic!("no regions named {name}"));
    let spans: Vec<Span> = set.iter().map(Region::span).collect();
    assert!(!spans.is_empty(), "{name}: an empty scope tests nothing");
    spans
}

/// The spans of `spans` that lie inside `outer`.
fn inside(spans: &[Span], outer: &Span) -> Vec<Span> {
    spans.iter().filter(|s| outer.start <= s.start && s.end <= outer.end).cloned().collect()
}

/// Builds the word index of `files` in one go from the first file, then
/// extends it file by file, and also over the whole text at once, with and
/// without a word scope of `scope_spans`; each must index what the
/// reference indexes.
fn check_build_then_append(name: &str, files: &[String], scope_spans: &[Span]) {
    let mut all = CorpusBuilder::new();
    for (i, text) in files.iter().enumerate() {
        all.add_file(format!("f{i}"), text);
    }
    let all = all.build();
    for scope in [None, Some(scope_spans)] {
        let label = format!("{name} scoped={}", scope.is_some());
        // Build over the first file, then append the others one by one,
        // growing the scope by each file's spans first.
        let mut corpus = Corpus::from_text(&files[0]);
        let mut builder = WordIndexBuilder::new();
        if let Some(spans) = scope {
            builder = builder.scoped_to(inside(spans, &(0..corpus.len())));
        }
        let mut index = builder.build(&corpus);
        for (i, text) in files.iter().enumerate().skip(1) {
            let id = corpus.push_file(format!("f{i}"), text);
            let span = corpus.file(id).unwrap().span.clone();
            if let Some(spans) = scope {
                index.extend_scope(inside(spans, &span));
            }
            index.append_span(&corpus, span);
        }
        assert_eq!(corpus.text(), all.text(), "{label}: corpus offsets");
        assert_same(&label, &index, &reference_index(&all, scope));
        // Building over the whole text at once agrees as well.
        let mut whole = WordIndexBuilder::new();
        if let Some(spans) = scope {
            whole = whole.scoped_to(spans.to_vec());
        }
        assert_same(&label, &whole.build(&all), &reference_index(&all, scope));
    }
}

#[test]
fn build_then_append_matches_the_reference_on_every_corpus() {
    for case in cases() {
        let mut all = CorpusBuilder::new();
        for (i, text) in case.files.iter().enumerate() {
            all.add_file(format!("f{i}"), text);
        }
        let db = FileDatabase::build(all.build(), case.schema.clone(), IndexSpec::full()).unwrap();
        check_build_then_append(case.name, &case.files, &region_spans(&db, case.scope));
    }
}

#[test]
fn build_and_add_file_match_the_reference_through_the_database() {
    for case in cases() {
        for spec in [IndexSpec::full(), IndexSpec::full().with_word_scope(case.scope)] {
            let label = format!("{} scope={:?}", case.name, spec.word_scope());
            let mut db =
                FileDatabase::build(Corpus::from_text(&case.files[0]), case.schema.clone(), spec)
                    .unwrap();
            for (i, text) in case.files.iter().enumerate().skip(1) {
                db.add_file(format!("f{i}"), text).unwrap();
            }
            let scope = db.index_spec().word_scope().map(|name| region_spans(&db, name));
            let reference = reference_index(db.corpus(), scope.as_deref());
            assert_same(&label, db.word_index(), &reference);
        }
    }
}

/// A random string of ASCII letters and digits, punctuation, whitespace
/// and two-, three- and four-byte UTF-8 characters.
fn random_text(rng: &mut StdRng) -> String {
    const PIECES: &[&str] = &[
        "a",
        "Z",
        "q",
        "7",
        "0",
        "-",
        "_",
        "'",
        " ",
        ",",
        ".",
        "\n",
        "\t",
        "é",
        "ü",
        "\u{80}",
        "\u{9000}",
        "€",
        "\u{1F600}",
        "ÿ",
    ];
    let len = rng.random_range(0..48);
    (0..len).map(|_| PIECES[rng.random_range(0..PIECES.len())]).collect()
}

#[test]
fn tokenizer_matches_a_char_predicate_on_random_text() {
    let mut seeds = StdRng::seed_from_u64(0x70ce_17e5);
    for _ in 0..4000 {
        let seed = seeds.next_u64();
        let text = random_text(&mut StdRng::seed_from_u64(seed));
        let base = 1000;
        let got: Vec<(usize, usize, &str)> = words(&text, base)
            .map(|t| ((t.span.start - base) as usize, (t.span.end - base) as usize, t.text))
            .collect();
        let want: Vec<(usize, usize, &str)> =
            reference_tokens(&text).into_iter().map(|(s, e)| (s, e, &text[s..e])).collect();
        assert_eq!(got, want, "seed {seed:#x}, text {text:?}");
    }
}

/// Checks `words` on `text` at a non-zero `base`, and the word index of a
/// corpus that holds `text` as its second file (so it is indexed at a
/// non-zero base too), against the reference.
fn check_text(text: &str, what: &str) {
    let base = 1000;
    let got: Vec<(usize, usize, &str)> = words(text, base)
        .map(|t| ((t.span.start - base) as usize, (t.span.end - base) as usize, t.text))
        .collect();
    let want: Vec<(usize, usize, &str)> =
        reference_tokens(text).into_iter().map(|(s, e)| (s, e, &text[s..e])).collect();
    assert_eq!(got, want, "{what}: text {text:?}");
    let mut corpus = Corpus::from_text("lead in\n");
    let mut index = WordIndex::build(&corpus);
    let id = corpus.push_file("text", text);
    index.append_span(&corpus, corpus.file(id).unwrap().span.clone());
    assert_same(what, &index, &reference_index(&corpus, None));
}

#[test]
fn scanner_matches_a_char_predicate_across_block_edges() {
    // A word of every length that matters at every offset around the
    // first two 64-byte block edges: starting, ending or lying exactly on
    // an edge, longer than a block, and running to the end of the text.
    for pad in ["-", "é"] {
        for lead in 0..140 {
            for len in [1, 2, 7, 8, 9, 63, 64, 65, 130] {
                let word: String = (0..len).map(|i| ["x", "7", "Q"][i % 3]).collect();
                let text = format!("{}{word}", pad.repeat(lead));
                check_text(&text, &format!("pad {pad:?} × {lead}, word of {len}, at the end"));
                check_text(&format!("{text}-"), &format!("pad {pad:?} × {lead}, word of {len}"));
                check_text(&format!("{text} ab"), &format!("pad {pad:?} × {lead}, two words"));
            }
        }
    }
    // Texts with no word at all, of and around block lengths.
    for len in [0, 1, 63, 64, 65, 128, 200] {
        check_text(&"-".repeat(len), "no word");
        check_text(&"\u{9000}".repeat(len), "no word, multi-byte");
    }
    // Seeded texts of several blocks: the random pieces plus runs longer
    // than a block.
    let mut seeds = StdRng::seed_from_u64(0xb10c_ed9e);
    for _ in 0..300 {
        let seed = seeds.next_u64();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut text = String::new();
        while text.len() < 300 {
            text.push_str(&random_text(&mut rng));
            if rng.random_range(0..4) == 0 {
                text.push_str(&"w".repeat(rng.random_range(60..140)));
            }
        }
        check_text(&text, &format!("seed {seed:#x}"));
    }
}

/// Files of words built to defeat the index's word cache: thousands of
/// distinct 12-byte words that share their first eight bytes, far more
/// words than the cache has slots (so many share one), and runs that take
/// turns between a few such words, each evicting the other. Shorter words
/// that are prefixes of the long ones, and lines of them, mix in.
fn cache_defeating_files() -> Vec<String> {
    const ALNUM: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
    let mut rng = StdRng::seed_from_u64(0xdefe_a7ed);
    let word = |rng: &mut StdRng| {
        let tail: String =
            (0..4).map(|_| char::from(ALNUM[rng.random_range(0..ALNUM.len())])).collect();
        format!("Prefixed{tail}")
    };
    let pool: Vec<String> = (0..12_000).map(|_| word(&mut rng)).collect();
    (0..3)
        .map(|_| {
            let mut text = String::new();
            for line in 0..900 {
                for _ in 0..6 {
                    let w = &pool[rng.random_range(0..pool.len())];
                    match rng.random_range(0..8) {
                        0 => text.push_str(&w[..rng.random_range(1..w.len())]),
                        _ => text.push_str(w),
                    }
                    text.push(' ');
                }
                if line % 7 == 0 {
                    let (a, b) = (&pool[rng.random_range(0..64)], &pool[rng.random_range(0..64)]);
                    for _ in 0..4 {
                        text.push_str(&format!("{a} {b} "));
                    }
                }
                text.push('\n');
            }
            text
        })
        .collect()
}

#[test]
fn cache_defeating_words_index_what_the_reference_indexes() {
    let files = cache_defeating_files();
    // The word scope: every third line of the corpus text, which joins
    // the files with a newline.
    let whole = files.join("\n");
    let mut scope = Vec::new();
    let mut at: Pos = 0;
    for (i, line) in whole.split_inclusive('\n').enumerate() {
        let end = at + line.len() as Pos;
        if i % 3 == 0 {
            scope.push(at..end);
        }
        at = end;
    }
    check_build_then_append("cache-defeating", &files, &scope);
}
