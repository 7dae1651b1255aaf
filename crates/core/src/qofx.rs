//! The `.qofx` persistent index container.
//!
//! A database built once with [`FileDatabase::build`](crate::FileDatabase::build)
//! can be written to a single `.qofx` file and reopened later without
//! re-parsing or re-tokenizing anything — the server's O(1)-start path.
//! The file carries everything the build phase produced *except* the
//! structuring schema (supplied by name at open, exactly as at build):
//!
//! ```text
//! offset  size  field
//! 0       4     magic "QOFX"
//! 4       4     format version (u32 LE, currently 1)
//! 8       4     flags (u32 LE; must be 0)
//! 12      4     reserved (must be 0)
//! 16      8     FNV-1a 64 checksum of the whole file, this field zeroed
//! 24      16    CORP section offset + length (u64 LE each)
//! 40      16    WORD section offset + length
//! 56      16    REGN section offset + length
//! 72      16    SPEC section offset + length
//! 88      —     section payloads, contiguous, in the order above
//! ```
//!
//! * **CORP** — the file table (names + spans) and the global text,
//!   byte-exact, so reopened offsets mean what built offsets meant.
//! * **WORD** — the word index: scope spans, the dictionary sorted by
//!   word (word, count, byte length of its list), then one blob of the
//!   posting lists. A list is delta-coded in blocks of 128 postings: its
//!   count, its block count, per block the first posting (as a gap from
//!   the previous block's) and the payload length, then the payloads of
//!   varint gaps. Open decodes and checks every list into the same
//!   [`WordIndex`] that `build` makes.
//! * **REGN** — every region name's set, delta-coded: per region a varint
//!   start gap (starts are non-decreasing in canonical order) and a
//!   varint length.
//! * **SPEC** — the [`IndexSpec`] the database was built with, so a
//!   reopened database plans against the same partial-index contract.
//!
//! Corruption anywhere — a flipped bit, a truncated tail — fails the
//! checksum before any section is parsed; the structural decoders behind
//! it are still fully defensive, so even a file that collides on the
//! checksum is rejected rather than trusted. Open reads the file once and
//! decodes every section from that buffer; nothing is read from the file
//! afterwards.

use qof_grammar::IndexSpec;
use qof_pat::{fnv1a64, Instance, Region, RegionSet};
use qof_text::varint::{decode_u32, decode_u64, encode_u32, encode_u64};
use qof_text::{Corpus, FileEntry, Pos, Span, WordIndex};
use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

/// The four magic bytes every `.qofx` file starts with.
pub const QOFX_MAGIC: [u8; 4] = *b"QOFX";

/// The current (and only) on-disk format version.
pub const QOFX_VERSION: u32 = 1;

const HEADER_LEN: usize = 88;

/// Postings per block of a WORD-section posting list.
const BLOCK_LEN: usize = 128;

/// Why a `.qofx` file could not be opened.
#[derive(Debug)]
pub enum QofxError {
    /// The file could not be read (or written) at all.
    Io(io::Error),
    /// The first four bytes are not `QOFX` — not an index file.
    BadMagic,
    /// The file is a `.qofx` of a format version this build cannot read.
    UnsupportedVersion(u32),
    /// The stored checksum does not match the file's contents.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        stored: u64,
        /// Checksum recomputed over the file as read.
        actual: u64,
    },
    /// The file ends before its own header or sections do.
    Truncated,
    /// A section is structurally malformed (with a description of how).
    Corrupt(String),
}

impl fmt::Display for QofxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QofxError::Io(e) => write!(f, "index file I/O error: {e}"),
            QofxError::BadMagic => write!(f, "not a .qofx index file (bad magic)"),
            QofxError::UnsupportedVersion(v) => {
                write!(f, "unsupported .qofx format version {v} (this build reads {QOFX_VERSION})")
            }
            QofxError::ChecksumMismatch { stored, actual } => write!(
                f,
                "index file corrupt: checksum mismatch (header {stored:#018x}, file {actual:#018x})"
            ),
            QofxError::Truncated => write!(f, "index file corrupt: truncated"),
            QofxError::Corrupt(what) => write!(f, "index file corrupt: {what}"),
        }
    }
}

impl std::error::Error for QofxError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QofxError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for QofxError {
    fn from(e: io::Error) -> Self {
        QofxError::Io(e)
    }
}

// The checksum is [`fnv1a64`]: FNV-1a 64 widened to 8-byte lanes, so the
// open-path digest runs at memory speed instead of a byte per multiply.
// Each step is `h = (h ^ chunk) * prime` with an odd prime — a bijection
// in the chunk, so any single flipped bit anywhere in the file is
// guaranteed (not just likely) to change the digest, same as classic
// byte-wise FNV-1a. Not cryptographic: it guards against bit rot and
// truncation, not adversaries. The same helper fingerprints query shapes
// (workload analytics), so the spelling lives in `qof_pat` alone.

/// Everything a `.qofx` file reconstructs.
pub(crate) struct QofxContents {
    pub corpus: Corpus,
    pub words: WordIndex,
    pub instance: Instance,
    pub spec: IndexSpec,
}

// -- encoding ---------------------------------------------------------------

fn encode_corpus(corpus: &Corpus, out: &mut Vec<u8>) {
    encode_u64(corpus.files().len() as u64, out);
    for f in corpus.files() {
        encode_u64(f.name.len() as u64, out);
        out.extend_from_slice(f.name.as_bytes());
        encode_u32(f.span.start, out);
        encode_u32(f.span.end, out);
    }
    let text = corpus.text();
    encode_u64(text.len() as u64, out);
    out.extend_from_slice(text.as_bytes());
}

/// Appends one posting list in its wire form: count, block count, per
/// block the first posting's gap from the previous block's first and the
/// payload length, then the payloads (the gaps inside each block).
fn encode_list(postings: &[Pos], out: &mut Vec<u8>) {
    let mut payload = Vec::new();
    let mut dir = Vec::with_capacity(postings.len().div_ceil(BLOCK_LEN));
    for block in postings.chunks(BLOCK_LEN) {
        let start = payload.len();
        for pair in block.windows(2) {
            encode_u32(pair[1] - pair[0], &mut payload);
        }
        dir.push((block[0], payload.len() - start));
    }
    encode_u64(postings.len() as u64, out);
    encode_u64(dir.len() as u64, out);
    let mut prev_first = 0;
    for (first, len) in dir {
        encode_u32(first - prev_first, out);
        encode_u64(len as u64, out);
        prev_first = first;
    }
    out.extend_from_slice(&payload);
}

fn encode_words(words: &WordIndex, out: &mut Vec<u8>) {
    match words.scope() {
        None => out.push(0),
        Some(spans) => {
            out.push(1);
            encode_u64(spans.len() as u64, out);
            for s in spans {
                encode_u32(s.start, out);
                encode_u32(s.end, out);
            }
        }
    }
    let mut lists: Vec<(&str, &[Pos])> = words.iter().collect();
    lists.sort_unstable_by_key(|&(word, _)| word);
    encode_u64(lists.len() as u64, out);
    let mut blob = Vec::new();
    for (word, positions) in lists {
        let start = blob.len();
        encode_list(positions, &mut blob);
        encode_u64(word.len() as u64, out);
        out.extend_from_slice(word.as_bytes());
        encode_u64(positions.len() as u64, out);
        encode_u32((blob.len() - start) as u32, out);
    }
    encode_u64(blob.len() as u64, out);
    out.extend_from_slice(&blob);
}

fn encode_regions(instance: &Instance, out: &mut Vec<u8>) {
    encode_u64(instance.name_count() as u64, out);
    for (name, set) in instance.iter() {
        encode_u64(name.len() as u64, out);
        out.extend_from_slice(name.as_bytes());
        encode_u64(set.len() as u64, out);
        let mut prev_start: Pos = 0;
        for r in set {
            // Canonical region order is ascending start (descending end at
            // ties), so start gaps are non-negative and small.
            encode_u32(r.start - prev_start, out);
            encode_u32(r.end - r.start, out);
            prev_start = r.start;
        }
    }
}

fn encode_spec(spec: &IndexSpec, out: &mut Vec<u8>) {
    out.push(u8::from(spec.is_full()));
    let plain: Vec<&str> = spec.plain_names().collect();
    encode_u64(plain.len() as u64, out);
    for name in plain {
        encode_u64(name.len() as u64, out);
        out.extend_from_slice(name.as_bytes());
    }
    let scoped: Vec<(&str, &str)> = spec.scoped_names().collect();
    encode_u64(scoped.len() as u64, out);
    for (scope, name) in scoped {
        encode_u64(scope.len() as u64, out);
        out.extend_from_slice(scope.as_bytes());
        encode_u64(name.len() as u64, out);
        out.extend_from_slice(name.as_bytes());
    }
    match spec.word_scope() {
        None => out.push(0),
        Some(name) => {
            out.push(1);
            encode_u64(name.len() as u64, out);
            out.extend_from_slice(name.as_bytes());
        }
    }
}

/// Serializes the database parts into `.qofx` wire form and writes them to
/// `path` atomically enough for our purposes (single `write_all` of a
/// fully assembled buffer). Returns the file's size in bytes.
pub(crate) fn write_qofx(
    path: &Path,
    corpus: &Corpus,
    words: &WordIndex,
    instance: &Instance,
    spec: &IndexSpec,
) -> io::Result<u64> {
    let mut corp = Vec::new();
    encode_corpus(corpus, &mut corp);
    let mut word = Vec::new();
    encode_words(words, &mut word);
    let mut regn = Vec::new();
    encode_regions(instance, &mut regn);
    let mut spec_bytes = Vec::new();
    encode_spec(spec, &mut spec_bytes);

    let mut file_bytes =
        Vec::with_capacity(HEADER_LEN + corp.len() + word.len() + regn.len() + spec_bytes.len());
    file_bytes.extend_from_slice(&QOFX_MAGIC);
    file_bytes.extend_from_slice(&QOFX_VERSION.to_le_bytes());
    file_bytes.extend_from_slice(&0u32.to_le_bytes()); // flags
    file_bytes.extend_from_slice(&0u32.to_le_bytes()); // reserved
    file_bytes.extend_from_slice(&0u64.to_le_bytes()); // checksum, patched below
    let mut offset = HEADER_LEN as u64;
    for section in [&corp, &word, &regn, &spec_bytes] {
        file_bytes.extend_from_slice(&offset.to_le_bytes());
        file_bytes.extend_from_slice(&(section.len() as u64).to_le_bytes());
        offset += section.len() as u64;
    }
    debug_assert_eq!(file_bytes.len(), HEADER_LEN);
    for section in [corp, word, regn, spec_bytes] {
        file_bytes.extend_from_slice(&section);
    }
    let checksum = fnv1a64(&file_bytes);
    file_bytes[16..24].copy_from_slice(&checksum.to_le_bytes());

    let mut f = File::create(path)?;
    f.write_all(&file_bytes)?;
    f.sync_all()?;
    Ok(file_bytes.len() as u64)
}

// -- decoding ---------------------------------------------------------------

fn read_u32_le(buf: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(buf.get(at..at + 4)?.try_into().ok()?))
}

fn read_u64_le(buf: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(buf.get(at..at + 8)?.try_into().ok()?))
}

fn decode_str(buf: &[u8], at: &mut usize, what: &str) -> Result<String, QofxError> {
    let len = decode_u64(buf, at).ok_or(QofxError::Truncated)?;
    let len = usize::try_from(len).map_err(|_| QofxError::Truncated)?;
    let end = at.checked_add(len).ok_or(QofxError::Truncated)?;
    let bytes = buf.get(*at..end).ok_or(QofxError::Truncated)?;
    let s = std::str::from_utf8(bytes)
        .map_err(|_| QofxError::Corrupt(format!("{what} is not UTF-8")))?;
    *at = end;
    Ok(s.to_owned())
}

fn decode_corpus(buf: &[u8]) -> Result<Corpus, QofxError> {
    let at = &mut 0usize;
    let n_files = decode_u64(buf, at).ok_or(QofxError::Truncated)?;
    let n_files = usize::try_from(n_files).map_err(|_| QofxError::Truncated)?;
    let mut files = Vec::with_capacity(n_files.min(1 << 20));
    for _ in 0..n_files {
        let name = decode_str(buf, at, "file name")?;
        let start = decode_u32(buf, at).ok_or(QofxError::Truncated)?;
        let end = decode_u32(buf, at).ok_or(QofxError::Truncated)?;
        files.push(FileEntry { name, span: start..end });
    }
    let text = decode_str(buf, at, "corpus text")?;
    if *at != buf.len() {
        return Err(QofxError::Corrupt("trailing bytes after corpus text".to_owned()));
    }
    Corpus::from_parts(text, files).map_err(QofxError::Corrupt)
}

fn decode_len(buf: &[u8], at: &mut usize) -> Result<usize, QofxError> {
    let n = decode_u64(buf, at).ok_or(QofxError::Truncated)?;
    usize::try_from(n).map_err(|_| QofxError::Truncated)
}

/// Decodes one posting list, which must fill `buf` exactly: `count`
/// postings (at least one) in full blocks, the last one excepted, that
/// ascend strictly. `None` on any disagreement.
fn decode_list(buf: &[u8], count: u64) -> Option<Vec<Pos>> {
    let at = &mut 0usize;
    // Every posting takes a byte at least, so a count `buf` cannot hold
    // is rejected before anything is reserved for it.
    if decode_u64(buf, at)? != count || count == 0 || count > buf.len() as u64 {
        return None;
    }
    let count = usize::try_from(count).ok()?;
    let n_blocks = usize::try_from(decode_u64(buf, at)?).ok()?;
    if n_blocks != count.div_ceil(BLOCK_LEN) {
        return None;
    }
    let mut dir = Vec::with_capacity(n_blocks);
    let mut first = 0u32;
    for _ in 0..n_blocks {
        first = first.checked_add(decode_u32(buf, at)?)?;
        dir.push((first, usize::try_from(decode_u64(buf, at)?).ok()?));
    }
    let mut out = Vec::with_capacity(count);
    for (b, (first, len)) in dir.into_iter().enumerate() {
        if out.last().is_some_and(|&last| last >= first) {
            return None;
        }
        let end = at.checked_add(len)?;
        let mut cur = first;
        out.push(cur);
        while *at < end {
            let gap = decode_u32(buf, at).filter(|&gap| gap > 0)?;
            cur = cur.checked_add(gap)?;
            out.push(cur);
        }
        if *at != end || out.len() != count.min((b + 1) * BLOCK_LEN) {
            return None;
        }
    }
    (*at == buf.len()).then_some(out)
}

/// Decodes the WORD section into a [`WordIndex`], checking every posting
/// list: its count against the dictionary's, its order, and that each word
/// it places ends inside the corpus text of `text_len` bytes.
fn decode_words(buf: &[u8], text_len: usize) -> Result<WordIndex, QofxError> {
    let at = &mut 0usize;
    let scope = match buf.first().copied() {
        Some(0) => {
            *at = 1;
            None
        }
        Some(1) => {
            *at = 1;
            let n = decode_len(buf, at)?;
            let mut spans: Vec<Span> = Vec::with_capacity(n.min(buf.len() / 2));
            for _ in 0..n {
                let start = decode_u32(buf, at).ok_or(QofxError::Truncated)?;
                let end = decode_u32(buf, at).ok_or(QofxError::Truncated)?;
                if start > end {
                    return Err(QofxError::Corrupt("inverted scope span".to_owned()));
                }
                spans.push(start..end);
            }
            Some(spans)
        }
        _ => return Err(QofxError::Corrupt("bad scope tag in word section".to_owned())),
    };
    let n_words = decode_len(buf, at)?;
    // A dictionary entry takes three bytes at least.
    let mut dict: Vec<(String, u64, usize)> = Vec::with_capacity(n_words.min(buf.len() / 3));
    let mut blob_len = 0usize;
    for _ in 0..n_words {
        let word = decode_str(buf, at, "dictionary word")?;
        let count = decode_u64(buf, at).ok_or(QofxError::Truncated)?;
        let len = decode_u32(buf, at).ok_or(QofxError::Truncated)? as usize;
        if dict.last().is_some_and(|(prev, _, _)| *prev >= word) {
            return Err(QofxError::Corrupt("dictionary is not sorted".to_owned()));
        }
        blob_len = blob_len.checked_add(len).ok_or(QofxError::Truncated)?;
        dict.push((word, count, len));
    }
    if decode_len(buf, at)? != blob_len {
        return Err(QofxError::Corrupt(
            "postings blob length disagrees with dictionary".to_owned(),
        ));
    }
    let mut blob = &buf[*at..];
    if blob.len() < blob_len {
        return Err(QofxError::Truncated);
    }
    if blob.len() > blob_len {
        return Err(QofxError::Corrupt("trailing bytes after word section".to_owned()));
    }
    let mut lists = HashMap::with_capacity(dict.len());
    for (word, count, len) in dict {
        let (list, rest) = blob.split_at(len);
        blob = rest;
        let positions = decode_list(list, count)
            .ok_or_else(|| QofxError::Corrupt(format!("posting list of `{word}` is malformed")))?;
        let last = positions.last().map_or(0, |&p| p as usize);
        if last + word.len() > text_len {
            return Err(QofxError::Corrupt(format!(
                "a posting of `{word}` runs past the corpus text"
            )));
        }
        lists.insert(word, positions);
    }
    Ok(WordIndex::from_lists(lists, scope))
}

/// Decodes the region sets over the corpus `text`. A region must lie in
/// the text and start and end on character boundaries: queries slice the
/// text at region ends and parse candidates up to them.
fn decode_regions(buf: &[u8], text: &str) -> Result<Instance, QofxError> {
    // In ASCII text every offset up to its length is a character boundary,
    // so once the text is known ASCII the test is a bound on `end` (and
    // `start <= end`).
    let ascii = text.is_ascii();
    let in_text = |start: Pos, end: Pos| {
        if ascii {
            end as usize <= text.len()
        } else {
            text.is_char_boundary(start as usize) && text.is_char_boundary(end as usize)
        }
    };
    let at = &mut 0usize;
    let n_names = decode_u64(buf, at).ok_or(QofxError::Truncated)?;
    let n_names = usize::try_from(n_names).map_err(|_| QofxError::Truncated)?;
    let mut instance = Instance::new();
    let mut prev_name: Option<String> = None;
    for _ in 0..n_names {
        let name = decode_str(buf, at, "region name")?;
        if prev_name.as_deref().is_some_and(|p| p >= name.as_str()) {
            return Err(QofxError::Corrupt("region names out of order".to_owned()));
        }
        let n_regions = decode_u64(buf, at).ok_or(QofxError::Truncated)?;
        let n_regions = usize::try_from(n_regions).map_err(|_| QofxError::Truncated)?;
        let mut regions = Vec::with_capacity(n_regions.min(1 << 20));
        let mut prev_start: Pos = 0;
        let mut prev: Option<Region> = None;
        for _ in 0..n_regions {
            let gap = decode_u32(buf, at).ok_or(QofxError::Truncated)?;
            let len = decode_u32(buf, at).ok_or(QofxError::Truncated)?;
            let start = prev_start.checked_add(gap).ok_or(QofxError::Truncated)?;
            let end = start.checked_add(len).ok_or(QofxError::Truncated)?;
            if !in_text(start, end) {
                return Err(QofxError::Corrupt(format!(
                    "region {start}..{end} of {name} lies outside the corpus text or splits a \
                     character"
                )));
            }
            let r = Region::new(start, end);
            // `from_sorted` trusts canonical order; verify it here so a
            // checksum-colliding file can't smuggle in an unsorted set.
            if prev.as_ref().is_some_and(|p| *p >= r) {
                return Err(QofxError::Corrupt(format!(
                    "regions of {name} out of canonical order"
                )));
            }
            prev_start = start;
            prev = Some(r);
            regions.push(r);
        }
        prev_name = Some(name.clone());
        instance.insert(name, RegionSet::from_sorted(regions));
    }
    if *at != buf.len() {
        return Err(QofxError::Corrupt("trailing bytes after region sets".to_owned()));
    }
    Ok(instance)
}

fn decode_spec(buf: &[u8]) -> Result<IndexSpec, QofxError> {
    let at = &mut 0usize;
    let full = match buf.first().copied() {
        Some(0) => false,
        Some(1) => true,
        _ => return Err(QofxError::Corrupt("bad full-index tag in spec".to_owned())),
    };
    *at += 1;
    let n_plain = decode_u64(buf, at).ok_or(QofxError::Truncated)?;
    let mut plain = Vec::new();
    for _ in 0..n_plain {
        plain.push(decode_str(buf, at, "spec name")?);
    }
    let n_scoped = decode_u64(buf, at).ok_or(QofxError::Truncated)?;
    let mut scoped = Vec::new();
    for _ in 0..n_scoped {
        let scope = decode_str(buf, at, "spec scope")?;
        let name = decode_str(buf, at, "spec name")?;
        scoped.push((scope, name));
    }
    let word_scope = match buf.get(*at).copied() {
        Some(0) => {
            *at += 1;
            None
        }
        Some(1) => {
            *at += 1;
            Some(decode_str(buf, at, "word scope")?)
        }
        _ => return Err(QofxError::Corrupt("bad word-scope tag in spec".to_owned())),
    };
    if *at != buf.len() {
        return Err(QofxError::Corrupt("trailing bytes after spec".to_owned()));
    }
    let mut spec = if full { IndexSpec::full() } else { IndexSpec::names(plain) };
    for (scope, name) in &scoped {
        spec = spec.with_scoped(scope, name);
    }
    if let Some(name) = &word_scope {
        spec = spec.with_word_scope(name);
    }
    Ok(spec)
}

struct Section {
    offset: u64,
    len: u64,
}

fn section_slice<'a>(data: &'a [u8], s: &Section) -> Result<&'a [u8], QofxError> {
    let offset = usize::try_from(s.offset).map_err(|_| QofxError::Truncated)?;
    let len = usize::try_from(s.len).map_err(|_| QofxError::Truncated)?;
    let end = offset.checked_add(len).ok_or(QofxError::Truncated)?;
    data.get(offset..end).ok_or(QofxError::Truncated)
}

/// Reads, checksums and decodes a `.qofx` file: one read, and every
/// section is decoded from that buffer, the word index included.
pub(crate) fn read_qofx(path: &Path) -> Result<QofxContents, QofxError> {
    let mut data = std::fs::read(path)?;
    if data.len() < HEADER_LEN {
        if data.get(..4) != Some(&QOFX_MAGIC[..]) && data.len() >= 4 {
            return Err(QofxError::BadMagic);
        }
        return Err(QofxError::Truncated);
    }
    if data[..4] != QOFX_MAGIC {
        return Err(QofxError::BadMagic);
    }
    let version = read_u32_le(&data, 4).ok_or(QofxError::Truncated)?;
    if version != QOFX_VERSION {
        return Err(QofxError::UnsupportedVersion(version));
    }
    let flags = read_u32_le(&data, 8).ok_or(QofxError::Truncated)?;
    let reserved = read_u32_le(&data, 12).ok_or(QofxError::Truncated)?;
    let stored = read_u64_le(&data, 16).ok_or(QofxError::Truncated)?;
    // Hash with the checksum field zeroed, as the writer did. Zeroing in
    // place is fine: `stored` is already extracted and nothing else reads
    // those eight bytes.
    data[16..24].fill(0);
    let actual = fnv1a64(&data);
    if stored != actual {
        return Err(QofxError::ChecksumMismatch { stored, actual });
    }
    // No flag is defined: a set bit names a format this build cannot read.
    if flags != 0 {
        return Err(QofxError::Corrupt(format!("unknown header flags {flags:#x}")));
    }
    if reserved != 0 {
        return Err(QofxError::Corrupt(format!("reserved header word {reserved:#x} is not 0")));
    }
    let mut sections = Vec::with_capacity(4);
    for i in 0..4 {
        let base = 24 + i * 16;
        sections.push(Section {
            offset: read_u64_le(&data, base).ok_or(QofxError::Truncated)?,
            len: read_u64_le(&data, base + 8).ok_or(QofxError::Truncated)?,
        });
    }
    let corpus = decode_corpus(section_slice(&data, &sections[0])?)?;
    let words = decode_words(section_slice(&data, &sections[1])?, corpus.text().len())?;
    let instance = decode_regions(section_slice(&data, &sections[2])?, corpus.text())?;
    let spec = decode_spec(section_slice(&data, &sections[3])?)?;
    Ok(QofxContents { corpus, words, instance, spec })
}

/// What `qof index inspect` prints: the container's vital signs, gathered
/// by fully opening (and therefore fully validating) the file.
#[derive(Debug, Clone)]
pub struct QofxSummary {
    /// Format version from the header.
    pub version: u32,
    /// Whether the word index is scoped (§7 selective indexing).
    pub scoped: bool,
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// Number of corpus files.
    pub files: usize,
    /// Global corpus text size in bytes.
    pub corpus_bytes: u64,
    /// Distinct indexed words.
    pub distinct_words: usize,
    /// Total postings across all words.
    pub postings: usize,
    /// Region names carried in the REGN section.
    pub region_names: usize,
    /// Total regions across all names.
    pub regions: usize,
    /// Whether the stored spec is a full index.
    pub full_index: bool,
    /// Header checksum (validated).
    pub checksum: u64,
}

/// Opens and fully validates `path`, returning its [`QofxSummary`].
pub fn inspect_qofx(path: &Path) -> Result<QofxSummary, QofxError> {
    let file_bytes = std::fs::metadata(path)?.len();
    let contents = read_qofx(path)?;
    let mut data = [0u8; HEADER_LEN];
    File::open(path)?.read_exact(&mut data)?;
    let version = read_u32_le(&data, 4).ok_or(QofxError::Truncated)?;
    let checksum = read_u64_le(&data, 16).ok_or(QofxError::Truncated)?;
    Ok(QofxSummary {
        version,
        scoped: contents.words.is_scoped(),
        file_bytes,
        files: contents.corpus.files().len(),
        corpus_bytes: u64::from(contents.corpus.len()),
        distinct_words: contents.words.stats().distinct_words,
        postings: contents.words.postings(),
        region_names: contents.instance.name_count(),
        regions: contents.instance.region_count(),
        full_index: contents.spec.is_full(),
        checksum,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qof_text::WordIndexBuilder;

    fn sample(n: usize, stride: u32) -> Vec<Pos> {
        (0..n as u32)
            .map(|i| i * stride + (i % 7))
            .scan(0, |acc, v| {
                *acc = (*acc).max(v) + 1;
                Some(*acc)
            })
            .collect()
    }

    fn encoded(postings: &[Pos]) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_list(postings, &mut buf);
        buf
    }

    #[test]
    fn round_trips_across_block_boundaries() {
        for n in [1, 2, BLOCK_LEN - 1, BLOCK_LEN, BLOCK_LEN + 1, 3 * BLOCK_LEN + 17] {
            let postings = sample(n, 13);
            let buf = encoded(&postings);
            assert_eq!(decode_list(&buf, n as u64), Some(postings), "n={n}");
        }
    }

    #[test]
    fn wire_form_rejects_truncation_and_bit_flips() {
        let postings = sample(2 * BLOCK_LEN + 40, 21);
        let count = postings.len() as u64;
        let buf = encoded(&postings);
        for cut in [0, 1, buf.len() / 2, buf.len() - 1] {
            assert_eq!(decode_list(&buf[..cut], count), None, "cut at {cut} must not decode");
        }
        // Flipping any byte either fails to decode or still decodes to a
        // valid (ascending, right-count) list — never a panic.
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            if let Some(decoded) = decode_list(&bad, count) {
                assert_eq!(decoded.len(), postings.len());
                assert!(decoded.windows(2).all(|w| w[0] < w[1]), "flip at {i}");
            }
        }
    }

    #[test]
    fn a_huge_claimed_count_is_rejected_without_reserving_for_it() {
        // 16 bytes that claim 2^50 postings in 2^43 blocks.
        let count = 1u64 << 50;
        let mut buf = Vec::new();
        encode_u64(count, &mut buf);
        encode_u64(count.div_ceil(BLOCK_LEN as u64), &mut buf);
        buf.push(0);
        assert_eq!(buf.len(), 16);
        assert_eq!(decode_list(&buf, count), None);
    }

    #[test]
    fn gaps_compress_dense_lists() {
        // Dense positions (small gaps) must land well under 4 bytes per
        // posting — the raw Vec<u32> footprint.
        let postings: Vec<Pos> = (0..4096u32).map(|i| i * 3).collect();
        let bytes = encoded(&postings).len();
        assert!(bytes < postings.len() * 2, "{bytes} bytes for {} postings", postings.len());
    }

    fn sample_index(scoped: bool) -> (Corpus, WordIndex) {
        let corpus = Corpus::from_text(
            "the Quick brown fox jumps over the lazy dog the quick fox again and again \
             zebra apple Apple APPLE banana the the the",
        );
        let index = if scoped {
            WordIndexBuilder::new().scoped_to(vec![0..60, 80..120]).build(&corpus)
        } else {
            WordIndex::build(&corpus)
        };
        (corpus, index)
    }

    #[test]
    fn serialization_round_trips_in_memory() {
        for scoped in [false, true] {
            let (corpus, index) = sample_index(scoped);
            let mut buf = Vec::new();
            encode_words(&index, &mut buf);
            let back = decode_words(&buf, corpus.text().len()).unwrap();
            assert_eq!(back.scope(), index.scope());
            assert_eq!(back.postings(), index.postings());
            assert_eq!(back.stats(), index.stats());
            for (word, positions) in index.iter() {
                assert_eq!(back.positions(word), positions, "{word} (scoped={scoped})");
            }
        }
    }

    #[test]
    fn corrupt_sections_are_rejected_not_panicking() {
        let (corpus, index) = sample_index(false);
        let mut buf = Vec::new();
        encode_words(&index, &mut buf);
        for cut in [0, 1, buf.len() / 3, buf.len() - 1] {
            assert!(decode_words(&buf[..cut], corpus.text().len()).is_err(), "cut at {cut}");
        }
    }
}
