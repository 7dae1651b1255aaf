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
//! 8       4     flags (u32 LE; bit 0 = word index is case-folding)
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
//! * **WORD** — the compressed word index: scope spans, the dictionary
//!   (word, count, payload length), then one blob of delta-coded varint
//!   posting blocks. On open the blob is *not* loaded: the reader keeps
//!   the file handle and pages posting bytes on demand
//!   ([`PostingsSource::Paged`](qof_text::PostingsSource)).
//! * **REGN** — every region name's set, delta-coded: per region a varint
//!   start gap (starts are non-decreasing in canonical order) and a
//!   varint length.
//! * **SPEC** — the [`IndexSpec`] the database was built with, so a
//!   reopened database plans against the same partial-index contract.
//!
//! Corruption anywhere — a flipped bit, a truncated tail — fails the
//! checksum before any section is parsed; the structural decoders behind
//! it are still fully defensive, so even a file that collides on the
//! checksum is rejected rather than trusted.

use qof_grammar::IndexSpec;
use qof_pat::{fnv1a64, Instance, Region, RegionSet};
use qof_text::varint::{decode_u32, decode_u64, encode_u32, encode_u64};
use qof_text::{CompressedWordIndex, Corpus, FileEntry, Pos};
use std::fmt;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

/// The four magic bytes every `.qofx` file starts with.
pub const QOFX_MAGIC: [u8; 4] = *b"QOFX";

/// The current (and only) on-disk format version.
pub const QOFX_VERSION: u32 = 1;

const HEADER_LEN: usize = 88;
const FLAG_CASE_FOLD: u32 = 1;

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
    pub words: CompressedWordIndex,
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
    words: &CompressedWordIndex,
    instance: &Instance,
    spec: &IndexSpec,
) -> io::Result<u64> {
    let mut corp = Vec::new();
    encode_corpus(corpus, &mut corp);
    let mut word = Vec::new();
    words.serialize(&mut word)?;
    let mut regn = Vec::new();
    encode_regions(instance, &mut regn);
    let mut spec_bytes = Vec::new();
    encode_spec(spec, &mut spec_bytes);

    let mut file_bytes =
        Vec::with_capacity(HEADER_LEN + corp.len() + word.len() + regn.len() + spec_bytes.len());
    file_bytes.extend_from_slice(&QOFX_MAGIC);
    file_bytes.extend_from_slice(&QOFX_VERSION.to_le_bytes());
    let mut flags = 0u32;
    if words.case_fold() {
        flags |= FLAG_CASE_FOLD;
    }
    file_bytes.extend_from_slice(&flags.to_le_bytes());
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

/// Decodes the region sets over the corpus `text`. A region must lie in
/// the text and start and end on character boundaries: queries slice the
/// text at region ends and parse candidates up to them.
fn decode_regions(buf: &[u8], text: &str) -> Result<Instance, QofxError> {
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
            if !(text.is_char_boundary(start as usize) && text.is_char_boundary(end as usize)) {
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

/// Reads, checksums and decodes a `.qofx` file. The returned word index
/// pages its posting blob from `path` on demand — the blob bytes read
/// here for the checksum are dropped with the rest of the file buffer.
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
    let stored = read_u64_le(&data, 16).ok_or(QofxError::Truncated)?;
    // Hash with the checksum field zeroed, as the writer did. Zeroing in
    // place is fine: `stored` is already extracted and nothing else reads
    // those eight bytes.
    data[16..24].fill(0);
    let actual = fnv1a64(&data);
    if stored != actual {
        return Err(QofxError::ChecksumMismatch { stored, actual });
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
    let word_buf = section_slice(&data, &sections[1])?;
    let case_fold = flags & FLAG_CASE_FOLD != 0;
    let at = &mut 0usize;
    let words =
        CompressedWordIndex::deserialize(word_buf, at, case_fold, Some((path, sections[1].offset)))
            .map_err(QofxError::Corrupt)?;
    if *at != word_buf.len() {
        return Err(QofxError::Corrupt("trailing bytes after word section".to_owned()));
    }
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
    /// Whether the word index folds case.
    pub case_fold: bool,
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
    let flags = read_u32_le(&data, 8).ok_or(QofxError::Truncated)?;
    let checksum = read_u64_le(&data, 16).ok_or(QofxError::Truncated)?;
    Ok(QofxSummary {
        version,
        case_fold: flags & FLAG_CASE_FOLD != 0,
        scoped: contents.words.is_scoped(),
        file_bytes,
        files: contents.corpus.files().len(),
        corpus_bytes: u64::from(contents.corpus.len()),
        distinct_words: contents.words.distinct_words(),
        postings: contents.words.postings(),
        region_names: contents.instance.name_count(),
        regions: contents.instance.region_count(),
        full_index: contents.spec.is_full(),
        checksum,
    })
}
