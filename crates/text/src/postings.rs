//! Delta-coded posting lists with a block directory — the compressed
//! representation behind [`CompressedWordIndex`](crate::CompressedWordIndex)
//! and the `.qofx` on-disk format (DESIGN.md §13).
//!
//! A posting list is a strictly ascending sequence of byte positions. It is
//! stored as blocks of up to [`BLOCK_LEN`] postings; each block records its
//! first posting absolutely in a small directory and the rest as LEB128
//! gaps, so a reader can skip whole blocks (the directory gives every
//! block's first posting) and only pay the varint decode for blocks that
//! overlap the span it cares about.

use crate::varint::{decode_u32, decode_u64, encode_u32, encode_u64};
use crate::{Pos, Span};

/// Postings per block: small enough that a span probe decodes little,
/// large enough that the per-block directory entry amortizes away.
pub const BLOCK_LEN: usize = 128;

/// One directory entry: where a block starts, in value space and byte space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockRef {
    /// The block's first posting (stored absolutely).
    first: Pos,
    /// Byte offset of the block's gap payload within `payload`.
    offset: u32,
}

/// An immutable compressed posting list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedPostings {
    count: usize,
    dir: Vec<BlockRef>,
    /// Concatenated per-block gap payloads (each block's first posting
    /// lives in `dir`, the remaining postings as varint gaps).
    payload: Vec<u8>,
}

impl CompressedPostings {
    /// Compresses a sorted, strictly ascending posting list.
    ///
    /// # Panics
    /// Panics (debug) if `postings` is not strictly ascending.
    pub fn encode(postings: &[Pos]) -> Self {
        debug_assert!(postings.windows(2).all(|w| w[0] < w[1]), "postings must ascend strictly");
        let mut dir = Vec::with_capacity(postings.len().div_ceil(BLOCK_LEN));
        let mut payload = Vec::new();
        for block in postings.chunks(BLOCK_LEN) {
            dir.push(BlockRef { first: block[0], offset: payload.len() as u32 });
            let mut prev = block[0];
            for &p in &block[1..] {
                encode_u32(p - prev, &mut payload);
                prev = p;
            }
        }
        CompressedPostings { count: postings.len(), dir, payload }
    }

    /// Number of postings.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the list holds no postings.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Compressed size in bytes (directory + payload), as stored.
    pub fn compressed_bytes(&self) -> usize {
        self.payload.len() + self.dir.len() * (std::mem::size_of::<Pos>() + 1)
    }

    /// Decompresses the full list.
    pub fn decode(&self) -> Vec<Pos> {
        let mut out = Vec::with_capacity(self.count);
        for b in 0..self.dir.len() {
            self.decode_block(b, &mut out);
        }
        debug_assert_eq!(out.len(), self.count);
        out
    }

    /// Decompresses only the postings inside `span` (half-open), skipping
    /// blocks that lie entirely outside it via the block directory.
    pub fn decode_within(&self, span: &Span) -> Vec<Pos> {
        // First block whose *successor* starts past span.start: earlier
        // blocks end before the span (block maxima stay below the next
        // block's first posting).
        let lo = self.dir.partition_point(|b| b.first < span.start).saturating_sub(1);
        let mut out = Vec::new();
        for b in lo..self.dir.len() {
            if self.dir[b].first >= span.end {
                break;
            }
            let from = out.len();
            self.decode_block(b, &mut out);
            // Trim the (at most two) partially overlapping blocks.
            let tail = &mut out[from..];
            let keep_from = tail.partition_point(|&p| p < span.start);
            let keep_to = tail.partition_point(|&p| p < span.end);
            out.copy_within(from + keep_from..from + keep_to, from);
            out.truncate(from + keep_to - keep_from);
        }
        out
    }

    /// Appends block `b`'s postings to `out`.
    fn decode_block(&self, b: usize, out: &mut Vec<Pos>) {
        let start = self.dir[b].offset as usize;
        let end = self.dir.get(b + 1).map_or(self.payload.len(), |n| n.offset as usize);
        let mut cur = self.dir[b].first;
        out.push(cur);
        let mut at = start;
        while at < end {
            // Encoding is in-process and trusted; a decode failure here is
            // a bug, not an input error.
            let gap = decode_u32(&self.payload, &mut at).expect("in-memory payload is well-formed");
            cur += gap;
            out.push(cur);
        }
    }

    /// Serializes to the `.qofx` wire form: `count`, `n_blocks`, per-block
    /// `(first-posting gap, payload length)`, then the payloads.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        encode_u64(self.count as u64, out);
        encode_u64(self.dir.len() as u64, out);
        let mut prev_first = 0u32;
        for (b, r) in self.dir.iter().enumerate() {
            let end = self.dir.get(b + 1).map_or(self.payload.len(), |n| n.offset as usize);
            encode_u32(r.first - prev_first, out);
            encode_u64((end - r.offset as usize) as u64, out);
            prev_first = r.first;
        }
        out.extend_from_slice(&self.payload);
    }

    /// Deserializes the [`write_to`](Self::write_to) wire form. Returns
    /// `None` on truncated or structurally inconsistent input (the caller
    /// translates this into its own corruption diagnostic).
    pub fn read_from(buf: &[u8], at: &mut usize) -> Option<Self> {
        let count = usize::try_from(decode_u64(buf, at)?).ok()?;
        let n_blocks = usize::try_from(decode_u64(buf, at)?).ok()?;
        if n_blocks != count.div_ceil(BLOCK_LEN) {
            return None;
        }
        // Each directory entry takes at least two bytes of input, so a
        // block count the remaining input cannot hold reserves no more.
        let mut dir = Vec::with_capacity(n_blocks.min(buf.len().saturating_sub(*at) / 2));
        let mut first = 0u32;
        let mut offset = 0u64;
        for _ in 0..n_blocks {
            first = first.checked_add(decode_u32(buf, at)?)?;
            let len = decode_u64(buf, at)?;
            dir.push(BlockRef { first, offset: u32::try_from(offset).ok()? });
            offset = offset.checked_add(len)?;
        }
        let payload_len = usize::try_from(offset).ok()?;
        let end = at.checked_add(payload_len)?;
        let payload = buf.get(*at..end)?.to_vec();
        *at = end;
        let decoded = CompressedPostings { count, dir, payload };
        // The payload must decode to exactly `count` ascending postings;
        // walk it now so later `decode()` calls cannot panic on bad bytes.
        decoded.validate().then_some(decoded)
    }

    /// Checks that every block's payload is well-formed varint gaps
    /// (non-zero: postings ascend strictly) summing to `count` postings.
    fn validate(&self) -> bool {
        let mut total = 0usize;
        for (b, r) in self.dir.iter().enumerate() {
            let end = self.dir.get(b + 1).map_or(self.payload.len(), |n| n.offset as usize);
            let mut at = r.offset as usize;
            if at > end || end > self.payload.len() {
                return false;
            }
            let mut in_block = 1usize;
            let mut cur = r.first;
            while at < end {
                let Some(gap) = decode_u32(&self.payload, &mut at) else { return false };
                let Some(next) = (gap > 0).then(|| cur.checked_add(gap)).flatten() else {
                    return false;
                };
                cur = next;
                in_block += 1;
            }
            if at != end || in_block > BLOCK_LEN {
                return false;
            }
            if let Some(next) = self.dir.get(b + 1) {
                if in_block != BLOCK_LEN || next.first <= cur {
                    return false;
                }
            }
            total += in_block;
        }
        total == self.count || (self.count == 0 && self.dir.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize, stride: u32) -> Vec<Pos> {
        (0..n as u32)
            .map(|i| i * stride + (i % 7))
            .scan(0, |acc, v| {
                *acc = (*acc).max(v) + 1;
                Some(*acc)
            })
            .collect()
    }

    #[test]
    fn round_trips_across_block_boundaries() {
        for n in [0, 1, 2, BLOCK_LEN - 1, BLOCK_LEN, BLOCK_LEN + 1, 3 * BLOCK_LEN + 17] {
            let postings = sample(n, 13);
            let c = CompressedPostings::encode(&postings);
            assert_eq!(c.len(), n);
            assert_eq!(c.decode(), postings, "n={n}");
        }
    }

    #[test]
    fn decode_within_matches_slice_filter() {
        let postings = sample(5 * BLOCK_LEN, 11);
        let c = CompressedPostings::encode(&postings);
        let max = *postings.last().unwrap();
        for span in [0..0, 0..1, 0..max + 10, 500..600, 3000..3001, max..max + 5, 7..4000] {
            let want: Vec<Pos> = postings.iter().copied().filter(|p| span.contains(p)).collect();
            assert_eq!(c.decode_within(&span), want, "span={span:?}");
        }
    }

    #[test]
    fn wire_form_round_trips() {
        for n in [0, 1, BLOCK_LEN, 2 * BLOCK_LEN + 5] {
            let postings = sample(n, 9);
            let c = CompressedPostings::encode(&postings);
            let mut buf = vec![0xaa; 3]; // leading noise: decode from an offset
            c.write_to(&mut buf);
            let mut at = 3;
            let back = CompressedPostings::read_from(&buf, &mut at).unwrap();
            assert_eq!(at, buf.len());
            assert_eq!(back, c);
            assert_eq!(back.decode(), postings);
        }
    }

    #[test]
    fn wire_form_rejects_truncation_and_bit_flips() {
        let postings = sample(2 * BLOCK_LEN + 40, 21);
        let c = CompressedPostings::encode(&postings);
        let mut buf = Vec::new();
        c.write_to(&mut buf);
        for cut in [0, 1, buf.len() / 2, buf.len() - 1] {
            let mut at = 0;
            assert!(
                CompressedPostings::read_from(&buf[..cut], &mut at).is_none(),
                "cut at {cut} must not parse"
            );
        }
        // Flipping any byte either fails to parse or still decodes to a
        // *valid* (ascending, right-count) list — never a panic.
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            let mut at = 0;
            if let Some(parsed) = CompressedPostings::read_from(&bad, &mut at) {
                let decoded = parsed.decode();
                assert_eq!(decoded.len(), parsed.len());
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
        let mut at = 0;
        assert!(CompressedPostings::read_from(&buf, &mut at).is_none());
    }

    #[test]
    fn gaps_compress_dense_lists() {
        // Dense positions (small gaps) must land well under 4 bytes per
        // posting — the raw Vec<u32> footprint.
        let postings: Vec<Pos> = (0..4096u32).map(|i| i * 3).collect();
        let c = CompressedPostings::encode(&postings);
        assert!(
            c.compressed_bytes() < postings.len() * 2,
            "{} bytes for {} postings",
            c.compressed_bytes(),
            postings.len()
        );
    }
}
