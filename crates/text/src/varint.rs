//! LEB128 variable-length integers — the byte-level substrate of the
//! `.qofx` on-disk index format (DESIGN.md §13), whose posting lists and
//! region runs are delta-coded varints. Little-endian base-128: seven
//! payload bits per byte, high bit set on every byte except the last.

/// Appends `value` to `out` as an unsigned LEB128 varint (1–5 bytes for
/// `u32`, 1–10 for `u64`).
#[inline]
pub fn encode_u64(mut value: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one unsigned LEB128 varint from `buf[*at..]`, advancing `*at`.
///
/// Returns `None` on truncated input or on an encoding longer than ten
/// bytes / overflowing 64 bits (corrupt data, never produced by
/// [`encode_u64`]).
#[inline]
pub fn decode_u64(buf: &[u8], at: &mut usize) -> Option<u64> {
    // Fast path: single-byte varints (values < 128) dominate delta-coded
    // posting gaps and region runs.
    let first = *buf.get(*at)?;
    if first & 0x80 == 0 {
        *at += 1;
        return Some(u64::from(first));
    }
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*at)?;
        *at += 1;
        let payload = u64::from(byte & 0x7f);
        if shift >= 64 || (shift == 63 && payload > 1) {
            return None;
        }
        value |= payload << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
    }
}

/// [`encode_u64`] for `u32` values.
#[inline]
pub fn encode_u32(value: u32, out: &mut Vec<u8>) {
    encode_u64(u64::from(value), out);
}

/// [`decode_u64`] restricted to values that fit a `u32`.
#[inline]
pub fn decode_u32(buf: &[u8], at: &mut usize) -> Option<u32> {
    decode_u64(buf, at).and_then(|v| u32::try_from(v).ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_representative_values() {
        let values =
            [0u64, 1, 127, 128, 300, 16_383, 16_384, u64::from(u32::MAX), u64::MAX - 1, u64::MAX];
        let mut buf = Vec::new();
        for &v in &values {
            encode_u64(v, &mut buf);
        }
        let mut at = 0;
        for &v in &values {
            assert_eq!(decode_u64(&buf, &mut at), Some(v));
        }
        assert_eq!(at, buf.len(), "decoding must consume exactly what encoding produced");
    }

    #[test]
    fn single_byte_values_encode_in_one_byte() {
        for v in 0u32..128 {
            let mut buf = Vec::new();
            encode_u32(v, &mut buf);
            assert_eq!(buf, [v as u8]);
        }
    }

    #[test]
    fn truncated_input_is_rejected() {
        let mut buf = Vec::new();
        encode_u64(u64::from(u32::MAX), &mut buf);
        for cut in 0..buf.len() {
            let mut at = 0;
            assert_eq!(decode_u64(&buf[..cut], &mut at), None, "cut at {cut}");
        }
    }

    #[test]
    fn overlong_encoding_is_rejected() {
        // Eleven continuation bytes can never be a valid u64.
        let buf = [0x80u8; 11];
        let mut at = 0;
        assert_eq!(decode_u64(&buf, &mut at), None);
        // A value with bits above the 64th is rejected too.
        let buf = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x7f];
        let mut at = 0;
        assert_eq!(decode_u64(&buf, &mut at), None);
    }

    #[test]
    fn u32_decoder_rejects_oversized_values() {
        let mut buf = Vec::new();
        encode_u64(u64::from(u32::MAX) + 1, &mut buf);
        let mut at = 0;
        assert_eq!(decode_u32(&buf, &mut at), None);
    }
}
