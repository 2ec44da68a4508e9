//! Entropy coding: zigzag scan + (run, level) RLE + signed varints.
//!
//! Quantized transform blocks are mostly zeros; we scan them in zigzag
//! order, emit `(zero-run, level)` pairs as varints, and terminate with an
//! end-of-block marker — the same scheme (minus Huffman tables) real MPEG
//! uses.

use bytes::{Buf, Bytes, BytesMut};

use crate::transform::ZIGZAG;

/// Errors produced when decoding a corrupt bitstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntropyError {
    /// Input ended inside a symbol.
    Truncated,
    /// A run/index exceeded the block size.
    RunOverflow,
    /// A varint was longer than the maximum width.
    Malformed,
}

impl std::fmt::Display for EntropyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            EntropyError::Truncated => "bitstream truncated",
            EntropyError::RunOverflow => "zero run exceeds block size",
            EntropyError::Malformed => "malformed varint",
        };
        f.write_str(s)
    }
}

impl std::error::Error for EntropyError {}

/// Writes `v` as an unsigned LEB128 varint into `out` at `at`, returning
/// the position just past it.
#[inline]
fn write_varint(out: &mut [u8], mut at: usize, mut v: u64) -> usize {
    while v >= 0x80 {
        out[at] = (v & 0x7f) as u8 | 0x80;
        v >>= 7;
        at += 1;
    }
    out[at] = v as u8;
    at + 1
}

/// Writes an unsigned LEB128 varint.
pub fn put_varint(buf: &mut BytesMut, v: u64) {
    let mut out = [0u8; 10];
    let n = write_varint(&mut out, 0, v);
    buf.extend_from_slice(&out[..n]);
}

/// Reads an unsigned LEB128 varint.
///
/// # Errors
///
/// Fails on truncation or a varint wider than 64 bits.
pub fn get_varint(buf: &mut Bytes) -> Result<u64, EntropyError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() {
            return Err(EntropyError::Truncated);
        }
        if shift >= 64 {
            return Err(EntropyError::Malformed);
        }
        let byte = buf.get_u8();
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// ZigZag-maps a signed value to unsigned (0, -1, 1, -2, 2 → 0, 1, 2, 3, 4).
pub fn zz_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zz_encode`].
pub fn zz_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// The most bytes one block can code to: 64 `(run, level)` pairs of a
/// one-byte run (< 64) and an at most five-byte level (a zigzagged `i32`
/// fits 32 bits), plus the one-byte end-of-block marker.
const MAX_BLOCK_BYTES: usize = 64 * (1 + 5) + 1;

/// Encodes a quantized 8×8 block into `buf`. Returns the number of
/// non-zero coefficients (which the decode-cost model charges for).
///
/// A bit mask of the non-zero coefficients in scan order drives the
/// loop, so each zero run is one `trailing_zeros` rather than a branch
/// per coefficient. Runs and the end-of-block marker (64) are below 128,
/// so each is a one-byte varint. The symbols are staged in a stack
/// buffer and appended with one copy.
pub fn encode_block(buf: &mut BytesMut, block: &[i32; 64]) -> u32 {
    let mut mask = 0u64;
    for (k, &idx) in ZIGZAG.iter().enumerate() {
        mask |= u64::from(block[idx] != 0) << k;
    }
    let nonzero = mask.count_ones();
    let mut out = [0u8; MAX_BLOCK_BYTES];
    let mut n = 0;
    let mut next = 0;
    while mask != 0 {
        let k = mask.trailing_zeros();
        mask &= mask - 1;
        out[n] = (k - next) as u8;
        n = write_varint(
            &mut out,
            n + 1,
            zz_encode(i64::from(block[ZIGZAG[k as usize]])),
        );
        next = k + 1;
    }
    // End of block: a run that reaches past the last coefficient.
    out[n] = 64;
    buf.extend_from_slice(&out[..=n]);
    nonzero
}

/// Decodes one 8×8 block from `buf` into `block`.
///
/// # Errors
///
/// Fails on truncated input or runs past the end of the block.
pub fn decode_block(buf: &mut Bytes, block: &mut [i32; 64]) -> Result<(), EntropyError> {
    block.fill(0);
    let mut pos = 0usize;
    loop {
        let run = get_varint(buf)?;
        if run >= 64 {
            if run == 64 {
                return Ok(());
            }
            return Err(EntropyError::RunOverflow);
        }
        pos += run as usize;
        if pos >= 64 {
            return Err(EntropyError::RunOverflow);
        }
        let level = zz_decode(get_varint(buf)?);
        block[ZIGZAG[pos]] = level as i32;
        pos += 1;
        if pos == 64 {
            // Block exactly full; expect the terminator.
            let term = get_varint(buf)?;
            if term != 64 {
                return Err(EntropyError::RunOverflow);
            }
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip() {
        let values = [0u64, 1, 127, 128, 300, 16_384, u64::MAX];
        for &v in &values {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let mut bytes = buf.freeze();
            assert_eq!(get_varint(&mut bytes).unwrap(), v);
            assert!(!bytes.has_remaining());
        }
    }

    #[test]
    fn varint_truncation_detected() {
        let mut bytes = Bytes::from_static(&[0x80, 0x80]);
        assert_eq!(get_varint(&mut bytes), Err(EntropyError::Truncated));
    }

    #[test]
    fn varint_overwide_detected() {
        let mut bytes = Bytes::from(vec![0x80u8; 11]);
        assert_eq!(get_varint(&mut bytes), Err(EntropyError::Malformed));
    }

    #[test]
    fn zigzag_mapping_round_trip() {
        for v in [-1_000_000i64, -2, -1, 0, 1, 2, 1_000_000] {
            assert_eq!(zz_decode(zz_encode(v)), v);
        }
        assert_eq!(zz_encode(0), 0);
        assert_eq!(zz_encode(-1), 1);
        assert_eq!(zz_encode(1), 2);
    }

    #[test]
    fn block_round_trip_sparse() {
        let mut block = [0i32; 64];
        block[0] = 500;
        block[9] = -3;
        block[63] = 7;
        let mut buf = BytesMut::new();
        let nz = encode_block(&mut buf, &block);
        assert_eq!(nz, 3);
        let mut decoded = [99i32; 64];
        decode_block(&mut buf.freeze(), &mut decoded).unwrap();
        assert_eq!(decoded, block);
    }

    #[test]
    fn block_round_trip_dense() {
        let mut block = [0i32; 64];
        for (i, c) in block.iter_mut().enumerate() {
            *c = i as i32 - 32;
        }
        let mut buf = BytesMut::new();
        encode_block(&mut buf, &block);
        let mut decoded = [0i32; 64];
        decode_block(&mut buf.freeze(), &mut decoded).unwrap();
        assert_eq!(decoded, block);
    }

    #[test]
    fn all_zero_block_is_tiny() {
        let block = [0i32; 64];
        let mut buf = BytesMut::new();
        let nz = encode_block(&mut buf, &block);
        assert_eq!(nz, 0);
        assert_eq!(buf.len(), 1); // just the EOB marker
        let mut decoded = [5i32; 64];
        decode_block(&mut buf.freeze(), &mut decoded).unwrap();
        assert_eq!(decoded, [0i32; 64]);
    }

    #[test]
    fn sparse_blocks_compress_better_than_dense() {
        let sparse = {
            let mut b = [0i32; 64];
            b[0] = 100;
            b
        };
        let dense = [17i32; 64];
        let mut sbuf = BytesMut::new();
        let mut dbuf = BytesMut::new();
        encode_block(&mut sbuf, &sparse);
        encode_block(&mut dbuf, &dense);
        assert!(sbuf.len() < dbuf.len() / 4);
    }

    #[test]
    fn decoder_rejects_corrupt_run() {
        // run=70 is past the block but not the EOB value.
        let mut buf = BytesMut::new();
        put_varint(&mut buf, 70);
        assert_eq!(
            decode_block(&mut buf.freeze(), &mut [0i32; 64]),
            Err(EntropyError::RunOverflow)
        );
    }

    #[test]
    fn decoder_rejects_truncated_level() {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, 0); // run
                                 // level missing
        assert_eq!(
            decode_block(&mut buf.freeze(), &mut [0i32; 64]),
            Err(EntropyError::Truncated)
        );
    }

    #[test]
    fn multiple_blocks_stream() {
        let b1 = {
            let mut b = [0i32; 64];
            b[5] = 9;
            b
        };
        let b2 = {
            let mut b = [0i32; 64];
            b[50] = -4;
            b
        };
        let mut buf = BytesMut::new();
        encode_block(&mut buf, &b1);
        encode_block(&mut buf, &b2);
        let mut bytes = buf.freeze();
        let mut out = [0i32; 64];
        decode_block(&mut bytes, &mut out).unwrap();
        assert_eq!(out, b1);
        decode_block(&mut bytes, &mut out).unwrap();
        assert_eq!(out, b2);
        assert!(!bytes.has_remaining());
    }
}
