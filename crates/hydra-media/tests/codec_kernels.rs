//! Differential oracles for the codec's fast kernels.
//!
//! * `quantize` (an exact reciprocal multiply) against the division form
//!   it replaced, `sign(c) * ((|c| + q/2) / q)`: exhaustively for every
//!   `c` in ±2^17 on a spread of steps, and by property over the whole
//!   `i32` × `u16` domain wherever the division form does not overflow.
//!   Where it does, the result must be the exact value computed in `i64`.
//! * `encode_block` (symbols staged in a stack buffer) against the
//!   symbol-at-a-time `put_varint` encoder it replaced, byte for byte,
//!   including five-byte levels. The reference keeps its own copy of the
//!   byte-at-a-time LEB128 writer, so it shares no code with the kernel.

use bytes::{BufMut, BytesMut};
use hydra_media::entropy::{encode_block, put_varint, zz_encode};
use hydra_media::transform::{quantize, ZIGZAG};
use proptest::prelude::*;

/// The original division form; `None` where its `i32` arithmetic
/// overflows (`|c| + q/2 > i32::MAX`, or `c == i32::MIN`).
fn quantize_by_division(c: i32, q: u16) -> Option<i32> {
    let q = i32::from(q);
    let sign = if c < 0 { -1 } else { 1 };
    Some(sign * (c.checked_abs()?.checked_add(q / 2)? / q))
}

/// The same rounding in `i64`, where nothing overflows.
fn quantize_exact(c: i32, q: u16) -> i32 {
    let q = i64::from(q);
    let c = i64::from(c);
    (c.signum() * ((c.abs() + q / 2) / q)) as i32
}

/// Quantizes each value through the block kernel, 64 at a time.
fn quantize_all(values: &[i32], q: u16) -> Vec<i32> {
    let mut out = Vec::with_capacity(values.len());
    for chunk in values.chunks(64) {
        let mut block = [0i32; 64];
        block[..chunk.len()].copy_from_slice(chunk);
        quantize(&mut block, q);
        out.extend_from_slice(&block[..chunk.len()]);
    }
    out
}

#[test]
fn quantize_matches_division_exhaustively_near_zero() {
    let values: Vec<i32> = (-(1 << 17)..=(1 << 17)).collect();
    for q in [1u16, 2, 3, 6, 7, 64, 255, 4096, 65535] {
        let fast = quantize_all(&values, q);
        for (&c, &got) in values.iter().zip(&fast) {
            let want = quantize_by_division(c, q).expect("no overflow near zero");
            assert_eq!(got, want, "quantize({c}, {q})");
        }
    }
}

#[test]
fn quantize_is_exact_at_the_extremes() {
    for q in [1u16, 2, 3, 255, 32768, 65534, 65535] {
        let half = i32::from(q / 2);
        let edges = [
            i32::MIN,
            i32::MIN + 1,
            i32::MIN + half,
            -i32::MAX + half,
            i32::MAX - half - 1,
            i32::MAX - half,
            (i32::MAX - half).saturating_add(1),
            i32::MAX,
        ];
        for (&c, &got) in edges.iter().zip(&quantize_all(&edges, q)) {
            assert_eq!(got, quantize_exact(c, q), "quantize({c}, {q})");
            if let Some(want) = quantize_by_division(c, q) {
                assert_eq!(got, want, "quantize({c}, {q})");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn quantize_matches_division_everywhere_it_is_defined(
        q in 1u16..=u16::MAX,
        shift in 0u32..32,
        values in proptest::collection::vec(any::<i32>(), 64),
    ) {
        // Spread magnitudes over every bit width, not just the top ones.
        let values: Vec<i32> = values.iter().map(|&c| c >> shift).collect();
        for (&c, &got) in values.iter().zip(&quantize_all(&values, q)) {
            prop_assert_eq!(got, quantize_exact(c, q), "quantize({}, {})", c, q);
            if let Some(want) = quantize_by_division(c, q) {
                prop_assert_eq!(got, want, "quantize({}, {})", c, q);
            }
        }
    }
}

/// The original LEB128 writer: one `put_u8` per byte.
fn put_varint_bytewise(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// The original encoder: one varint call per symbol.
fn encode_block_by_varint(buf: &mut BytesMut, block: &[i32; 64]) -> u32 {
    let mut run = 0u32;
    let mut nonzero = 0u32;
    for &idx in &ZIGZAG {
        let c = block[idx];
        if c == 0 {
            run += 1;
        } else {
            put_varint_bytewise(buf, u64::from(run));
            put_varint_bytewise(buf, zz_encode(i64::from(c)));
            run = 0;
            nonzero += 1;
        }
    }
    put_varint_bytewise(buf, 64);
    nonzero
}

fn assert_same_encoding(block: &[i32; 64]) {
    // A non-empty prefix checks that the block is appended, not written
    // over the buffer's start.
    let mut fast = BytesMut::new();
    let mut reference = BytesMut::new();
    fast.extend_from_slice(&[0xAC, 0x02]);
    reference.extend_from_slice(&[0xAC, 0x02]);
    let n_fast = encode_block(&mut fast, block);
    let n_ref = encode_block_by_varint(&mut reference, block);
    assert_eq!(n_fast, n_ref, "non-zero count of {block:?}");
    assert_eq!(&fast[..], &reference[..], "bytes of {block:?}");
}

#[test]
fn encode_block_matches_varint_reference_on_extremes() {
    assert_same_encoding(&[0; 64]);
    // Every coefficient non-zero at each varint width: the largest
    // possible block.
    for level in [1, -1, 63, -64, 8191, -8192, 1 << 20, i32::MAX, i32::MIN] {
        let block = [level; 64];
        assert_same_encoding(&block);
    }
    let mut tail = [0i32; 64];
    tail[63] = i32::MIN;
    assert_same_encoding(&tail);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn encode_block_matches_varint_reference(
        density in 0u64..=64,
        words in proptest::collection::vec(any::<u64>(), 64),
    ) {
        let mut block = [0i32; 64];
        for (c, &w) in block.iter_mut().zip(&words) {
            if w % 64 < density {
                // Level widths from one to five varint bytes.
                *c = ((w >> 8) as i32) >> ((w >> 40) % 32);
            }
        }
        assert_same_encoding(&block);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn put_varint_matches_bytewise_writer(v in any::<u64>(), shift in 0u32..64) {
        let v = v >> shift;
        let mut fast = BytesMut::new();
        let mut reference = BytesMut::new();
        put_varint(&mut fast, v);
        put_varint_bytewise(&mut reference, v);
        prop_assert_eq!(&fast[..], &reference[..], "put_varint({})", v);
    }
}
