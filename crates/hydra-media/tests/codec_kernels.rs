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
//! * `Encoder::encode_sequence`, which reconstructs only the anchors,
//!   against the encoder it replaced, which reconstructed every frame
//!   (B frames included) and threw the B reconstructions away. The
//!   reference is kept verbatim in [`reference`], built from the crate's
//!   public kernels only, and both must emit the same frames field for
//!   field over random geometries, quantizers, GOPs and sources.

use bytes::{BufMut, BytesMut};
use hydra_media::codec::{CodecConfig, Encoder, GopConfig};
use hydra_media::entropy::{encode_block, put_varint, zz_encode};
use hydra_media::frame::{RawFrame, SyntheticVideo};
use hydra_media::transform::{quantize, ZIGZAG};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

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

/// The encoder as it was before B frames stopped being reconstructed.
mod reference {
    use bytes::{BufMut, BytesMut};
    use hydra_media::codec::{CodecConfig, EncodedFrame, FrameKind};
    use hydra_media::entropy::encode_block;
    use hydra_media::frame::RawFrame;
    use hydra_media::transform::{dequantize, forward, inverse, quantize};

    fn encode_intra_frame(
        frame: &RawFrame,
        q: u16,
        display_index: u64,
    ) -> (EncodedFrame, RawFrame) {
        let mut buf = BytesMut::new();
        let mut recon = RawFrame::filled(frame.width(), frame.height(), 0);
        let mut block = [0i32; 64];
        let mut nonzero = 0u32;
        for by in 0..frame.blocks_y() {
            for bx in 0..frame.blocks_x() {
                frame.read_block(bx, by, &mut block);
                forward(&mut block);
                quantize(&mut block, q);
                nonzero += encode_block(&mut buf, &block);
                dequantize(&mut block, q);
                inverse(&mut block);
                recon.write_block(bx, by, &block);
            }
        }
        let coded = frame.block_count() as u32;
        (
            EncodedFrame {
                kind: FrameKind::I,
                display_index,
                width: frame.width() as u16,
                height: frame.height() as u16,
                quantizer: q,
                data: buf.freeze(),
                coded_blocks: coded,
                nonzero_coeffs: nonzero,
            },
            recon,
        )
    }

    /// Encodes a predicted frame against `predictor` (P: previous anchor;
    /// B: anchor average). Returns the frame and its reconstruction.
    fn encode_predicted_frame(
        kind: FrameKind,
        frame: &RawFrame,
        predictor: &RawFrame,
        q: u16,
        display_index: u64,
    ) -> (EncodedFrame, RawFrame) {
        let mut buf = BytesMut::new();
        let mut recon = RawFrame::filled(frame.width(), frame.height(), 0);
        let mut cur = [0i32; 64];
        let mut pred = [0i32; 64];
        let mut nonzero = 0u32;
        let mut coded = 0u32;
        for by in 0..frame.blocks_y() {
            for bx in 0..frame.blocks_x() {
                frame.read_block(bx, by, &mut cur);
                predictor.read_block(bx, by, &mut pred);
                let mut residual = [0i32; 64];
                let mut all_zero = true;
                for i in 0..64 {
                    residual[i] = cur[i] - pred[i];
                    all_zero &= residual[i] == 0;
                }
                if all_zero {
                    buf.put_u8(0); // skip flag
                    recon.write_block(bx, by, &pred);
                    continue;
                }
                buf.put_u8(1);
                forward(&mut residual);
                quantize(&mut residual, q);
                nonzero += encode_block(&mut buf, &residual);
                coded += 1;
                dequantize(&mut residual, q);
                inverse(&mut residual);
                let mut rec = [0i32; 64];
                for i in 0..64 {
                    rec[i] = pred[i] + residual[i];
                }
                recon.write_block(bx, by, &rec);
            }
        }
        (
            EncodedFrame {
                kind,
                display_index,
                width: frame.width() as u16,
                height: frame.height() as u16,
                quantizer: q,
                data: buf.freeze(),
                coded_blocks: coded,
                nonzero_coeffs: nonzero,
            },
            recon,
        )
    }

    fn average_frames(a: &RawFrame, b: &RawFrame) -> RawFrame {
        let pixels = a
            .pixels()
            .iter()
            .zip(b.pixels())
            .map(|(&x, &y)| (u16::from(x) + u16::from(y)).div_ceil(2) as u8)
            .collect();
        RawFrame::from_pixels(a.width(), a.height(), pixels)
    }

    /// `Encoder::encode_sequence` as it was.
    pub fn encode_sequence(config: &CodecConfig, frames: &[RawFrame]) -> Vec<EncodedFrame> {
        let q = config.quantizer;
        let step = config.gop.anchor_every.max(1);
        let mut out = Vec::new();
        let mut prev_anchor: Option<(usize, RawFrame)> = None; // (display idx, recon)
        let mut anchors_since_i = 0usize;

        let mut anchor_positions: Vec<usize> = (0..frames.len()).step_by(step).collect();
        if *anchor_positions.last().unwrap_or(&0) != frames.len().saturating_sub(1)
            && !frames.is_empty()
        {
            anchor_positions.push(frames.len() - 1);
        }

        for &pos in &anchor_positions {
            let frame = &frames[pos];
            if let Some((_, first)) = &prev_anchor {
                assert_eq!(
                    (first.width(), first.height()),
                    (frame.width(), frame.height()),
                    "all frames must share geometry"
                );
            }
            let is_i = prev_anchor.is_none() || anchors_since_i >= config.gop.anchors_per_i.max(1);
            let (encoded, recon) = if is_i {
                anchors_since_i = 1;
                encode_intra_frame(frame, q, pos as u64)
            } else {
                anchors_since_i += 1;
                let (_, prev) = prev_anchor.as_ref().expect("P requires an anchor");
                encode_predicted_frame(FrameKind::P, frame, prev, q, pos as u64)
            };
            out.push(encoded);
            // B frames between the previous anchor and this one, in display
            // order, follow the new anchor in decode order.
            if let Some((prev_pos, prev_recon)) = &prev_anchor {
                let avg = average_frames(prev_recon, &recon);
                for (b_pos, frame) in frames.iter().enumerate().take(pos).skip(prev_pos + 1) {
                    let (b, _) = encode_predicted_frame(FrameKind::B, frame, &avg, q, b_pos as u64);
                    out.push(b);
                }
            }
            prev_anchor = Some((pos, recon));
        }
        out
    }
}

/// `n` frames of random pixels. Each frame is either fresh noise or the
/// previous frame with a few pixels changed, so P and B frames have both
/// skipped and coded blocks.
fn random_frames(width: usize, height: usize, n: usize, seed: u64) -> Vec<RawFrame> {
    let mut rng = TestRng::from_seed(seed);
    let mut frames: Vec<RawFrame> = Vec::with_capacity(n);
    for _ in 0..n {
        let mut pixels = match frames.last() {
            Some(prev) if rng.below(4) != 0 => prev.pixels().to_vec(),
            _ => (0..width * height).map(|_| rng.below(256) as u8).collect(),
        };
        for _ in 0..rng.below(4) {
            let i = rng.below(pixels.len() as u64) as usize;
            pixels[i] = rng.below(256) as u8;
        }
        frames.push(RawFrame::from_pixels(width, height, pixels));
    }
    frames
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn encoder_matches_reconstruct_everything_reference(
        blocks_x in 1usize..=8,
        blocks_y in 1usize..=6,
        q_pick in 0usize..5,
        gop_pick in 0u32..3,
        anchor_every in 1usize..=4,
        anchors_per_i in 1usize..=4,
        n in 0usize..=14,
        synthetic in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (width, height) = (blocks_x * 8, blocks_y * 8);
        let gop = match gop_pick {
            0 => GopConfig::ipp(),
            1 => GopConfig::ibbp(),
            _ => GopConfig { anchor_every, anchors_per_i },
        };
        let config = CodecConfig { quantizer: [1, 2, 6, 31, 255][q_pick], gop };
        let frames = if synthetic {
            let video = SyntheticVideo::new(width, height);
            (0..n as u64).map(|i| video.frame(seed % 64 + i)).collect()
        } else {
            random_frames(width, height, n, seed)
        };
        let fast = Encoder::new(config).encode_sequence(&frames);
        let want = reference::encode_sequence(&config, &frames);
        prop_assert_eq!(fast.len(), want.len(), "{:?}, {} frames", config, n);
        for (i, (got, want)) in fast.iter().zip(&want).enumerate() {
            prop_assert_eq!(got, want, "frame {} of {:?}, {}x{}", i, config, width, height);
        }
    }
}
