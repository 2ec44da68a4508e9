//! The I/P/B frame codec.
//!
//! A miniature MPEG: the encoder produces a group-of-pictures stream with
//! intra (I) frames, forward-predicted (P) frames coded as residuals
//! against the previous anchor, and bidirectional (B) frames coded against
//! the average of the surrounding anchors. Frames are emitted in *decode
//! order* (anchors before the B frames that reference them), exactly like
//! a real transport stream, and the [`Decoder`] reorders back to display
//! order.
//!
//! With quantizer step 1 the codec is lossless end to end (the integer
//! transform is exact), which gives the test suite a strong round-trip
//! invariant; larger quantizers trade PSNR for bitrate like the real thing.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::entropy::{decode_block, encode_block, EntropyError};
use crate::frame::RawFrame;
use crate::transform::{dequantize, forward, inverse, quantize};

/// Frame type within the GOP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// Intra-coded: self-contained.
    I,
    /// Predicted from the previous anchor (I or P).
    P,
    /// Bidirectionally predicted from the surrounding anchors.
    B,
}

/// One compressed frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedFrame {
    /// Frame type.
    pub kind: FrameKind,
    /// Position in display order.
    pub display_index: u64,
    /// Frame width in pixels.
    pub width: u16,
    /// Frame height in pixels.
    pub height: u16,
    /// Quantizer step used.
    pub quantizer: u16,
    /// Entropy-coded block data.
    pub data: Bytes,
    /// Blocks actually coded (not skipped).
    pub coded_blocks: u32,
    /// Non-zero coefficients across coded blocks (decode-cost driver).
    pub nonzero_coeffs: u32,
}

impl EncodedFrame {
    /// Compressed size in bytes (payload only).
    pub fn size_bytes(&self) -> usize {
        self.data.len()
    }

    /// Total 8×8 blocks in the frame.
    pub fn total_blocks(&self) -> u32 {
        (u32::from(self.width) / 8) * (u32::from(self.height) / 8)
    }
}

/// Codec errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Bitstream corruption.
    Entropy(EntropyError),
    /// A P or B frame arrived without the anchors it references.
    MissingReference,
    /// Frame geometry changed mid-stream.
    GeometryMismatch,
    /// Extra bytes after the last block.
    TrailingData,
}

impl From<EntropyError> for CodecError {
    fn from(e: EntropyError) -> Self {
        CodecError::Entropy(e)
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Entropy(e) => write!(f, "bitstream error: {e}"),
            CodecError::MissingReference => f.write_str("reference frame missing"),
            CodecError::GeometryMismatch => f.write_str("frame geometry changed mid-stream"),
            CodecError::TrailingData => f.write_str("trailing bytes after last block"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Group-of-pictures structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GopConfig {
    /// Distance between anchors (1 = every frame is an anchor).
    /// With `anchor_every = 3`, display order is `I B B P B B P…`.
    pub anchor_every: usize,
    /// Anchors per I frame (how many anchors before a new I).
    pub anchors_per_i: usize,
}

impl GopConfig {
    /// An IPPP… stream: no B frames, I frame every 12.
    pub fn ipp() -> Self {
        GopConfig {
            anchor_every: 1,
            anchors_per_i: 12,
        }
    }

    /// The classic IBBP pattern with an I frame every 4 anchors
    /// (display GOP of 12).
    pub fn ibbp() -> Self {
        GopConfig {
            anchor_every: 3,
            anchors_per_i: 4,
        }
    }
}

/// Encoder configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecConfig {
    /// Quantizer step; 1 is lossless.
    pub quantizer: u16,
    /// GOP structure.
    pub gop: GopConfig,
}

impl Default for CodecConfig {
    fn default() -> Self {
        CodecConfig {
            quantizer: 4,
            gop: GopConfig::ibbp(),
        }
    }
}

fn encode_intra_frame(frame: &RawFrame, q: u16, display_index: u64) -> (EncodedFrame, RawFrame) {
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
/// B: anchor average). Returns the frame and, for a P frame, its
/// reconstruction. Nothing is predicted from a B frame, so a B frame's
/// blocks are never dequantized, inverse-transformed or written back.
fn encode_predicted_frame(
    kind: FrameKind,
    frame: &RawFrame,
    predictor: &RawFrame,
    q: u16,
    display_index: u64,
) -> (EncodedFrame, Option<RawFrame>) {
    let mut buf = BytesMut::new();
    let mut recon =
        (kind == FrameKind::P).then(|| RawFrame::filled(frame.width(), frame.height(), 0));
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
                if let Some(recon) = &mut recon {
                    recon.write_block(bx, by, &pred);
                }
                continue;
            }
            buf.put_u8(1);
            forward(&mut residual);
            quantize(&mut residual, q);
            nonzero += encode_block(&mut buf, &residual);
            coded += 1;
            let Some(recon) = &mut recon else {
                continue;
            };
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

/// The encoder: turns a display-order frame sequence into a decode-order
/// [`EncodedFrame`] stream.
///
/// # Examples
///
/// ```
/// use hydra_media::codec::{CodecConfig, Decoder, Encoder, GopConfig};
/// use hydra_media::frame::SyntheticVideo;
///
/// let video = SyntheticVideo::new(32, 32);
/// let frames: Vec<_> = (0..6).map(|i| video.frame(i)).collect();
/// let cfg = CodecConfig { quantizer: 1, gop: GopConfig::ibbp() };
/// let stream = Encoder::new(cfg).encode_sequence(&frames);
///
/// let mut decoder = Decoder::new();
/// let mut out = Vec::new();
/// for f in &stream {
///     out.extend(decoder.push(f).unwrap());
/// }
/// out.extend(decoder.flush());
/// assert_eq!(out.len(), 6);
/// assert_eq!(out[0].1, frames[0]); // quantizer 1 => lossless
/// ```
#[derive(Debug, Clone)]
pub struct Encoder {
    config: CodecConfig,
}

impl Encoder {
    /// Creates an encoder.
    pub fn new(config: CodecConfig) -> Self {
        Encoder { config }
    }

    /// The configuration.
    pub fn config(&self) -> &CodecConfig {
        &self.config
    }

    /// Encodes a display-order sequence into decode order.
    ///
    /// The trailing partial GOP is closed by promoting the final frame to
    /// an anchor so that every B frame has both references.
    ///
    /// # Panics
    ///
    /// Panics if frames differ in geometry.
    pub fn encode_sequence(&self, frames: &[RawFrame]) -> Vec<EncodedFrame> {
        let q = self.config.quantizer;
        let step = self.config.gop.anchor_every.max(1);
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
            let is_i =
                prev_anchor.is_none() || anchors_since_i >= self.config.gop.anchors_per_i.max(1);
            let (encoded, recon) = if is_i {
                anchors_since_i = 1;
                encode_intra_frame(frame, q, pos as u64)
            } else {
                anchors_since_i += 1;
                let (_, prev) = prev_anchor.as_ref().expect("P requires an anchor");
                let (p, recon) = encode_predicted_frame(FrameKind::P, frame, prev, q, pos as u64);
                (p, recon.expect("a P frame is reconstructed"))
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

/// The decoder: consumes decode-order frames, emits display-order frames.
#[derive(Debug, Clone, Default)]
pub struct Decoder {
    past_anchor: Option<RawFrame>,
    future_anchor: Option<(u64, RawFrame)>,
}

impl Decoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    fn decode_intra(f: &EncodedFrame) -> Result<RawFrame, CodecError> {
        let mut data = f.data.clone();
        let mut frame = RawFrame::filled(f.width as usize, f.height as usize, 0);
        let mut block = [0i32; 64];
        for by in 0..frame.blocks_y() {
            for bx in 0..frame.blocks_x() {
                decode_block(&mut data, &mut block)?;
                dequantize(&mut block, f.quantizer);
                inverse(&mut block);
                frame.write_block(bx, by, &block);
            }
        }
        if data.has_remaining() {
            return Err(CodecError::TrailingData);
        }
        Ok(frame)
    }

    fn decode_predicted(f: &EncodedFrame, predictor: &RawFrame) -> Result<RawFrame, CodecError> {
        if (predictor.width(), predictor.height()) != (f.width as usize, f.height as usize) {
            return Err(CodecError::GeometryMismatch);
        }
        let mut data = f.data.clone();
        let mut frame = RawFrame::filled(f.width as usize, f.height as usize, 0);
        let mut pred = [0i32; 64];
        let mut block = [0i32; 64];
        for by in 0..frame.blocks_y() {
            for bx in 0..frame.blocks_x() {
                predictor.read_block(bx, by, &mut pred);
                if !data.has_remaining() {
                    return Err(CodecError::Entropy(EntropyError::Truncated));
                }
                let flag = data.get_u8();
                if flag == 0 {
                    frame.write_block(bx, by, &pred);
                    continue;
                }
                decode_block(&mut data, &mut block)?;
                dequantize(&mut block, f.quantizer);
                inverse(&mut block);
                let mut rec = [0i32; 64];
                for i in 0..64 {
                    rec[i] = pred[i] + block[i];
                }
                frame.write_block(bx, by, &rec);
            }
        }
        if data.has_remaining() {
            return Err(CodecError::TrailingData);
        }
        Ok(frame)
    }

    /// Pushes one decode-order frame; returns frames that became
    /// displayable, as `(display_index, frame)` pairs in display order.
    ///
    /// # Errors
    ///
    /// Fails on bitstream corruption or missing references. The decoder
    /// state is unchanged on error, so a corrupted frame can be skipped.
    pub fn push(&mut self, f: &EncodedFrame) -> Result<Vec<(u64, RawFrame)>, CodecError> {
        match f.kind {
            FrameKind::I => {
                let recon = Self::decode_intra(f)?;
                Ok(self.install_anchor(f.display_index, recon))
            }
            FrameKind::P => {
                let Some((_, reference)) = &self.future_anchor else {
                    return Err(CodecError::MissingReference);
                };
                let recon = Self::decode_predicted(f, reference)?;
                Ok(self.install_anchor(f.display_index, recon))
            }
            FrameKind::B => {
                let (Some(past), Some((_, future))) = (&self.past_anchor, &self.future_anchor)
                else {
                    return Err(CodecError::MissingReference);
                };
                let avg = average_frames(past, future);
                let recon = Self::decode_predicted(f, &avg)?;
                Ok(vec![(f.display_index, recon)])
            }
        }
    }

    fn install_anchor(&mut self, index: u64, recon: RawFrame) -> Vec<(u64, RawFrame)> {
        let mut out = Vec::new();
        if let Some((idx, old)) = self.future_anchor.take() {
            out.push((idx, old.clone()));
            self.past_anchor = Some(old);
        }
        self.future_anchor = Some((index, recon));
        out
    }

    /// Signals end of stream, releasing the held anchor.
    pub fn flush(&mut self) -> Vec<(u64, RawFrame)> {
        self.future_anchor
            .take()
            .map(|(i, f)| vec![(i, f)])
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{psnr, SyntheticVideo};

    fn encode_decode(cfg: CodecConfig, n: u64) -> (Vec<RawFrame>, Vec<RawFrame>) {
        let video = SyntheticVideo::new(48, 32);
        let frames: Vec<_> = (0..n).map(|i| video.frame(i)).collect();
        let stream = Encoder::new(cfg).encode_sequence(&frames);
        let mut dec = Decoder::new();
        let mut out: Vec<(u64, RawFrame)> = Vec::new();
        for f in &stream {
            out.extend(dec.push(f).unwrap());
        }
        out.extend(dec.flush());
        out.sort_by_key(|(i, _)| *i);
        // Display order must be gapless 0..n.
        let indices: Vec<u64> = out.iter().map(|(i, _)| *i).collect();
        assert_eq!(indices, (0..n).collect::<Vec<_>>());
        (frames, out.into_iter().map(|(_, f)| f).collect())
    }

    #[test]
    fn lossless_at_q1_with_ipp() {
        let cfg = CodecConfig {
            quantizer: 1,
            gop: GopConfig::ipp(),
        };
        let (orig, decoded) = encode_decode(cfg, 10);
        assert_eq!(orig, decoded);
    }

    #[test]
    fn lossless_at_q1_with_ibbp() {
        let cfg = CodecConfig {
            quantizer: 1,
            gop: GopConfig::ibbp(),
        };
        let (orig, decoded) = encode_decode(cfg, 13);
        assert_eq!(orig, decoded);
    }

    #[test]
    fn lossy_quality_still_reasonable() {
        let cfg = CodecConfig {
            quantizer: 8,
            gop: GopConfig::ibbp(),
        };
        let (orig, decoded) = encode_decode(cfg, 9);
        for (a, b) in orig.iter().zip(&decoded) {
            let p = psnr(a, b);
            assert!(p > 30.0, "psnr {p} too low");
        }
    }

    #[test]
    fn higher_quantizer_means_smaller_stream() {
        let video = SyntheticVideo::new(48, 32);
        let frames: Vec<_> = (0..9).map(|i| video.frame(i)).collect();
        let size = |q: u16| -> usize {
            Encoder::new(CodecConfig {
                quantizer: q,
                gop: GopConfig::ipp(),
            })
            .encode_sequence(&frames)
            .iter()
            .map(|f| f.size_bytes())
            .sum()
        };
        assert!(size(16) < size(4));
        assert!(size(4) < size(1));
    }

    #[test]
    fn p_frames_smaller_than_i_frames() {
        let video = SyntheticVideo::new(48, 32);
        let frames: Vec<_> = (0..6).map(|i| video.frame(i)).collect();
        let stream = Encoder::new(CodecConfig {
            quantizer: 4,
            gop: GopConfig::ipp(),
        })
        .encode_sequence(&frames);
        assert_eq!(stream[0].kind, FrameKind::I);
        let i_size = stream[0].size_bytes();
        for p in &stream[1..] {
            assert_eq!(p.kind, FrameKind::P);
            assert!(p.size_bytes() < i_size, "P not smaller than I");
        }
    }

    #[test]
    fn gop_pattern_matches_config() {
        let video = SyntheticVideo::new(32, 32);
        let frames: Vec<_> = (0..13).map(|i| video.frame(i)).collect();
        let stream = Encoder::new(CodecConfig {
            quantizer: 4,
            gop: GopConfig {
                anchor_every: 3,
                anchors_per_i: 2,
            },
        })
        .encode_sequence(&frames);
        let kinds: Vec<FrameKind> = stream.iter().map(|f| f.kind).collect();
        // Decode order: I0, P3, B1, B2, I6, B4, B5, P9, B7, B8, I12, B10, B11
        assert_eq!(kinds[0], FrameKind::I);
        assert_eq!(kinds[1], FrameKind::P);
        assert_eq!(kinds[2], FrameKind::B);
        assert_eq!(kinds[4], FrameKind::I); // anchors_per_i = 2
    }

    #[test]
    fn decoder_rejects_p_without_reference() {
        let video = SyntheticVideo::new(32, 32);
        let frames: Vec<_> = (0..4).map(|i| video.frame(i)).collect();
        let stream = Encoder::new(CodecConfig {
            quantizer: 4,
            gop: GopConfig::ipp(),
        })
        .encode_sequence(&frames);
        let mut dec = Decoder::new();
        // Skip the I frame; feed the first P directly.
        assert_eq!(dec.push(&stream[1]), Err(CodecError::MissingReference));
    }

    #[test]
    fn decoder_rejects_truncated_data() {
        let video = SyntheticVideo::new(32, 32);
        let stream = Encoder::new(CodecConfig {
            quantizer: 4,
            gop: GopConfig::ipp(),
        })
        .encode_sequence(&[video.frame(0)]);
        let mut broken = stream[0].clone();
        broken.data = broken.data.slice(0..broken.data.len() / 2);
        let mut dec = Decoder::new();
        assert!(matches!(dec.push(&broken), Err(CodecError::Entropy(_))));
    }

    #[test]
    fn decoder_rejects_trailing_garbage() {
        let video = SyntheticVideo::new(32, 32);
        let stream = Encoder::new(CodecConfig {
            quantizer: 4,
            gop: GopConfig::ipp(),
        })
        .encode_sequence(&[video.frame(0)]);
        let mut broken = stream[0].clone();
        let mut data = broken.data.to_vec();
        data.push(0);
        broken.data = Bytes::from(data);
        let mut dec = Decoder::new();
        assert_eq!(dec.push(&broken), Err(CodecError::TrailingData));
    }

    #[test]
    fn static_scene_p_frames_are_all_skip() {
        let frame = SyntheticVideo::new(32, 32).frame(0);
        let frames = vec![frame.clone(), frame.clone(), frame];
        let stream = Encoder::new(CodecConfig {
            quantizer: 1,
            gop: GopConfig::ipp(),
        })
        .encode_sequence(&frames);
        for p in &stream[1..] {
            assert_eq!(p.coded_blocks, 0);
            assert_eq!(p.nonzero_coeffs, 0);
            // Just skip flags: one byte per block.
            assert_eq!(p.size_bytes(), p.total_blocks() as usize);
        }
    }

    #[test]
    fn empty_sequence_is_empty_stream() {
        let stream = Encoder::new(CodecConfig::default()).encode_sequence(&[]);
        assert!(stream.is_empty());
    }

    #[test]
    fn single_frame_stream() {
        let video = SyntheticVideo::new(32, 32);
        let frames = vec![video.frame(0)];
        let stream = Encoder::new(CodecConfig::default()).encode_sequence(&frames);
        assert_eq!(stream.len(), 1);
        assert_eq!(stream[0].kind, FrameKind::I);
    }
}
