//! Raw video frames and synthetic content.
//!
//! Frames are 8-bit grayscale (one luma plane — chroma would only scale the
//! numbers). [`SyntheticVideo`] generates deterministic test content with
//! temporal coherence: a smooth gradient background with moving discs, so
//! P-frames genuinely compress and the codec's rate behaviour resembles
//! real MPEG on real content.

/// Panics unless both dimensions are positive multiples of 8 (the codec's
/// block size).
fn check_dimensions(width: usize, height: usize) {
    assert!(
        width > 0 && height > 0 && width.is_multiple_of(8) && height.is_multiple_of(8),
        "frame dimensions must be positive multiples of 8"
    );
}

/// One uncompressed frame.
///
/// # Examples
///
/// ```
/// use hydra_media::frame::RawFrame;
///
/// let f = RawFrame::filled(16, 8, 128);
/// assert_eq!(f.get(3, 2), 128);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFrame {
    width: usize,
    height: usize,
    pixels: Vec<u8>,
}

impl RawFrame {
    /// Creates a frame filled with `value`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or not a multiple of 8 (the
    /// codec's block size).
    pub fn filled(width: usize, height: usize, value: u8) -> Self {
        check_dimensions(width, height);
        RawFrame {
            width,
            height,
            pixels: vec![value; width * height],
        }
    }

    /// Creates a frame from raw pixels.
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len() != width * height` or the dimensions are
    /// invalid.
    pub fn from_pixels(width: usize, height: usize, pixels: Vec<u8>) -> Self {
        assert_eq!(pixels.len(), width * height, "pixel count mismatch");
        check_dimensions(width, height);
        RawFrame {
            width,
            height,
            pixels,
        }
    }

    /// Frame width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, x: usize, y: usize) -> u8 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.pixels[y * self.width + x]
    }

    /// Sets the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, x: usize, y: usize, value: u8) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.pixels[y * self.width + x] = value;
    }

    /// The raw pixel plane, row-major.
    pub fn pixels(&self) -> &[u8] {
        &self.pixels
    }

    /// Number of 8×8 blocks per row.
    pub fn blocks_x(&self) -> usize {
        self.width / 8
    }

    /// Number of 8×8 block rows.
    pub fn blocks_y(&self) -> usize {
        self.height / 8
    }

    /// Total 8×8 blocks.
    pub fn block_count(&self) -> usize {
        self.blocks_x() * self.blocks_y()
    }

    /// Copies the 8×8 block at block coordinates `(bx, by)` into `out`.
    ///
    /// # Panics
    ///
    /// Panics if the block coordinates are out of range.
    pub fn read_block(&self, bx: usize, by: usize, out: &mut [i32; 64]) {
        assert!(bx < self.blocks_x() && by < self.blocks_y(), "block OOB");
        for row in 0..8 {
            let base = (by * 8 + row) * self.width + bx * 8;
            for col in 0..8 {
                out[row * 8 + col] = i32::from(self.pixels[base + col]);
            }
        }
    }

    /// Writes an 8×8 block (clamping to `0..=255`) at `(bx, by)`.
    ///
    /// # Panics
    ///
    /// Panics if the block coordinates are out of range.
    pub fn write_block(&mut self, bx: usize, by: usize, block: &[i32; 64]) {
        assert!(bx < self.blocks_x() && by < self.blocks_y(), "block OOB");
        for row in 0..8 {
            let base = (by * 8 + row) * self.width + bx * 8;
            for col in 0..8 {
                self.pixels[base + col] = block[row * 8 + col].clamp(0, 255) as u8;
            }
        }
    }
}

/// Peak signal-to-noise ratio between two frames, in dB.
///
/// Returns `f64::INFINITY` for identical frames.
///
/// # Panics
///
/// Panics if the frames' dimensions differ.
pub fn psnr(a: &RawFrame, b: &RawFrame) -> f64 {
    assert_eq!(
        (a.width, a.height),
        (b.width, b.height),
        "psnr: dimension mismatch"
    );
    let mse: f64 = a
        .pixels
        .iter()
        .zip(&b.pixels)
        .map(|(&x, &y)| {
            let d = f64::from(x) - f64::from(y);
            d * d
        })
        .sum::<f64>()
        / a.pixels.len() as f64;
    if mse == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (255.0f64 * 255.0 / mse).log10()
    }
}

/// Sets `row[x] = value` for every `x` with `(x - cx)² + dy² <= r²`,
/// which is exactly the span `|x - cx| <= isqrt(r² - dy²)`.
fn paint_disc_row(row: &mut [u8], cx: i64, dy: i64, r: i64, value: u8) {
    let room = r * r - dy * dy;
    if room < 0 {
        return;
    }
    let half = room.isqrt();
    let lo = (cx - half).max(0);
    let hi = (cx + half).min(row.len() as i64 - 1);
    if lo <= hi {
        row[lo as usize..=hi as usize].fill(value);
    }
}

/// A deterministic synthetic video source.
///
/// # Examples
///
/// ```
/// use hydra_media::frame::SyntheticVideo;
///
/// let video = SyntheticVideo::new(64, 32);
/// let f0 = video.frame(0);
/// let f1 = video.frame(1);
/// assert_ne!(f0, f1); // motion
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SyntheticVideo {
    width: usize,
    height: usize,
}

impl SyntheticVideo {
    /// Creates a source with the given frame geometry.
    pub fn new(width: usize, height: usize) -> Self {
        // Validate via RawFrame's constructor rules.
        let _ = RawFrame::filled(width, height, 0);
        SyntheticVideo { width, height }
    }

    /// Renders frame `index`: gradient background plus two moving discs.
    pub fn frame(&self, index: u64) -> RawFrame {
        let w = self.width as i64;
        let h = self.height as i64;
        // Disc centres orbit the frame.
        let t = index as f64 * 0.12;
        let cx1 = (w as f64 / 2.0 + (w as f64 / 3.0) * t.cos()) as i64;
        let cy1 = (h as f64 / 2.0 + (h as f64 / 3.0) * t.sin()) as i64;
        let cx2 = (w as f64 / 2.0 + (w as f64 / 4.0) * (1.7 * t).sin()) as i64;
        let cy2 = (h as f64 / 2.0 + (h as f64 / 4.0) * (1.3 * t).cos()) as i64;
        let r1 = (w.min(h) / 6).max(2);
        let r2 = (w.min(h) / 8).max(2);
        // The background gradient, split into its column and row terms.
        let column: Vec<i64> = (0..w).map(|x| (x * 192) / w).collect();
        let mut pixels = vec![0u8; self.width * self.height];
        for (y, out) in (0..h).zip(pixels.chunks_exact_mut(self.width)) {
            // Smooth background gradient, slowly drifting.
            let row = (y * 40) / h + (index % 16) as i64;
            for (p, &col) in out.iter_mut().zip(&column) {
                *p = (col + row).clamp(0, 255) as u8;
            }
            // The discs, in order: the second covers the first.
            paint_disc_row(out, cx1, y - cy1, r1, 230);
            paint_disc_row(out, cx2, y - cy2, r2, 30);
        }
        RawFrame::from_pixels(self.width, self.height, pixels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-pixel definition that [`SyntheticVideo::frame`] renders
    /// row by row: its oracle.
    fn frame_by_pixel(width: usize, height: usize, index: u64) -> Vec<u8> {
        let w = width as i64;
        let h = height as i64;
        let mut pixels = Vec::with_capacity(width * height);
        let t = index as f64 * 0.12;
        let cx1 = (w as f64 / 2.0 + (w as f64 / 3.0) * t.cos()) as i64;
        let cy1 = (h as f64 / 2.0 + (h as f64 / 3.0) * t.sin()) as i64;
        let cx2 = (w as f64 / 2.0 + (w as f64 / 4.0) * (1.7 * t).sin()) as i64;
        let cy2 = (h as f64 / 2.0 + (h as f64 / 4.0) * (1.3 * t).cos()) as i64;
        let r1 = (w.min(h) / 6).max(2);
        let r2 = (w.min(h) / 8).max(2);
        for y in 0..h {
            for x in 0..w {
                let bg = (x * 192) / w + (y * 40) / h + (index % 16) as i64;
                let mut v = bg.clamp(0, 255);
                let d1 = (x - cx1).pow(2) + (y - cy1).pow(2);
                if d1 <= r1 * r1 {
                    v = 230;
                }
                let d2 = (x - cx2).pow(2) + (y - cy2).pow(2);
                if d2 <= r2 * r2 {
                    v = 30;
                }
                pixels.push(v as u8);
            }
        }
        pixels
    }

    #[test]
    fn frame_matches_per_pixel_definition() {
        for (w, h) in [(8, 8), (16, 8), (64, 32), (176, 144), (40, 160)] {
            let video = SyntheticVideo::new(w, h);
            for index in [0, 1, 7, 16, 40, 99, 1000] {
                assert_eq!(
                    video.frame(index).pixels(),
                    &frame_by_pixel(w, h, index)[..],
                    "{w}x{h} frame {index}"
                );
            }
        }
    }

    #[test]
    fn get_set_round_trip() {
        let mut f = RawFrame::filled(16, 8, 0);
        f.set(15, 7, 200);
        assert_eq!(f.get(15, 7), 200);
        assert_eq!(f.get(0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "multiples of 8")]
    fn odd_dimensions_rejected() {
        RawFrame::filled(10, 8, 0);
    }

    #[test]
    #[should_panic(expected = "pixel count mismatch")]
    fn wrong_pixel_count_rejected() {
        RawFrame::from_pixels(8, 8, vec![0; 63]);
    }

    #[test]
    fn block_io_round_trip() {
        let video = SyntheticVideo::new(32, 16);
        let f = video.frame(3);
        let mut copy = RawFrame::filled(32, 16, 0);
        let mut block = [0i32; 64];
        for by in 0..f.blocks_y() {
            for bx in 0..f.blocks_x() {
                f.read_block(bx, by, &mut block);
                copy.write_block(bx, by, &block);
            }
        }
        assert_eq!(f, copy);
        assert_eq!(f.block_count(), 8);
    }

    #[test]
    fn write_block_clamps() {
        let mut f = RawFrame::filled(8, 8, 0);
        let mut block = [300i32; 64];
        block[0] = -5;
        f.write_block(0, 0, &block);
        assert_eq!(f.get(0, 0), 0);
        assert_eq!(f.get(1, 0), 255);
    }

    #[test]
    fn psnr_identical_is_infinite() {
        let f = SyntheticVideo::new(16, 16).frame(0);
        assert_eq!(psnr(&f, &f), f64::INFINITY);
    }

    #[test]
    fn psnr_decreases_with_noise() {
        let f = SyntheticVideo::new(16, 16).frame(0);
        let mut slightly = f.clone();
        slightly.set(0, 0, f.get(0, 0).wrapping_add(10));
        let mut very = f.clone();
        for x in 0..16 {
            for y in 0..16 {
                very.set(x, y, f.get(x, y).wrapping_add(60));
            }
        }
        assert!(psnr(&f, &slightly) > psnr(&f, &very));
    }

    #[test]
    fn synthetic_video_is_deterministic_and_moving() {
        let v = SyntheticVideo::new(32, 32);
        assert_eq!(v.frame(5), v.frame(5));
        assert_ne!(v.frame(5), v.frame(6));
    }

    #[test]
    fn consecutive_frames_are_similar() {
        // Temporal coherence: P-frame compression relies on this.
        let v = SyntheticVideo::new(64, 64);
        let a = v.frame(10);
        let b = v.frame(11);
        let far = v.frame(40);
        assert!(psnr(&a, &b) > psnr(&a, &far));
    }
}
