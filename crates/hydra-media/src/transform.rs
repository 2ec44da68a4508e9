//! The 8×8 integer block transform and quantization.
//!
//! Real MPEG uses the floating-point DCT; like H.264's integer transform we
//! substitute an exactly invertible integer transform — a 2-D Walsh–
//! Hadamard transform (WHT) — so that at quantizer step 1 the codec is
//! mathematically lossless, a property the round-trip tests rely on. The
//! WHT shares the DCT's essential behaviour on smooth content: energy
//! compacts into the low-order coefficients, which the zigzag scan then
//! groups for run-length coding.

/// Forward 1-D WHT on 8 elements: the classic in-place butterfly network.
/// Unnormalized — applying it twice yields the input scaled by 8, which is
/// what makes the forward/inverse pair exact in integer arithmetic.
fn wht8(v: &mut [i32; 8]) {
    let mut stride = 1;
    while stride < 8 {
        let mut base = 0;
        while base < 8 {
            for off in 0..stride {
                let a = v[base + off];
                let b = v[base + stride + off];
                v[base + off] = a + b;
                v[base + stride + off] = a - b;
            }
            base += 2 * stride;
        }
        stride *= 2;
    }
}

/// Inverse 1-D WHT: the Hadamard matrix is its own inverse up to the gain
/// of 8, which [`inverse`] divides out after both dimensions.
fn iwht8(v: &mut [i32; 8]) {
    wht8(v);
}

/// Forward 2-D transform of an 8×8 block, in place.
///
/// Output coefficients carry a gain of 64 relative to the input.
pub fn forward(block: &mut [i32; 64]) {
    let mut tmp = [0i32; 8];
    for row in 0..8 {
        tmp.copy_from_slice(&block[row * 8..row * 8 + 8]);
        wht8(&mut tmp);
        block[row * 8..row * 8 + 8].copy_from_slice(&tmp);
    }
    for col in 0..8 {
        for (i, t) in tmp.iter_mut().enumerate() {
            *t = block[i * 8 + col];
        }
        wht8(&mut tmp);
        for (i, t) in tmp.iter().enumerate() {
            block[i * 8 + col] = *t;
        }
    }
}

/// Inverse 2-D transform, in place, undoing [`forward`] exactly
/// (including the gain of 64).
pub fn inverse(block: &mut [i32; 64]) {
    let mut tmp = [0i32; 8];
    for row in 0..8 {
        tmp.copy_from_slice(&block[row * 8..row * 8 + 8]);
        iwht8(&mut tmp);
        block[row * 8..row * 8 + 8].copy_from_slice(&tmp);
    }
    for col in 0..8 {
        for (i, t) in tmp.iter_mut().enumerate() {
            *t = block[i * 8 + col];
        }
        iwht8(&mut tmp);
        for (i, t) in tmp.iter().enumerate() {
            block[i * 8 + col] = *t;
        }
    }
    for c in block.iter_mut() {
        // The 2-D forward+inverse pair carries a gain of 64. For exact
        // forward outputs (q = 1) the division is exact; for dequantized
        // coefficients round to nearest to avoid truncation bias.
        *c = (*c + 32).div_euclid(64);
    }
}

/// The zigzag scan order for an 8×8 block (row, col diagonal traversal),
/// grouping low-frequency coefficients first.
pub const ZIGZAG: [usize; 64] = build_zigzag();

const fn build_zigzag() -> [usize; 64] {
    let mut order = [0usize; 64];
    let mut idx = 0;
    let mut d = 0;
    while d < 15 {
        // Traverse each anti-diagonal, alternating direction.
        if d % 2 == 0 {
            // Up-right.
            let mut row = if d < 8 { d } else { 7 };
            loop {
                let col = d - row;
                if col > 7 {
                    break;
                }
                order[idx] = row * 8 + col;
                idx += 1;
                if row == 0 {
                    break;
                }
                row -= 1;
            }
        } else {
            // Down-left.
            let mut col = if d < 8 { d } else { 7 };
            loop {
                let row = d - col;
                if row > 7 {
                    break;
                }
                order[idx] = row * 8 + col;
                idx += 1;
                if col == 0 {
                    break;
                }
                col -= 1;
            }
        }
        d += 1;
    }
    order[63] = 63;
    order
}

/// Quantizes transform coefficients in place: symmetric division by `q`
/// with rounding toward nearest, `sign(c) * ((|c| + q/2) / q)`.
///
/// The division is an exact reciprocal multiply: with `m = ceil(2^48 / q)`
/// and `n = |c| + q/2 < 2^32`, `floor(n * m / 2^48) == floor(n / q)` for
/// every `q` in `1..=u16::MAX`, because `m * q - 2^48 < q <= 2^16` keeps the
/// error term `n * (m * q - 2^48) / (q * 2^48)` below `1 / q`. The product
/// needs up to 80 bits, hence `u128`. Working in 64 bits also means `|c|` near
/// `i32::MAX` (or `c == i32::MIN`) no longer overflows.
///
/// # Panics
///
/// Panics if `q` is zero.
pub fn quantize(block: &mut [i32; 64], q: u16) {
    assert!(q > 0, "quantizer step must be positive");
    let half = u64::from(q / 2);
    let m = u128::from((1u64 << 48).div_ceil(u64::from(q)));
    for c in block.iter_mut() {
        let n = u64::from(c.unsigned_abs()) + half;
        let mag = ((u128::from(n) * m) >> 48) as i64;
        *c = (if *c < 0 { -mag } else { mag }) as i32;
    }
}

/// Reverses [`quantize`]: multiplies by `q`.
pub fn dequantize(block: &mut [i32; 64], q: u16) {
    let q = i32::from(q);
    for c in block.iter_mut() {
        *c *= q;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transform_pair_is_identity() {
        let mut block = [0i32; 64];
        for (i, b) in block.iter_mut().enumerate() {
            *b = (i as i32 * 7) % 256 - 100;
        }
        let original = block;
        forward(&mut block);
        inverse(&mut block);
        assert_eq!(block, original);
    }

    #[test]
    fn dc_of_constant_block_dominates() {
        let mut block = [100i32; 64];
        forward(&mut block);
        assert_eq!(block[0], 100 * 64);
        assert!(block[1..].iter().all(|&c| c == 0));
    }

    #[test]
    fn smooth_block_compacts_energy() {
        let mut block = [0i32; 64];
        for row in 0..8 {
            for col in 0..8 {
                block[row * 8 + col] = (row * 4 + col * 8) as i32;
            }
        }
        forward(&mut block);
        // Count significant coefficients: a smooth gradient needs few.
        let nonzero = block.iter().filter(|&&c| c.abs() > 32).count();
        assert!(
            nonzero <= 8,
            "gradient produced {nonzero} large coefficients"
        );
    }

    #[test]
    fn zigzag_is_a_permutation() {
        let mut seen = [false; 64];
        for &i in &ZIGZAG {
            assert!(!seen[i], "duplicate index {i}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // First few entries follow the classic pattern.
        assert_eq!(&ZIGZAG[..6], &[0, 1, 8, 16, 9, 2]);
        assert_eq!(ZIGZAG[63], 63);
    }

    #[test]
    fn quantize_dequantize_is_lossless_at_q1() {
        let mut block = [0i32; 64];
        for (i, b) in block.iter_mut().enumerate() {
            *b = i as i32 * 13 - 400;
        }
        let original = block;
        quantize(&mut block, 1);
        dequantize(&mut block, 1);
        assert_eq!(block, original);
    }

    #[test]
    fn quantize_error_bounded_by_half_step() {
        let mut block = [0i32; 64];
        for (i, b) in block.iter_mut().enumerate() {
            *b = (i as i32 * 37) % 1000 - 500;
        }
        let original = block;
        quantize(&mut block, 16);
        dequantize(&mut block, 16);
        for (a, b) in original.iter().zip(&block) {
            assert!((a - b).abs() <= 8, "error {} exceeds q/2", (a - b).abs());
        }
    }

    #[test]
    fn quantize_is_symmetric_in_sign() {
        let mut pos = [7i32; 64];
        let mut neg = [-7i32; 64];
        quantize(&mut pos, 5);
        quantize(&mut neg, 5);
        for (p, n) in pos.iter().zip(&neg) {
            assert_eq!(*p, -n);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_quantizer_panics() {
        quantize(&mut [0i32; 64], 0);
    }
}
