//! Uniform affine quantization (Equation 2 of the QGTC paper).
//!
//! QGTC quantizes a 32-bit float `α` into a `q`-bit code
//!
//! ```text
//! α_q = floor((α - α_min) / scale)        scale = (α_max - α_min) / 2^q
//! ```
//!
//! where `α_min` / `α_max` are empirical bounds of the tensor (or supplied by the
//! user).  Codes are unsigned and live in `[0, 2^q - 1]`; dequantization maps a code
//! back to the centre of its bucket.  The same scheme is used for node-embedding
//! matrices and weight matrices; the binary adjacency matrix needs no calibration
//! because its entries are already 0/1.

use crate::error::{Result, TensorError};
use crate::matrix::Matrix;

/// Calibrated parameters for quantizing one tensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Number of bits per code, in `1..=32`.
    pub bits: u32,
    /// Lower bound of the represented range (`α_min` in the paper).
    pub min: f32,
    /// Bucket width (`scale` in the paper).
    pub scale: f32,
}

impl QuantParams {
    /// Calibrate parameters from an explicit range.
    ///
    /// `scale` follows Equation 2: the range divided by the number of representable
    /// codes `2^bits`.  Degenerate ranges (max == min) get a scale of 1 so that
    /// quantization maps everything to code 0 and dequantization returns `min`.
    /// A NaN or infinite bound, or finite bounds whose width overflows `f32`,
    /// is rejected: the scale would be non-finite and every code meaningless.
    pub fn from_range(bits: u32, min: f32, max: f32) -> Result<Self> {
        if bits == 0 || bits > 32 {
            return Err(TensorError::InvalidBitwidth(bits));
        }
        // NaN or infinite bounds make the width NaN or infinite as well.
        let range = (max - min).abs();
        if !range.is_finite() {
            return Err(TensorError::NonFiniteRange { min, max });
        }
        let levels = 2f64.powi(bits as i32) as f32;
        let scale = if range > 0.0 { range / levels } else { 1.0 };
        Ok(Self { bits, min, scale })
    }

    /// Calibrate parameters from the observed min/max of a matrix.
    pub fn calibrate(bits: u32, x: &Matrix<f32>) -> Result<Self> {
        let (mn, mx) = x.min_max();
        Self::from_range(bits, mn, mx)
    }

    /// Largest representable code, `2^bits - 1`.
    #[inline]
    pub fn max_code(&self) -> u32 {
        if self.bits >= 32 {
            u32::MAX
        } else {
            (1u32 << self.bits) - 1
        }
    }

    /// Quantize a single value to its unsigned code: `floor((v - min) / scale)`
    /// clamped to `[0, max_code]`, with NaN mapping to 0.
    ///
    /// No `floor` call: `max_code() as f32` is a whole number, so `x` and
    /// `floor(x)` fall on the same side of both clamps, and in between the
    /// truncating `as u32` is the floor of a positive `x`.
    #[inline]
    pub fn quantize(&self, v: f32) -> u32 {
        let x = (v - self.min) / self.scale;
        if x <= 0.0 {
            0
        } else if x >= self.max_code() as f32 {
            self.max_code()
        } else {
            x as u32
        }
    }

    /// [`QuantParams::quantize`] over a run of values into byte codes, for
    /// widths of at most 8 bits: the packers' input form.
    ///
    /// Clamp in float, then truncate.  The saturating `as u32` cast compiles
    /// to scalar code, so the clamp to `[0, max_code]` happens first and the
    /// in-range value is truncated with an unchecked conversion, which packs
    /// into SSE2.  `x > 0.0` is false for NaN and for `x ≤ 0`, which all map
    /// to 0 as in `quantize`; `max_code` is an exact `f32`, so the top clamp
    /// and `quantize`'s `x >= max_code` test agree, and in between truncation
    /// is `quantize`'s `x as u32`.  So every code equals `quantize`'s, bit for
    /// bit.
    pub fn quantize_bytes_into(&self, values: &[f32], codes: &mut [u8]) {
        assert!(
            self.bits <= 8,
            "{}-bit codes do not fit in a byte",
            self.bits
        );
        assert_eq!(values.len(), codes.len(), "one code per value");
        let top = self.max_code() as f32;
        for (code, &v) in codes.iter_mut().zip(values) {
            let x = (v - self.min) / self.scale;
            let x = if x > 0.0 { x } else { 0.0 };
            let x = if x < top { x } else { top };
            // SAFETY: `x` is finite and lies in `[0, top]` with
            // `top = 2^bits - 1 <= 255` (asserted above), so the truncated
            // value is representable in `i32`, and the narrowing keeps it whole.
            *code = unsafe { x.to_int_unchecked::<i32>() } as u8;
        }
    }

    /// Map a code back to the centre of its bucket.
    #[inline]
    pub fn dequantize(&self, code: u32) -> f32 {
        self.min + (code as f32 + 0.5) * self.scale
    }
}

/// Convenience wrapper that quantizes whole matrices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    params: QuantParams,
}

impl Quantizer {
    /// Build a quantizer from explicit parameters.
    pub fn new(params: QuantParams) -> Self {
        Self { params }
    }

    /// Calibrate a quantizer for `bits` on the value range of `x`.
    pub fn calibrate(bits: u32, x: &Matrix<f32>) -> Result<Self> {
        Ok(Self {
            params: QuantParams::calibrate(bits, x)?,
        })
    }

    /// The underlying parameters.
    pub fn params(&self) -> QuantParams {
        self.params
    }

    /// Quantize a full matrix into unsigned integer codes stored as `i64`
    /// (wide enough for exact integer GEMM accumulation downstream).
    pub fn quantize_matrix(&self, x: &Matrix<f32>) -> Matrix<i64> {
        x.map(|&v| self.params.quantize(v) as i64)
    }

    /// Quantize a full matrix into `u32` codes (the packing input format).
    pub fn quantize_matrix_u32(&self, x: &Matrix<f32>) -> Matrix<u32> {
        x.map(|&v| self.params.quantize(v))
    }

    /// Dequantize an integer-code matrix back to `f32`.
    pub fn dequantize_matrix(&self, codes: &Matrix<i64>) -> Matrix<f32> {
        codes.map(|&c| self.params.dequantize(c.max(0) as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_bitwidths() {
        assert!(QuantParams::from_range(0, 0.0, 1.0).is_err());
        assert!(QuantParams::from_range(33, 0.0, 1.0).is_err());
        assert!(QuantParams::from_range(1, 0.0, 1.0).is_ok());
        assert!(QuantParams::from_range(32, 0.0, 1.0).is_ok());
    }

    #[test]
    fn rejects_non_finite_ranges() {
        for (min, max) in [
            (f32::NAN, 1.0),
            (0.0, f32::NAN),
            (f32::NEG_INFINITY, 1.0),
            (0.0, f32::INFINITY),
            (f32::INFINITY, f32::NEG_INFINITY),
            (f32::INFINITY, f32::INFINITY),
            // Finite bounds whose width overflows.
            (f32::MIN, f32::MAX),
            (-2e38, 2e38),
        ] {
            let err = QuantParams::from_range(2, min, max).unwrap_err();
            assert!(matches!(err, TensorError::NonFiniteRange { .. }), "{err}");
        }
        let x = Matrix::from_vec(1, 3, vec![0.0, f32::INFINITY, 1.0]).unwrap();
        assert!(Quantizer::calibrate(2, &x).is_err());
        // NaN without any infinity (e.g. `inf - inf` downstream) fails alike.
        let x = Matrix::from_vec(1, 3, vec![0.0, f32::NAN, 1.0]).unwrap();
        let err = QuantParams::calibrate(2, &x).unwrap_err();
        assert!(matches!(err, TensorError::NonFiniteRange { .. }), "{err}");
        let x = Matrix::from_vec(1, 2, vec![-2e38, 2e38]).unwrap();
        assert!(Quantizer::calibrate(2, &x).is_err());
        // The widest representable ranges still calibrate.
        assert!(QuantParams::from_range(2, 0.0, f32::MAX).is_ok());
        assert!(QuantParams::from_range(2, -1.7e38, 1.7e38).is_ok());
    }

    /// The `floor`-based definition the floor-free `quantize` must match.
    fn floor_reference(p: &QuantParams, v: f32) -> u32 {
        let code = ((v - p.min) / p.scale).floor();
        if code <= 0.0 {
            0
        } else if code >= p.max_code() as f32 {
            p.max_code()
        } else {
            code as u32
        }
    }

    #[test]
    fn floor_free_quantize_matches_the_floor_reference() {
        let specials = [
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MAX,
            f32::MIN,
            1.0,
            -1.0,
        ];
        for bits in [1u32, 2, 3, 4, 7, 8, 16, 24, 25, 31, 32] {
            for (min, max) in [(0.0f32, 1.0f32), (-3.0, 5.0), (-1e-30, 1e-30), (0.0, 0.0)] {
                let p = QuantParams::from_range(bits, min, max).unwrap();
                let mut probes: Vec<f32> = specials.to_vec();
                // Every bucket boundary (up to 4096 of them) and its two
                // float neighbours.
                let levels = (p.max_code() as u64 + 1).min(4096);
                for k in 0..=levels {
                    let edge = p.min + k as f32 * p.scale;
                    probes.push(edge);
                    probes.push(f32::from_bits(edge.to_bits().wrapping_add(1)));
                    probes.push(f32::from_bits(edge.to_bits().wrapping_sub(1)));
                }
                for v in probes {
                    assert_eq!(
                        p.quantize(v),
                        floor_reference(&p, v),
                        "bits {bits} range [{min}, {max}] value {v:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn codes_stay_in_range() {
        let p = QuantParams::from_range(3, -1.0, 1.0).unwrap();
        assert_eq!(p.max_code(), 7);
        assert_eq!(p.quantize(-5.0), 0);
        assert_eq!(p.quantize(5.0), 7);
        for i in 0..100 {
            let v = -1.0 + 2.0 * i as f32 / 99.0;
            assert!(p.quantize(v) <= 7);
        }
    }

    #[test]
    fn quantize_dequantize_error_bounded() {
        let p = QuantParams::from_range(8, -4.0, 4.0).unwrap();
        for i in 0..1000 {
            let v = -4.0 + 8.0 * i as f32 / 999.0;
            let code = p.quantize(v);
            let back = p.dequantize(code);
            assert!(
                (v - back).abs() <= p.scale,
                "value {v} decoded to {back} (scale {})",
                p.scale
            );
        }
    }

    #[test]
    fn degenerate_range_is_safe() {
        let p = QuantParams::from_range(4, 2.5, 2.5).unwrap();
        assert_eq!(p.quantize(2.5), 0);
        assert!(p.dequantize(0).is_finite());
    }

    #[test]
    fn one_bit_quantization_is_binary() {
        let p = QuantParams::from_range(1, 0.0, 1.0).unwrap();
        assert_eq!(p.max_code(), 1);
        assert_eq!(p.quantize(0.1), 0);
        assert_eq!(p.quantize(0.9), 1);
    }

    #[test]
    fn calibrate_uses_matrix_range() {
        let x = Matrix::from_vec(1, 4, vec![-2.0, 0.0, 1.0, 6.0]).unwrap();
        let q = Quantizer::calibrate(4, &x).unwrap();
        assert_eq!(q.params().min, -2.0);
        assert!((q.params().scale - 8.0 / 16.0).abs() < 1e-6);
    }

    #[test]
    fn matrix_round_trip_error_bounded() {
        let x = Matrix::from_vec(2, 3, vec![-1.0, -0.5, 0.0, 0.25, 0.5, 1.0]).unwrap();
        let q = Quantizer::calibrate(6, &x).unwrap();
        let codes = q.quantize_matrix(&x);
        let back = q.dequantize_matrix(&codes);
        assert!(x.max_abs_diff(&back).unwrap() <= q.params().scale);
    }

    #[test]
    fn u32_and_i64_codes_agree() {
        let x = Matrix::from_vec(1, 5, vec![0.0, 0.2, 0.4, 0.6, 0.8]).unwrap();
        let q = Quantizer::calibrate(3, &x).unwrap();
        let a = q.quantize_matrix(&x);
        let b = q.quantize_matrix_u32(&x);
        for i in 0..5 {
            assert_eq!(a[(0, i)] as u32, b[(0, i)]);
        }
    }
}
