//! Error type shared by the dense-tensor substrate.

use std::fmt;

/// Errors produced by dense-tensor operations.
#[derive(Debug, Clone, PartialEq)]
pub enum TensorError {
    /// Two shapes that were required to agree did not.
    ShapeMismatch {
        /// Human-readable description of the operation that failed.
        op: String,
        /// Left-hand shape (rows, cols).
        lhs: (usize, usize),
        /// Right-hand shape (rows, cols).
        rhs: (usize, usize),
    },
    /// An index was outside the bounds of the matrix.
    IndexOutOfBounds {
        /// Requested (row, col).
        index: (usize, usize),
        /// Matrix shape (rows, cols).
        shape: (usize, usize),
    },
    /// The requested quantization bitwidth is unsupported (must be 1..=32).
    InvalidBitwidth(u32),
    /// A matrix with zero rows or columns was passed where a non-empty one is needed.
    EmptyMatrix {
        /// Operation that rejected the empty matrix.
        op: String,
    },
    /// A quantization range bound is NaN or infinite, or the range is wider
    /// than `f32` can represent.
    NonFiniteRange {
        /// The requested lower bound.
        min: f32,
        /// The requested upper bound.
        max: f32,
    },
    /// Data length does not match rows*cols.
    DataLengthMismatch {
        /// Expected number of elements.
        expected: usize,
        /// Provided number of elements.
        actual: usize,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: lhs is {}x{}, rhs is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            TensorError::IndexOutOfBounds { index, shape } => write!(
                f,
                "index ({}, {}) out of bounds for {}x{} matrix",
                index.0, index.1, shape.0, shape.1
            ),
            TensorError::InvalidBitwidth(bits) => {
                write!(
                    f,
                    "invalid quantization bitwidth {bits} (must be in 1..=32)"
                )
            }
            TensorError::EmptyMatrix { op } => {
                write!(f, "operation {op} requires a non-empty matrix")
            }
            TensorError::NonFiniteRange { min, max } => write!(
                f,
                "quantization range [{min}, {max}] is not finite (a NaN or infinite bound, or a width beyond f32)"
            ),
            TensorError::DataLengthMismatch { expected, actual } => write!(
                f,
                "data length mismatch: expected {expected} elements, got {actual}"
            ),
        }
    }
}

impl std::error::Error for TensorError {}

/// Convenience alias used across the tensor crate.
pub type Result<T> = std::result::Result<T, TensorError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shape_mismatch() {
        let e = TensorError::ShapeMismatch {
            op: "gemm".to_string(),
            lhs: (2, 3),
            rhs: (4, 5),
        };
        let s = e.to_string();
        assert!(s.contains("gemm"));
        assert!(s.contains("2x3"));
        assert!(s.contains("4x5"));
    }

    #[test]
    fn display_index_out_of_bounds() {
        let e = TensorError::IndexOutOfBounds {
            index: (10, 0),
            shape: (4, 4),
        };
        assert!(e.to_string().contains("out of bounds"));
    }

    #[test]
    fn display_invalid_bitwidth() {
        assert!(TensorError::InvalidBitwidth(0).to_string().contains('0'));
        assert!(TensorError::InvalidBitwidth(33).to_string().contains("33"));
    }

    #[test]
    fn display_empty_and_length() {
        assert!(TensorError::EmptyMatrix {
            op: "softmax".into()
        }
        .to_string()
        .contains("softmax"));
        let e = TensorError::DataLengthMismatch {
            expected: 6,
            actual: 5,
        };
        assert!(e.to_string().contains('6'));
        assert!(e.to_string().contains('5'));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&TensorError::InvalidBitwidth(0));
    }
}
