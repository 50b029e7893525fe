//! Row-major dense matrix container.
//!
//! [`Matrix<T>`] is the basic dense container used throughout the reproduction: node
//! embedding matrices, weight matrices, densified subgraph adjacency matrices and the
//! `u32`-word storage behind packed bit tensors are all `Matrix` values.  The type is
//! intentionally minimal — shape-checked indexing, row access, iteration and a few
//! constructors — with the heavier numerics living in [`crate::gemm`] and
//! [`crate::ops`].

use crate::error::{Result, TensorError};

/// A row-major dense matrix.
///
/// The element type `T` is generic; the crate provides numeric helpers for the types
/// that actually occur in QGTC: `f32` (full-precision path), `i32`/`i64` (quantized
/// values and accumulators) and `u32` (packed bit words).
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T> Matrix<T> {
    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// Whether the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Immutable view of the underlying row-major storage.
    #[inline]
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the underlying row-major storage.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consume the matrix and return its storage.
    pub fn into_data(self) -> Vec<T> {
        self.data
    }

    /// Build a matrix from row-major data, checking the length.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::DataLengthMismatch {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Immutable slice of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        debug_assert!(
            r < self.rows,
            "row {} out of bounds ({} rows)",
            r,
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable slice of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        debug_assert!(
            r < self.rows,
            "row {} out of bounds ({} rows)",
            r,
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Checked element access.
    pub fn try_get(&self, r: usize, c: usize) -> Result<&T> {
        if r >= self.rows || c >= self.cols {
            return Err(TensorError::IndexOutOfBounds {
                index: (r, c),
                shape: (self.rows, self.cols),
            });
        }
        Ok(&self.data[r * self.cols + c])
    }

    /// Iterate over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[T]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Apply a function to every element, producing a new matrix.
    pub fn map<U, F: FnMut(&T) -> U>(&self, f: F) -> Matrix<U> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(f).collect(),
        }
    }
}

impl<T: Clone> Matrix<T> {
    /// Create a matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: T) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Extract a sub-matrix given row and column index lists (gather).
    ///
    /// This is the densification primitive used when materialising a subgraph's
    /// feature rows: `rows_idx` selects which rows to keep, in order.
    pub fn gather_rows(&self, rows_idx: &[usize]) -> Self {
        let mut data = Vec::with_capacity(rows_idx.len() * self.cols);
        for &r in rows_idx {
            data.extend_from_slice(self.row(r));
        }
        Self {
            rows: rows_idx.len(),
            cols: self.cols,
            data,
        }
    }

    /// Transpose (out-of-place).
    pub fn transpose(&self) -> Self {
        let mut data = Vec::with_capacity(self.len());
        for c in 0..self.cols {
            for r in 0..self.rows {
                data.push(self.data[r * self.cols + c].clone());
            }
        }
        Self {
            rows: self.cols,
            cols: self.rows,
            data,
        }
    }
}

impl<T: Default + Clone> Matrix<T> {
    /// Create a matrix of default values (zeros for numeric types).
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, T::default())
    }
}

impl Matrix<f32> {
    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Maximum absolute element-wise difference against another matrix of equal shape.
    pub fn max_abs_diff(&self, other: &Self) -> Result<f32> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "max_abs_diff".into(),
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max))
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Minimum and maximum element: [`ValueRange::bounds`] of one scan over
    /// the data, so `(0.0, 0.0)` for an empty matrix and `(NaN, NaN)` when any
    /// element is NaN.
    pub fn min_max(&self) -> (f32, f32) {
        ValueRange::of(&self.data).bounds()
    }
}

/// Number of independent lanes a [`ValueRange`] scans with.
const RANGE_LANES: usize = 16;

/// The running minimum and maximum of a stream of `f32` values.
///
/// A sequential `f32::min`/`max` fold is one long dependency chain, so the
/// scan keeps independent lanes whose compare-and-select the compiler emits as
/// packed `minps`/`maxps`, with a NaN flag per lane.  Ranges of separately
/// scanned runs — the row blocks a GEMM finishes on different threads —
/// [`merge`](ValueRange::merge) into the range of all of them.
///
/// [`bounds`](ValueRange::bounds) equals the sequential fold's result except
/// that a tie between `+0.0` and `-0.0` may resolve to either sign.
#[derive(Debug, Clone, Copy)]
pub struct ValueRange {
    min: [f32; RANGE_LANES],
    max: [f32; RANGE_LANES],
    /// Per lane, nonzero once a NaN was folded in (`u32` rather than `bool`
    /// so the flags stay as wide as the values and the scan stays packed).
    nan: [u32; RANGE_LANES],
    empty: bool,
}

impl Default for ValueRange {
    fn default() -> Self {
        Self {
            min: [f32::INFINITY; RANGE_LANES],
            max: [f32::NEG_INFINITY; RANGE_LANES],
            nan: [0; RANGE_LANES],
            empty: true,
        }
    }
}

impl ValueRange {
    /// The range of `values`.
    #[inline(always)]
    pub fn of(values: &[f32]) -> Self {
        let mut range = Self::default();
        range.fold(values);
        range
    }

    /// Fold a run of values into the range.  Lanes restart at the run's first
    /// value, so a caller may fold a matrix row by row.
    #[inline(always)]
    pub fn fold(&mut self, values: &[f32]) {
        let (mut min, mut max, mut nan) = (self.min, self.max, self.nan);
        let mut fold = |lane: usize, v: f32| {
            // NaN fails both comparisons, so only the flag records it.
            min[lane] = if v < min[lane] { v } else { min[lane] };
            max[lane] = if v > max[lane] { v } else { max[lane] };
            nan[lane] |= u32::from(v.is_nan());
        };
        let mut chunks = values.chunks_exact(RANGE_LANES);
        for chunk in &mut chunks {
            for (lane, &v) in chunk.iter().enumerate() {
                fold(lane, v);
            }
        }
        for (lane, &v) in chunks.remainder().iter().enumerate() {
            fold(lane, v);
        }
        (self.min, self.max, self.nan) = (min, max, nan);
        self.empty &= values.is_empty();
    }

    /// Merge the range of a later run into this one, lane by lane.
    pub fn merge(&mut self, later: &ValueRange) {
        for lane in 0..RANGE_LANES {
            if later.min[lane] < self.min[lane] {
                self.min[lane] = later.min[lane];
            }
            if later.max[lane] > self.max[lane] {
                self.max[lane] = later.max[lane];
            }
            self.nan[lane] |= later.nan[lane];
        }
        self.empty &= later.empty;
    }

    /// `(min, max)` of every value folded in: `(0.0, 0.0)` when there were
    /// none and `(NaN, NaN)` when any was NaN (`f32::min`/`max` alone would
    /// skip it).
    pub fn bounds(&self) -> (f32, f32) {
        if self.empty {
            return (0.0, 0.0);
        }
        if self.nan.iter().any(|&flag| flag != 0) {
            return (f32::NAN, f32::NAN);
        }
        (
            self.min.iter().fold(f32::INFINITY, |m, &v| m.min(v)),
            self.max.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v)),
        )
    }
}

impl Matrix<i64> {
    /// Convert an integer accumulator matrix to `f32` (used after quantized GEMM).
    pub fn to_f32(&self) -> Matrix<f32> {
        self.map(|&v| v as f32)
    }
}

impl Matrix<i32> {
    /// Widen to `i64` accumulators.
    pub fn to_i64(&self) -> Matrix<i64> {
        self.map(|&v| v as i64)
    }

    /// Convert to `f32`.
    pub fn to_f32(&self) -> Matrix<f32> {
        self.map(|&v| v as f32)
    }
}

impl<T> std::ops::Index<(usize, usize)> for Matrix<T> {
    type Output = T;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &T {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl<T> std::ops::IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m: Matrix<f32> = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(!m.is_empty());
        assert!(m.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0f32; 4]).is_ok());
        let err = Matrix::from_vec(2, 2, vec![1.0f32; 3]).unwrap_err();
        assert_eq!(
            err,
            TensorError::DataLengthMismatch {
                expected: 4,
                actual: 3
            }
        );
    }

    #[test]
    fn index_and_row_access() {
        let mut m = Matrix::zeros(2, 3);
        m[(0, 1)] = 5.0;
        m[(1, 2)] = -1.0;
        assert_eq!(m[(0, 1)], 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, -1.0]);
        assert_eq!(*m.try_get(1, 2).unwrap(), -1.0);
        assert!(m.try_get(2, 0).is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(0, 1)], 4.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn identity_is_identity() {
        let i = Matrix::identity(4);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(i[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn gather_rows_selects_in_order() {
        let m = Matrix::from_vec(4, 2, vec![0.0, 1.0, 10.0, 11.0, 20.0, 21.0, 30.0, 31.0]).unwrap();
        let g = m.gather_rows(&[3, 1]);
        assert_eq!(g.shape(), (2, 2));
        assert_eq!(g.row(0), &[30.0, 31.0]);
        assert_eq!(g.row(1), &[10.0, 11.0]);
    }

    #[test]
    fn map_changes_type() {
        let m = Matrix::from_vec(2, 2, vec![1i32, 2, 3, 4]).unwrap();
        let f = m.map(|&v| v as f32 * 2.0);
        assert_eq!(f[(1, 1)], 8.0);
    }

    #[test]
    fn min_max_and_sum() {
        let m = Matrix::from_vec(2, 2, vec![-2.0f32, 0.0, 1.0, 3.0]).unwrap();
        assert_eq!(m.min_max(), (-2.0, 3.0));
        assert_eq!(m.sum(), 2.0);
        let empty: Matrix<f32> = Matrix::zeros(0, 0);
        assert_eq!(empty.min_max(), (0.0, 0.0));
        let nan = Matrix::from_vec(1, 3, vec![1.0f32, f32::NAN, -1.0]).unwrap();
        let (lo, hi) = nan.min_max();
        assert!(lo.is_nan() && hi.is_nan(), "({lo}, {hi})");
    }

    #[test]
    fn merged_ranges_equal_the_range_of_the_whole() {
        let values: Vec<f32> = (0..203).map(|i| ((i * 37) % 101) as f32 - 50.0).collect();
        let whole = ValueRange::of(&values).bounds();
        assert_eq!(whole, (-50.0, 50.0));
        for cut in [0, 1, 16, 17, 100, 203] {
            let mut merged = ValueRange::of(&values[..cut]);
            merged.merge(&ValueRange::of(&values[cut..]));
            assert_eq!(merged.bounds(), whole, "cut {cut}");
        }
        let mut empty = ValueRange::default();
        assert_eq!(empty.bounds(), (0.0, 0.0));
        empty.merge(&ValueRange::default());
        assert_eq!(empty.bounds(), (0.0, 0.0));
        empty.merge(&ValueRange::of(&[f32::NAN]));
        let (lo, hi) = empty.bounds();
        assert!(lo.is_nan() && hi.is_nan(), "({lo}, {hi})");
    }

    #[test]
    fn max_abs_diff_checks_shape() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        assert!(a.max_abs_diff(&b).is_err());
        let c = Matrix::filled(2, 2, 1.5f32);
        assert_eq!(a.max_abs_diff(&c).unwrap(), 1.5);
    }

    #[test]
    fn integer_conversions() {
        let m = Matrix::from_vec(1, 3, vec![1i32, -2, 3]).unwrap();
        assert_eq!(m.to_i64()[(0, 1)], -2i64);
        assert_eq!(m.to_f32()[(0, 2)], 3.0);
        let acc = Matrix::from_vec(1, 2, vec![7i64, 9]).unwrap();
        assert_eq!(acc.to_f32()[(0, 1)], 9.0);
    }

    #[test]
    fn rows_iter_yields_all_rows() {
        let m = Matrix::from_vec(3, 2, vec![1, 2, 3, 4, 5, 6]).unwrap();
        let rows: Vec<&[i32]> = m.rows_iter().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2], &[5, 6]);
    }
}
