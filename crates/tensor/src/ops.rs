//! Elementwise operators and small NN building blocks.
//!
//! The GNN models in the evaluation (Cluster-GCN and batched GIN) need only a handful
//! of dense operators besides GEMM: ReLU / tanh activations, bias addition, batch
//! normalization (which QGTC fuses into its kernels — the fused path in
//! `qgtc-kernels::fusion` is validated against the standalone implementations here),
//! row-wise softmax for the classification head and argmax for accuracy computation.

use crate::error::{Result, TensorError};
use crate::matrix::Matrix;

/// ReLU applied elementwise, returning a new matrix.
pub fn relu(x: &Matrix<f32>) -> Matrix<f32> {
    x.map(|&v| v.max(0.0))
}

/// ReLU applied in place.
pub fn relu_inplace(x: &mut Matrix<f32>) {
    for v in x.data_mut() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// Hyperbolic tangent applied elementwise.
pub fn tanh(x: &Matrix<f32>) -> Matrix<f32> {
    x.map(|&v| v.tanh())
}

/// Add a bias row vector to every row of `x`. Panics if `bias.len() != x.cols()`.
pub fn add_bias(x: &Matrix<f32>, bias: &[f32]) -> Matrix<f32> {
    assert_eq!(x.cols(), bias.len(), "add_bias: bias length mismatch");
    let mut out = x.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        for (v, b) in row.iter_mut().zip(bias.iter()) {
            *v += b;
        }
    }
    out
}

/// Elementwise sum of two equally shaped matrices.
pub fn add(a: &Matrix<f32>, b: &Matrix<f32>) -> Result<Matrix<f32>> {
    if a.shape() != b.shape() {
        return Err(TensorError::ShapeMismatch {
            op: "add".into(),
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let data = a
        .data()
        .iter()
        .zip(b.data().iter())
        .map(|(x, y)| x + y)
        .collect();
    Matrix::from_vec(a.rows(), a.cols(), data)
}

/// Multiply every element by a scalar.
pub fn scale(x: &Matrix<f32>, s: f32) -> Matrix<f32> {
    x.map(|&v| v * s)
}

/// Parameters of a batch-normalization layer over feature columns.
///
/// QGTC folds batch normalization into its low-bit kernels (paper §4.5, Equation 8);
/// the standalone version here is the reference the fused kernel is tested against.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchNormParams {
    /// Per-feature learned scale γ.
    pub gamma: Vec<f32>,
    /// Per-feature learned shift β.
    pub beta: Vec<f32>,
    /// Per-feature running mean E\[x\].
    pub mean: Vec<f32>,
    /// Per-feature running variance Var\[x\].
    pub var: Vec<f32>,
    /// Numerical-stability epsilon.
    pub eps: f32,
}

impl BatchNormParams {
    /// Identity batch-norm (γ=1, β=0, mean=0, var=1) for `dim` features.
    pub fn identity(dim: usize) -> Self {
        Self {
            gamma: vec![1.0; dim],
            beta: vec![0.0; dim],
            mean: vec![0.0; dim],
            var: vec![1.0; dim],
            eps: 1e-5,
        }
    }

    /// Number of features this layer normalises.
    pub fn dim(&self) -> usize {
        self.gamma.len()
    }

    /// Check that these parameters normalise the columns of a matrix of
    /// `shape`: a `ShapeMismatch` naming `batch_norm` otherwise.
    pub fn check(&self, shape: (usize, usize)) -> Result<()> {
        if shape.1 != self.dim() {
            return Err(TensorError::ShapeMismatch {
                op: "batch_norm".into(),
                lhs: shape,
                rhs: (1, self.dim()),
            });
        }
        Ok(())
    }

    /// Normalise one row of `dim()` values in place.
    #[inline]
    pub fn apply_row(&self, row: &mut [f32]) {
        for (j, value) in row.iter_mut().enumerate() {
            let denom = (self.var[j] + self.eps).sqrt();
            *value = (*value - self.mean[j]) / denom * self.gamma[j] + self.beta[j];
        }
    }
}

/// Apply inference-mode batch normalization column-wise (Equation 8 of the paper).
pub fn batch_norm(x: &Matrix<f32>, params: &BatchNormParams) -> Result<Matrix<f32>> {
    params.check(x.shape())?;
    let mut out = x.clone();
    for r in 0..out.rows() {
        params.apply_row(out.row_mut(r));
    }
    Ok(out)
}

/// Row-wise numerically stable softmax.
pub fn softmax_rows(x: &Matrix<f32>) -> Matrix<f32> {
    let mut out = x.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        if sum > 0.0 {
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    }
    out
}

/// Row-wise log-softmax (used by the cross-entropy loss in quantization-aware training).
pub fn log_softmax_rows(x: &Matrix<f32>) -> Matrix<f32> {
    let mut out = x.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let log_sum: f32 = row.iter().map(|v| (v - max).exp()).sum::<f32>().ln() + max;
        for v in row.iter_mut() {
            *v -= log_sum;
        }
    }
    out
}

/// Index of the maximum element of each row (ties resolved to the lowest index).
pub fn argmax_rows(x: &Matrix<f32>) -> Vec<usize> {
    x.rows_iter()
        .map(|row| {
            row.iter()
                .enumerate()
                .fold((0usize, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
                    if v > bv {
                        (i, v)
                    } else {
                        (bi, bv)
                    }
                })
                .0
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix<f32> {
        Matrix::from_vec(2, 3, vec![-1.0, 0.0, 2.0, 3.0, -4.0, 0.5]).unwrap()
    }

    #[test]
    fn relu_clamps_negatives() {
        let x = sample();
        let y = relu(&x);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 3.0, 0.0, 0.5]);
        let mut z = x.clone();
        relu_inplace(&mut z);
        assert_eq!(z, y);
    }

    #[test]
    fn tanh_bounded() {
        let y = tanh(&sample());
        assert!(y.data().iter().all(|&v| (-1.0..=1.0).contains(&v)));
        assert_eq!(y[(0, 1)], 0.0);
    }

    #[test]
    fn add_bias_per_column() {
        let y = add_bias(&sample(), &[1.0, 2.0, 3.0]);
        assert_eq!(y[(0, 0)], 0.0);
        assert_eq!(y[(1, 1)], -2.0);
        assert_eq!(y[(0, 2)], 5.0);
    }

    #[test]
    fn add_checks_shapes() {
        let a = sample();
        let b: Matrix<f32> = Matrix::zeros(3, 2);
        assert!(add(&a, &b).is_err());
        let c = add(&a, &a).unwrap();
        assert_eq!(c[(1, 0)], 6.0);
    }

    #[test]
    fn scale_multiplies() {
        let y = scale(&sample(), -2.0);
        assert_eq!(y[(0, 2)], -4.0);
    }

    #[test]
    fn identity_batch_norm_is_noop() {
        let x = sample();
        let y = batch_norm(&x, &BatchNormParams::identity(3)).unwrap();
        assert!(x.max_abs_diff(&y).unwrap() < 1e-4);
    }

    #[test]
    fn batch_norm_standardises() {
        // Population mean 2.5 and variance 1.25 of the column.
        let x = Matrix::from_vec(4, 1, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let params = BatchNormParams {
            gamma: vec![1.0],
            beta: vec![0.0],
            mean: vec![2.5],
            var: vec![1.25],
            eps: 0.0,
        };
        let y = batch_norm(&x, &params).unwrap();
        let m = y.data().iter().sum::<f32>() / 4.0;
        let v = y.data().iter().map(|&y| (y - m) * (y - m)).sum::<f32>() / 4.0;
        assert!(m.abs() < 1e-6);
        assert!((v - 1.0).abs() < 1e-5);
    }

    #[test]
    fn batch_norm_rejects_wrong_dim() {
        assert!(batch_norm(&sample(), &BatchNormParams::identity(2)).is_err());
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let y = softmax_rows(&sample());
        for row in y.rows_iter() {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn log_softmax_matches_softmax_log() {
        let x = sample();
        let a = log_softmax_rows(&x);
        let b = softmax_rows(&x);
        for (la, sb) in a.data().iter().zip(b.data().iter()) {
            assert!((la - sb.ln()).abs() < 1e-4);
        }
    }

    #[test]
    fn argmax_picks_largest() {
        assert_eq!(argmax_rows(&sample()), vec![2, 0]);
    }
}
