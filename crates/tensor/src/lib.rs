//! # qgtc-tensor
//!
//! Dense tensor substrate for the QGTC (Quantized Graph neural networks on Tensor
//! Cores) reproduction.
//!
//! The QGTC paper integrates its bit-packed kernels with PyTorch, using ordinary
//! dense 32-bit tensors as the "vehicle" that carries packed low-bit data across the
//! framework boundary, and using full-precision (fp32) dense linear algebra both for
//! the DGL baseline and for the final output layer of every quantized model.  This
//! crate provides that substrate in pure Rust:
//!
//! * [`Matrix`] — a row-major dense matrix over `f32`, `i32`, `u32`, `i64`, …
//! * [`gemm`] — row-block-parallel dense GEMM and CSR SpMM used by the fp32 and
//!   integer baselines, and the `i64` GEMM the bit-plane GEMM oracle is checked
//!   against.
//! * [`ops`] — elementwise operators (ReLU, tanh, bias add), batch-normalization,
//!   softmax and argmax needed by the GNN models.
//! * [`quant`] — the quantization scheme of the paper (Equation 2): uniform affine
//!   quantization of an `f32` value into a `q`-bit code, plus per-tensor range
//!   calibration and dequantization.
//! * [`rng`] — small deterministic random-number helpers shared by the workload
//!   generators and the tests.
//!
//! Everything here is deliberately simple and allocation-explicit; the performance
//! story of the reproduction lives in the bit-packed kernels (`qgtc-kernels`) and the
//! device model (`qgtc-tcsim`), not in this crate.

pub mod error;
pub mod gemm;
pub mod matrix;
pub mod ops;
pub mod quant;
pub mod rng;

pub use error::{Result, TensorError};
pub use matrix::{Matrix, ValueRange};
pub use quant::{QuantParams, Quantizer};

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::error::{Result, TensorError};
    pub use crate::gemm::{gemm_f32, gemm_i64};
    pub use crate::matrix::Matrix;
    pub use crate::ops;
    pub use crate::quant::{QuantParams, Quantizer};
}
