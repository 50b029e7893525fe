//! # qgtc-bitmat
//!
//! Bit-level data representation and any-bitwidth arithmetic — the algorithmic core of
//! the QGTC paper (§3 and §4.2).
//!
//! QGTC's central idea is that a `q`-bit quantized GEMM can always be *composed from
//! 1-bit GEMMs*: decompose each operand into its bit planes, multiply every pair of
//! planes with a binary (AND + popcount) matrix product, then shift-and-add the plane
//! products back together.  The 1-bit products map directly onto the Tensor Core
//! `b1` MMA primitive; everything else is bookkeeping.  This crate implements that
//! bookkeeping and a reference composition:
//!
//! * [`pack`] — 32-bit word packing helpers, `PAD8`/`PAD128` padding (the Tensor Core
//!   1-bit tile is 8×128, so operand dimensions are padded accordingly).
//! * [`bitmatrix::BitMatrix`] — one packed bit plane, in either row-packed layout
//!   (paper: "column-wise compression", used for the left operand A) or
//!   column-packed layout (paper: "row-wise compression", used for the right
//!   operand B).
//! * [`decompose`] — per-bit decomposition and recomposition of quantized
//!   integer matrices (the reference path behind the packer's test oracle).
//! * [`stacked::StackedBitMatrix`] — the paper's *3D-stacked bit compression*: `s`
//!   bit planes of a matrix stacked along a third axis, each plane packed with the
//!   layout appropriate for its operand position.  Codes go in and come out a
//!   whole 32-bit plane word at a time, and
//!   [`stacked::StackedBitMatrix::quantize_pack_in`] quantizes and packs in one
//!   pass.
//! * [`ops`] — bit-serial primitives: AND+popcount dot products and single-plane
//!   binary matrix multiplication.
//! * [`gemm`] — the plane-by-plane any-bitwidth GEMM composition of Algorithm 1:
//!   [`gemm::any_bit_gemm_serial`] is the workspace's semantic oracle, and the
//!   parallel plane-by-plane form is kept as the measurable baseline.
//! * [`fused`] — the production hot path: the same composition fused into a
//!   single register-blocked pass over the output (no intermediate plane
//!   products, one pool dispatch, `u64` word pairs).  Kernels and models route
//!   through [`fused::any_bit_gemm_fused`] / [`fused::aggregate_adj_features_fused`].
//!
//! All routines are exact: for operands that fit their declared bitwidths, the
//! composed result equals a 64-bit integer GEMM on the codes.

pub mod bitmatrix;
pub mod condense;
pub mod decompose;
pub mod fused;
pub mod gemm;
pub mod ops;
pub mod pack;
pub mod stacked;

pub use bitmatrix::{BitMatrix, BitMatrixLayout};
pub use condense::{
    aggregate_adj_features_condensed, condensed_union_estimate, condensed_word_estimate,
    skip_span_estimate, CondensedAdjacency,
};
pub use fused::{aggregate_adj_features_fused, any_bit_gemm_fused};
pub use stacked::StackedBitMatrix;
