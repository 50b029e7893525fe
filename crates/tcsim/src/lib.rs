//! # qgtc-tcsim
//!
//! A software Tensor Core and an analytic GPU device model.
//!
//! The QGTC paper's kernels target the 1-bit Tensor Core MMA primitive
//! (`wmma::bmma_sync`, tile shape `M(8) × N(8) × K(128)`) of NVIDIA Ampere GPUs.
//! This environment has no GPU, so this crate supplies the substitution described in
//! the workspace README:
//!
//! * a **functional** Tensor Core: [`fragment`] and [`wmma`] reproduce the
//!   fragment-level semantics (load a tile from packed memory, multiply-accumulate
//!   with AND + popcount, store the accumulator), bit-exact with the hardware
//!   primitive, so every QGTC kernel is a real, testable code path;
//! * a **warp abstraction** ([`warp`]) providing the `__ballot_sync`-style primitive
//!   the zero-tile-jumping optimisation uses;
//! * a **cost model** ([`cost`], [`spec`], [`model`]): kernels record the work they
//!   perform (Tensor Core MMAs, CUDA-core FLOPs, bytes moved per memory level,
//!   kernel launches, PCIe transfers) into a [`cost::CostTracker`], and
//!   [`model::DeviceModel`] converts those counts into modeled latency and
//!   throughput using a roofline-style analytic model calibrated to an RTX 3090
//!   (the paper's evaluation GPU).
//!
//! The calibration constants live in [`spec::GpuSpec`] and are documented so a user
//! with real hardware can re-fit them.

pub mod cost;
pub mod fragment;
pub mod model;
pub mod spec;
pub mod warp;
pub mod wmma;

pub use cost::CostTracker;
pub use fragment::{AccumulatorFragment, BitFragmentA, BitFragmentB};
pub use model::{DeviceModel, KernelEstimate, PipelineEstimate};
pub use spec::GpuSpec;
