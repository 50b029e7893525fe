//! # qgtc-tcsim
//!
//! An analytic GPU cost model, with no dependencies.
//!
//! The QGTC paper's kernels target the 1-bit Tensor Core MMA primitive
//! (`wmma::bmma_sync`, tile shape `M(8) × N(8) × K(128)`) of NVIDIA Ampere GPUs.
//! This environment has no GPU, so the kernels compute their exact results on
//! the host and charge the work the GPU kernel would do to this model, the
//! substitution described in the workspace README:
//!
//! * [`cost`] — kernels record the work they perform (Tensor Core MMA tiles
//!   issued and skipped, CUDA-core FLOPs, bytes moved per memory level, kernel
//!   launches, PCIe transfers) into a [`cost::CostTracker`];
//! * [`model`] — [`model::DeviceModel`] converts those counts into modeled
//!   latency and throughput with a roofline-style analytic model calibrated to
//!   an RTX 3090 (the paper's evaluation GPU);
//! * [`spec`] — the calibration constants, in [`spec::GpuSpec`], documented so
//!   a user with real hardware can re-fit them.

pub mod cost;
pub mod model;
pub mod spec;

pub use cost::CostTracker;
pub use model::{DeviceModel, KernelEstimate, PipelineEstimate};
pub use spec::GpuSpec;
