//! # qgtc-core
//!
//! The public framework facade of the QGTC reproduction — the analogue of the
//! paper's PyTorch integration layer (§5) plus the end-to-end inference pipeline the
//! evaluation drives.
//!
//! * [`BitTensor`] and [`api`] — the paper's bit-Tensor data type and bit-Tensor
//!   computation: `to_bit` / `to_val` conversions between ordinary 32-bit tensors and
//!   packed any-bitwidth tensors, and `bit_mm_to_int` / `bit_mm_to_bit` matrix
//!   multiplication entry points.
//! * [`config::QgtcConfig`] — one struct holding every evaluation knob: bitwidth,
//!   partition count, batch size, kernel optimisation toggles (popcount backend
//!   and adjacency path included), transfer strategy and fault plan.  The config
//!   is the only selector: no environment variable overrides it.  The one
//!   variable the library reads, `QGTC_TUNE_FILE`, names the tune table's path.
//! * [`pipeline`] — the end-to-end batched-inference pipeline: METIS-substitute
//!   partitioning, cluster-GCN batching, host-to-device transfer, per-batch forward
//!   passes on either the QGTC path or the DGL-like baseline, and modeled epoch
//!   latency. Every epoch entry point runs one batch loop on the calling
//!   thread; the paper's double-buffered transfer/compute overlap is modeled
//!   from its per-batch counters.
//! * [`fault`] — deterministic fault injection and the typed error surface: a
//!   seeded [`fault::FaultPlan`], set with [`QgtcConfig::with_fault_plan`], drives
//!   the pipeline's supervisor, which retries transients, repairs checksum-caught
//!   payload corruption, and degrades lost GEMM backends; the `try_*` entry
//!   points surface what cannot be absorbed as a [`QgtcError`].
//! * [`serve`] — the serving front end: a long-lived [`serve::QgtcSession`]
//!   built once per `(dataset, config)` that coalesces queued requests into
//!   partition-aligned micro-batches, caches prepared batch payloads, and
//!   recycles every staging buffer through a packed-buffer pool; plus the
//!   deterministic open-loop load generator and latency probe
//!   ([`serve::run_open_loop`]).
//!
//! Everything below re-exports the substrate crates so a downstream user can depend
//! on `qgtc-core` alone.

pub mod api;
pub mod bit_tensor;
pub mod config;
pub mod fault;
pub mod pipeline;
pub mod serve;

pub use api::{bit_mm_to_bit, bit_mm_to_int};
pub use bit_tensor::BitTensor;
pub use config::{ExecutionPath, ModelKind, QgtcConfig};
pub use fault::{FaultKind, FaultPlan, FaultSite, FaultSpec, FaultStats, QgtcError};
pub use pipeline::{
    run_epoch, run_epoch_with_plan, try_build_plan, try_run_epoch, try_run_epoch_with_plan,
    EpochReport,
};
pub use qgtc_kernels::backend::BackendChoice;
pub use qgtc_partition::Parallelism;
pub use serve::{
    run_open_loop, InferResponse, LatencySummary, LoadGenerator, QgtcSession, ServeOptions,
    ServeStats,
};

// Substrate re-exports.
pub use qgtc_baselines as baselines;
pub use qgtc_bitmat as bitmat;
pub use qgtc_gnn as gnn;
pub use qgtc_graph as graph;
pub use qgtc_kernels as kernels;
pub use qgtc_partition as partition;
pub use qgtc_tcsim as tcsim;
pub use qgtc_tensor as tensor;
