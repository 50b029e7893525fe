//! # qgtc-kernels
//!
//! The QGTC kernel designs (paper §4).  Each computes its exact result on the
//! host and charges the work of the GPU kernel it models to the analytic cost
//! model of `qgtc-tcsim`:
//!
//! * [`backend`] — which popcount body (portable scalar or AVX-512) the fused
//!   GEMM runs on: [`backend::BackendChoice`].  Both bodies are held bitwise
//!   equal to the serial oracle by the conformance suite.
//! * [`bmm`] — the tiled any-bitwidth bit-matrix-multiplication kernel: operands are
//!   3D-stacked bit-compressed matrices and the bit-plane partial products are
//!   shift-accumulated into 32-bit (modeled as `i64` here to keep Rust arithmetic
//!   explicit) outputs.  The arithmetic executes through the fused host kernel of
//!   `qgtc-bitmat` while the 8×8×128-tile walk of the GPU kernel is charged to the
//!   cost tracker analytically (see [`bmm`]'s module docs).
//! * [`zero_tile`] — zero-tile jumping (§4.3): census the all-zero 8×128 adjacency
//!   tiles whose MMAs and B-operand loads the GPU kernel's OR-reduce + ballot
//!   check skips.
//! * [`tiling`] — the committed `TUNE_gemm.json` tune table: the condensation
//!   threshold the adjacency-path dispatcher compares against.
//! * [`tile_reuse`] — non-zero tile reuse (§4.4): the cross-tile reduction ordering
//!   that loads each non-zero adjacency tile once and reuses it across every feature
//!   bit plane, versus the naive cross-bit ordering.
//! * [`fusion`] — inter-layer kernel fusion (§4.5): activation, batch-norm and
//!   re-quantization + bit-decomposition applied in the GEMM epilogue instead of as
//!   standalone kernels; the row pass runs inside the GEMM's row blocks
//!   ([`bmm::qgtc_bmm_with_epilogue`]).
//! * [`packing`] — bandwidth-optimised subgraph packing (§4.6): transfer the packed
//!   low-bit adjacency and features as one compound object instead of dense fp32
//!   tensors over PCIe.
//! * [`pool`] — the exclusive-pool buffer arena behind sustained serving: recycled
//!   packed-plane words, code buffers and dense staging buffers, so steady-state
//!   batch preparation allocates nothing fresh.
//!
//! Every kernel both computes the exact functional result (verified against the
//! reference composition in `qgtc-bitmat`) and records its work into a
//! [`qgtc_tcsim::CostTracker`] so the device model can estimate GPU latency.

pub mod backend;
pub mod bmm;
pub mod fusion;
pub mod packing;
pub mod pool;
pub mod tile_reuse;
pub mod tiling;
pub mod zero_tile;

pub use backend::BackendChoice;
pub use bmm::{
    adjacency_cost_ratio, qgtc_aggregate, qgtc_aggregate_prepared, qgtc_aggregate_with_epilogue,
    qgtc_bmm, qgtc_bmm_with_epilogue, resolve_adjacency_path, AdjacencyPath, KernelConfig,
    ReductionOrder,
};
pub use fusion::{Activation, FusedEpilogue};
pub use packing::{PreparedBatch, SubgraphPayload, TransferStrategy};
pub use pool::{PackedBufferPool, PoolStats};
pub use tiling::{condense_threshold, tune_file_path, TuneTable};
pub use zero_tile::{adjacency_sparsity_stats, AdjacencySparsityStats};
