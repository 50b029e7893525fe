//! Workspace-level facade for the QGTC reproduction.
//!
//! This crate exists to host the runnable examples (`examples/`) and the cross-crate
//! integration tests (`tests/`); it simply re-exports the public crates so examples
//! can write `use qgtc_repro::core::...`. See the workspace `README.md` for the
//! full architecture map (crate → paper section) and the figure/table drivers.
//!
//! # Quickstart
//!
//! The front-door API mirrors the paper's PyTorch bindings: pack operands as
//! [`BitTensor`](core::BitTensor)s (`Tensor.to_bit(nbits)` in the paper), multiply
//! with [`bit_mm_to_int`](core::bit_mm_to_int) (`bitMM2Int`), and read the modeled
//! GPU cost from the [`CostTracker`](tcsim::cost::CostTracker):
//!
//! ```
//! use qgtc_repro::bitmat::BitMatrixLayout;
//! use qgtc_repro::core::{bit_mm_to_int, BitTensor};
//! use qgtc_repro::graph::generate::{stochastic_block_model, SbmParams};
//! use qgtc_repro::graph::{CsrGraph, DenseSubgraph};
//! use qgtc_repro::kernels::bmm::KernelConfig;
//! use qgtc_repro::tcsim::cost::CostTracker;
//! use qgtc_repro::tensor::gemm::gemm_i64;
//! use qgtc_repro::tensor::rng::random_uniform_matrix;
//!
//! // 1. Build a small community-structured graph and materialise its dense
//! //    1-bit adjacency (the row-packed form QGTC's aggregation kernel
//! //    consumes, written straight from CSR).
//! let params = SbmParams { num_nodes: 64, num_blocks: 4, intra_degree: 6.0, inter_degree: 1.0 };
//! let (coo, _communities) = stochastic_block_model(params, 7);
//! let graph = CsrGraph::from_coo(&coo);
//! let batch = DenseSubgraph::extract(&graph, &(0..graph.num_nodes()).collect::<Vec<_>>());
//!
//! // 2. `to_bit`: wrap the packed adjacency and quantize random node
//! //    features (2-bit, column-packed) as bit tensors.
//! let adj = BitTensor::from_stack((*batch.adjacency).clone());
//! let features = random_uniform_matrix(64, 8, 0.0, 1.0, 11);
//! let feats = BitTensor::from_f32(&features, 2, BitMatrixLayout::ColPacked);
//!
//! // 3. `bitMM2Int`: multiply on the simulated tensor core, tracking costs.
//! let tracker = CostTracker::new();
//! // A product whose bitwidths could overflow the i64 accumulators is a
//! // typed `QgtcError::AccumulatorOverflow` instead.
//! let aggregated = bit_mm_to_int(&adj, &feats, &KernelConfig::default(), &tracker)?;
//!
//! // The bit-composed product is exact: it equals an i64 GEMM over the codes.
//! let reference = gemm_i64(
//!     &adj.to_val().map(|&v| v as i64),
//!     &feats.to_val().map(|&v| v as i64),
//! );
//! assert_eq!(aggregated, reference);
//!
//! // 4. Read the cost model: the kernel issued 1-bit MMA tiles and skipped
//! //    the all-zero ones (zero-tile jumping).
//! let snapshot = tracker.snapshot();
//! assert!(snapshot.tc_b1_tiles > 0);
//! assert_eq!(aggregated.shape(), (64, 8));
//! # Ok::<(), qgtc_repro::core::QgtcError>(())
//! ```
//!
//! # Serving
//!
//! For request traffic (rather than one-shot epoch sweeps), build a long-lived
//! [`QgtcSession`](core::serve::QgtcSession): the partition plan and the
//! quantized weights are built exactly once, queued requests coalesce into
//! partition-aligned micro-batches, prepared batch payloads are cached, and
//! every staging buffer is recycled through a packed-buffer pool — so warm
//! serving allocates nothing fresh and answers bitwise what
//! [`run_epoch`](core::run_epoch) would compute:
//!
//! ```
//! use qgtc_repro::core::serve::QgtcSession;
//! use qgtc_repro::core::{ModelKind, QgtcConfig};
//! use qgtc_repro::graph::DatasetProfile;
//!
//! let dataset = DatasetProfile::PROTEINS.materialize(0.02, 7);
//! let config = QgtcConfig::qgtc(ModelKind::ClusterGcn, 2).with_partitions(8, 2);
//! let mut session = QgtcSession::new(&dataset, &config)?;   // plan + quantize once
//!
//! let response = session.infer(&[0, 1, 2])?;                // route → coalesce → serve
//! assert_eq!(response.logits.rows(), 3);
//! assert!(response.degraded.is_empty());
//!
//! let stats = session.stats();
//! assert_eq!(stats.requests, 1);
//! assert_eq!(stats.weight_quantizations, 3, "layer count, stamped at build");
//! # Ok::<(), qgtc_repro::core::QgtcError>(())
//! ```

/// The QGTC framework facade (BitTensor API, configuration, end-to-end pipeline).
pub use qgtc_core as core;

/// Baseline engines (DGL-like fp32, cuBLAS int8 and CUTLASS int4 analogues).
pub use qgtc_baselines as baselines;
/// Bit-level data representation and any-bitwidth GEMM composition.
pub use qgtc_bitmat as bitmat;
/// GNN layers, models and quantization-aware training.
pub use qgtc_gnn as gnn;
/// Sparse graph structures, generators and dataset profiles.
pub use qgtc_graph as graph;
/// QGTC kernel designs over the software Tensor Core.
pub use qgtc_kernels as kernels;
/// METIS-substitute partitioner and cluster-GCN batching.
pub use qgtc_partition as partition;
/// Software Tensor Core and analytic GPU device model.
pub use qgtc_tcsim as tcsim;
/// Dense tensor substrate.
pub use qgtc_tensor as tensor;

#[cfg(test)]
mod tests {
    #[test]
    fn facade_re_exports_resolve() {
        let spec = crate::tcsim::GpuSpec::rtx3090();
        assert_eq!(spec.sm_count, 82);
        let profile = crate::graph::DatasetProfile::PROTEINS;
        assert_eq!(profile.feature_dim, 29);
    }
}
