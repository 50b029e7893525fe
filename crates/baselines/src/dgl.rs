//! A DGL-like full-precision GNN execution engine.
//!
//! DGL executes each GNN layer as a sparse aggregation (CSR SpMM over the graph) on
//! CUDA cores followed by a dense fp32 GEMM (cuBLAS) for the node update, all in
//! fp32.  The engine here reproduces that operator decomposition and its cost
//! profile:
//!
//! * aggregation FLOPs are charged to the *sparse* CUDA-core term of the device model
//!   (gather-bound, low achieved fraction of peak — the well-known SpMM behaviour
//!   QGTC's introduction cites as the CUDA-core bottleneck);
//! * update FLOPs are charged to the dense fp32 term;
//! * each operator is its own kernel launch, and activations round-trip DRAM between
//!   operators (no fusion);
//! * batch inputs are transferred as dense fp32 tensors over PCIe.

use qgtc_graph::{CsrGraph, DenseSubgraph};
use qgtc_tcsim::cost::CostTracker;
use qgtc_tensor::gemm::{csr_spmm_f32, gemm_f32};
use qgtc_tensor::ops;
use qgtc_tensor::Matrix;

/// Aggregation styles of the two evaluated models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DglLayerKind {
    /// GCN-style: mean aggregation then linear update (aggregate → update).
    GcnMean,
    /// GIN-style: sum aggregation (including self), update applied before
    /// aggregation in the batched-GIN variant the paper evaluates.
    GinSum,
}

/// The DGL-like engine: stateless functions plus a cost tracker reference.
#[derive(Debug)]
pub struct DglEngine<'a> {
    tracker: &'a CostTracker,
}

impl<'a> DglEngine<'a> {
    /// Create an engine recording into `tracker`.
    pub fn new(tracker: &'a CostTracker) -> Self {
        Self { tracker }
    }

    /// Sparse neighbour aggregation over a CSR graph: `X_new = Â · X` where `Â` uses
    /// mean (GCN) or unit (GIN) edge values.
    pub fn aggregate_csr(
        &self,
        graph: &CsrGraph,
        features: &Matrix<f32>,
        kind: DglLayerKind,
    ) -> Matrix<f32> {
        assert_eq!(
            graph.num_nodes(),
            features.rows(),
            "feature rows must match graph nodes"
        );
        let values = match kind {
            DglLayerKind::GcnMean => graph.mean_edge_values(),
            DglLayerKind::GinSum => graph.unit_edge_values(),
        };
        let out = csr_spmm_f32(graph.row_ptr(), graph.col_indices(), &values, features);
        let nnz = graph.num_edges() as u64;
        let d = features.cols() as u64;
        // 2 FLOPs per nonzero per feature, charged to the sparse (gather-bound) term.
        self.tracker.record_sparse_flops(2 * nnz * d);
        // Traffic: CSR arrays + a gathered feature row per nonzero + output.
        self.tracker.record_dram_read(nnz * (8 + 4) + nnz * d * 4);
        self.tracker
            .record_dram_write(features.rows() as u64 * d * 4);
        self.tracker
            .record_kernel_launch((graph.num_nodes() as u64).div_ceil(4).max(1));
        out
    }

    /// Aggregation over a densified subgraph batch (what the batched execution uses):
    /// functionally `A · X` with the dense 0/1 adjacency.
    pub fn aggregate_dense(
        &self,
        subgraph: &DenseSubgraph,
        features: &Matrix<f32>,
        kind: DglLayerKind,
    ) -> Matrix<f32> {
        assert_eq!(subgraph.num_nodes(), features.rows());
        let mut adjacency = subgraph.dense_adjacency();
        if kind == DglLayerKind::GcnMean {
            // Row-normalise.
            for r in 0..adjacency.rows() {
                let row = adjacency.row_mut(r);
                let deg: f32 = row.iter().sum();
                if deg > 0.0 {
                    for v in row.iter_mut() {
                        *v /= deg;
                    }
                }
            }
        }
        let out = gemm_f32(&adjacency, features);
        // DGL still executes this as SpMM over the subgraph's edges.
        let nnz = subgraph.num_edges as u64;
        let d = features.cols() as u64;
        self.tracker.record_sparse_flops(2 * nnz * d);
        self.tracker.record_dram_read(nnz * (8 + 4) + nnz * d * 4);
        self.tracker
            .record_dram_write(subgraph.num_nodes() as u64 * d * 4);
        self.tracker
            .record_kernel_launch((subgraph.num_nodes() as u64).div_ceil(4).max(1));
        out
    }

    /// Dense node update `X · W + b` in fp32 (cuBLAS-style GEMM).
    pub fn update(
        &self,
        x: &Matrix<f32>,
        weight: &Matrix<f32>,
        bias: Option<&[f32]>,
    ) -> Matrix<f32> {
        let out = gemm_f32(x, weight);
        let (m, k) = x.shape();
        let n = weight.cols();
        self.tracker
            .record_fp32_flops(2 * m as u64 * n as u64 * k as u64);
        self.tracker
            .record_dram_read((m * k * 4 + k * n * 4) as u64);
        self.tracker.record_dram_write((m * n * 4) as u64);
        self.tracker
            .record_kernel_launch(((m.div_ceil(64)) * (n.div_ceil(64))).max(1) as u64);
        match bias {
            Some(b) => {
                let with_bias = ops::add_bias(&out, b);
                self.tracker.record_fp32_flops((m * n) as u64);
                with_bias
            }
            None => out,
        }
    }

    /// Standalone ReLU kernel (DGL does not fuse activations into the GEMM).
    pub fn relu(&self, x: &Matrix<f32>) -> Matrix<f32> {
        let out = ops::relu(x);
        let elems = x.len() as u64;
        self.tracker.record_fp32_flops(elems);
        self.tracker.record_dram_read(elems * 4);
        self.tracker.record_dram_write(elems * 4);
        self.tracker
            .record_kernel_launch((x.rows() as u64).div_ceil(4).max(1));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgtc_graph::generate::ring_lattice;
    use qgtc_tensor::rng::random_uniform_matrix;

    fn ring_graph(n: usize) -> CsrGraph {
        CsrGraph::from_coo(&ring_lattice(n, 2))
    }

    #[test]
    fn csr_mean_aggregation_averages_neighbors() {
        let g = ring_graph(6);
        let features = Matrix::from_vec(6, 1, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        let tracker = CostTracker::new();
        let engine = DglEngine::new(&tracker);
        let out = engine.aggregate_csr(&g, &features, DglLayerKind::GcnMean);
        // Node 1's neighbours on the ring of degree 2 are 0 and 2 -> mean 1.0.
        assert!((out[(1, 0)] - 1.0).abs() < 1e-6);
        // Node 0's neighbours are 1 and 5 -> mean 3.0.
        assert!((out[(0, 0)] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn csr_sum_aggregation_sums_neighbors() {
        let g = ring_graph(6);
        let features = Matrix::filled(6, 2, 1.0f32);
        let tracker = CostTracker::new();
        let engine = DglEngine::new(&tracker);
        let out = engine.aggregate_csr(&g, &features, DglLayerKind::GinSum);
        assert!(out.data().iter().all(|&v| (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn dense_and_csr_aggregation_agree_on_full_subgraph() {
        let g = ring_graph(12);
        let features = random_uniform_matrix(12, 5, -1.0, 1.0, 3);
        let nodes: Vec<usize> = (0..12).collect();
        let sub = DenseSubgraph::extract(&g, &nodes);
        let tracker = CostTracker::new();
        let engine = DglEngine::new(&tracker);
        let a = engine.aggregate_csr(&g, &features, DglLayerKind::GinSum);
        let b = engine.aggregate_dense(&sub, &features, DglLayerKind::GinSum);
        assert!(a.max_abs_diff(&b).unwrap() < 1e-5);
        let c = engine.aggregate_csr(&g, &features, DglLayerKind::GcnMean);
        let d = engine.aggregate_dense(&sub, &features, DglLayerKind::GcnMean);
        assert!(c.max_abs_diff(&d).unwrap() < 1e-5);
    }

    #[test]
    fn update_applies_weights_and_bias() {
        let x = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let w = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let tracker = CostTracker::new();
        let engine = DglEngine::new(&tracker);
        let out = engine.update(&x, &w, Some(&[0.5, 0.5, 0.5]));
        assert_eq!(out[(0, 0)], 1.5);
        assert_eq!(out[(1, 2)], 6.5);
    }

    #[test]
    fn cost_profile_uses_sparse_and_dense_terms() {
        let g = ring_graph(64);
        let features = random_uniform_matrix(64, 16, -1.0, 1.0, 4);
        let w = random_uniform_matrix(16, 8, -1.0, 1.0, 5);
        let tracker = CostTracker::new();
        let engine = DglEngine::new(&tracker);
        let agg = engine.aggregate_csr(&g, &features, DglLayerKind::GcnMean);
        let _ = engine.relu(&engine.update(&agg, &w, None));
        let s = tracker.snapshot();
        assert!(s.cuda_sparse_flops > 0);
        assert!(s.cuda_fp32_flops > 0);
        assert_eq!(s.tc_b1_tiles, 0, "DGL never touches Tensor Cores");
        assert!(
            s.kernel_launches >= 3,
            "aggregate, update, relu are separate kernels"
        );
        assert!(s.dram_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "feature rows must match")]
    fn aggregate_rejects_mismatched_features() {
        let g = ring_graph(6);
        let features = Matrix::zeros(5, 2);
        let tracker = CostTracker::new();
        DglEngine::new(&tracker).aggregate_csr(&g, &features, DglLayerKind::GcnMean);
    }
}
