//! Induced subgraph extraction and 1-bit adjacency materialisation.
//!
//! After METIS-style partitioning, QGTC batches a set of partitions, relabels their
//! nodes contiguously and materialises the batch's adjacency matrix *densely* — the
//! Tensor Core path operates on an N×N 1-bit adjacency where N is the number of nodes
//! in the batch.  This module provides that step, plus feature gathering.
//!
//! The adjacency is written straight from CSR into a row-packed bit plane (the
//! aggregation GEMM's left operand), so materialising a batch costs
//! O(nnz + N·⌈N/128⌉) words; no N×N float matrix is built.  The fp32 consumers
//! (the DGL baseline and the fp16/TF32 paths) expand it on demand with
//! [`DenseSubgraph::dense_adjacency`].

use crate::csr::CsrGraph;
use qgtc_bitmat::{BitMatrix, BitMatrixLayout, StackedBitMatrix};
use qgtc_tensor::Matrix;
use std::sync::Arc;

/// Reusable scratch (the global→local node map) for
/// [`DenseSubgraph::batch_block_diagonal_in`], so sustained callers pay the
/// O(num_nodes) map allocation once instead of per batch.
#[derive(Debug, Default)]
pub struct SubgraphScratch {
    local_of: Vec<usize>,
}

/// A batch of partitions materialised as a dense subgraph.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseSubgraph {
    /// Original (global) node id of each local node, in local order.
    pub nodes: Vec<usize>,
    /// Binary adjacency, `nodes.len() x nodes.len()`, as a 1-bit row-packed
    /// stack: bit `(u, v)` is set when local node `u` has neighbour `v`.
    /// Shared: a batch's transfer payload holds the same plane, not a copy.
    pub adjacency: Arc<StackedBitMatrix>,
    /// Number of (directed) edges inside the subgraph.
    pub num_edges: usize,
}

impl DenseSubgraph {
    /// Extract the subgraph induced by `nodes` from `graph`.
    ///
    /// `nodes` may come from one partition or from a batch of partitions concatenated;
    /// nodes occurring multiple times are not supported (debug-asserted).
    /// `num_edges` counts every CSR entry that lands inside the subgraph, so a
    /// duplicated CSR entry counts twice.
    pub fn extract(graph: &CsrGraph, nodes: &[usize]) -> Self {
        let n = nodes.len();
        // Map global -> local.
        let mut local_of = vec![usize::MAX; graph.num_nodes()];
        for (local, &global) in nodes.iter().enumerate() {
            debug_assert!(
                local_of[global] == usize::MAX,
                "node {global} appears twice in the batch"
            );
            local_of[global] = local;
        }
        let mut adjacency = BitMatrix::zeros_in(n, n, BitMatrixLayout::RowPacked, Vec::new());
        let mut num_edges = 0usize;
        for (local_u, &global_u) in nodes.iter().enumerate() {
            for &global_v in graph.neighbors(global_u) {
                let local_v = local_of[global_v];
                if local_v != usize::MAX {
                    adjacency.set(local_u, local_v);
                    num_edges += 1;
                }
            }
        }
        Self {
            nodes: nodes.to_vec(),
            adjacency: Arc::new(StackedBitMatrix::from_plane(adjacency)),
            num_edges,
        }
    }

    /// Number of local nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Edge density of the dense adjacency (fraction of nonzero entries).
    pub fn density(&self) -> f64 {
        let n = self.num_nodes();
        if n == 0 {
            return 0.0;
        }
        self.num_edges as f64 / (n * n) as f64
    }

    /// The adjacency expanded to a dense 0.0 / 1.0 `f32` matrix, for the fp32
    /// consumers (the DGL baseline, the fp16/TF32 Tensor Core paths).  The
    /// QGTC path never calls this.
    pub fn dense_adjacency(&self) -> Matrix<f32> {
        let n = self.num_nodes();
        let plane = self.adjacency.plane(0);
        let mut dense = Matrix::zeros(n, n);
        for r in 0..n {
            let row = dense.row_mut(r);
            for (w, &word) in plane.lane(r).iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    row[w * 32 + bits.trailing_zeros() as usize] = 1.0;
                    bits &= bits - 1;
                }
            }
        }
        dense
    }

    /// Gather the feature rows of the subgraph's nodes from the global feature matrix.
    pub fn gather_features(&self, features: &Matrix<f32>) -> Matrix<f32> {
        features.gather_rows(&self.nodes)
    }

    /// [`DenseSubgraph::gather_features`] into recycled `storage` (cleared
    /// first) — value-identical to the fresh path, used by the serving
    /// layer's packed-buffer pool.
    pub fn gather_features_in(&self, features: &Matrix<f32>, mut storage: Vec<f32>) -> Matrix<f32> {
        storage.clear();
        storage.reserve(self.nodes.len() * features.cols());
        for &global in &self.nodes {
            storage.extend_from_slice(features.row(global));
        }
        Matrix::from_vec(self.nodes.len(), features.cols(), storage)
            .expect("length matches by construction")
    }

    /// Build a block-diagonal dense subgraph from several disjoint partitions.
    ///
    /// This mirrors the "batching" step of cluster-GCN: nodes across partitions are
    /// concatenated, and because no inter-partition edges are included the resulting
    /// adjacency is block diagonal — the source of the first kind of all-zero Tensor
    /// Core tiles the paper's Figure 8 analyses.
    pub fn batch_block_diagonal(graph: &CsrGraph, partitions: &[Vec<usize>]) -> Self {
        Self::batch_block_diagonal_in(
            graph,
            partitions,
            Vec::new(),
            Vec::new(),
            &mut SubgraphScratch::default(),
        )
    }

    /// [`DenseSubgraph::batch_block_diagonal`] materialising into recycled
    /// buffers: `adjacency_words` (the packed plane's storage) and
    /// `node_storage` are cleared (and the plane zero-filled) before use, and
    /// `scratch` carries the global→local map across calls.  Bitwise
    /// identical to the fresh path — an edge is kept exactly when both
    /// endpoints fall in the same partition's block.
    pub fn batch_block_diagonal_in(
        graph: &CsrGraph,
        partitions: &[Vec<usize>],
        adjacency_words: Vec<u32>,
        node_storage: Vec<usize>,
        scratch: &mut SubgraphScratch,
    ) -> Self {
        let total: usize = partitions.iter().map(Vec::len).sum();
        let mut nodes = node_storage;
        nodes.clear();
        nodes.reserve(total);
        let mut adjacency =
            BitMatrix::zeros_in(total, total, BitMatrixLayout::RowPacked, adjacency_words);
        let local_of = &mut scratch.local_of;
        local_of.clear();
        local_of.resize(graph.num_nodes(), usize::MAX);
        let mut offset = 0usize;
        for part in partitions {
            for (i, &global) in part.iter().enumerate() {
                debug_assert!(
                    local_of[global] == usize::MAX,
                    "node {global} appears twice in the batch"
                );
                local_of[global] = offset + i;
            }
            offset += part.len();
        }
        let mut num_edges = 0usize;
        offset = 0;
        for part in partitions {
            let block = offset..offset + part.len();
            for &global_u in part {
                let lu = local_of[global_u];
                for &global_v in graph.neighbors(global_u) {
                    let lv = local_of[global_v];
                    // Keep only intra-partition edges: the block-diagonal
                    // batching drops partition-cut edges by construction.
                    // `num_edges` counts distinct adjacency cells, so
                    // duplicate CSR entries collapse into one edge.
                    if lv != usize::MAX && block.contains(&lv) && adjacency.set(lu, lv) {
                        num_edges += 1;
                    }
                }
            }
            nodes.extend_from_slice(part);
            offset += part.len();
        }
        Self {
            nodes,
            adjacency: Arc::new(StackedBitMatrix::from_plane(adjacency)),
            num_edges,
        }
    }
}

/// Per-row degree of a 1-bit row-packed adjacency stack: a popcount over each
/// row lane.  Exact in `f32` below 2^24 columns, so bitwise equal to the row
/// sums of the dense 0/1 matrix.
pub fn adjacency_degrees(adjacency: &StackedBitMatrix) -> Vec<f32> {
    assert_eq!(adjacency.bits(), 1, "degrees need a 1-bit adjacency");
    adjacency
        .plane(0)
        .row_popcounts()
        .map(|d| d as f32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooGraph;

    /// 6-node graph: two triangles {0,1,2} and {3,4,5} joined by edge (2,3).
    fn two_triangles() -> CsrGraph {
        let mut coo = CooGraph::new(6);
        for &(u, v) in &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)] {
            coo.add_edge(u, v);
        }
        coo.symmetrize();
        CsrGraph::from_coo(&coo)
    }

    #[test]
    fn extract_triangle() {
        let g = two_triangles();
        let sub = DenseSubgraph::extract(&g, &[0, 1, 2]);
        assert_eq!(sub.num_nodes(), 3);
        assert_eq!(sub.num_edges, 6); // 3 undirected edges = 6 directed
        let dense = sub.dense_adjacency();
        for u in 0..3 {
            for v in 0..3 {
                let expected = if u == v { 0.0 } else { 1.0 };
                assert_eq!(dense[(u, v)], expected);
            }
        }
        assert!((sub.density() - 6.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn extract_respects_local_ordering() {
        let g = two_triangles();
        let sub = DenseSubgraph::extract(&g, &[2, 3]);
        // The only edge between nodes 2 and 3 appears in both directions.
        assert_eq!(sub.dense_adjacency()[(0, 1)], 1.0);
        assert_eq!(sub.dense_adjacency()[(1, 0)], 1.0);
        assert_eq!(sub.num_edges, 2);
    }

    #[test]
    fn extract_excludes_outside_edges() {
        let g = two_triangles();
        let sub = DenseSubgraph::extract(&g, &[0, 1]);
        // Edge to node 2 must not appear.
        assert_eq!(sub.num_edges, 2);
    }

    #[test]
    fn gather_features_selects_rows_in_node_order() {
        let g = two_triangles();
        let features = Matrix::from_vec(6, 2, (0..12).map(|v| v as f32).collect()).unwrap();
        let sub = DenseSubgraph::extract(&g, &[4, 0]);
        let f = sub.gather_features(&features);
        assert_eq!(f.row(0), &[8.0, 9.0]);
        assert_eq!(f.row(1), &[0.0, 1.0]);
    }

    #[test]
    fn block_diagonal_batch_drops_cut_edges() {
        let g = two_triangles();
        let batch = DenseSubgraph::batch_block_diagonal(&g, &[vec![0, 1, 2], vec![3, 4, 5]]);
        assert_eq!(batch.num_nodes(), 6);
        // The (2,3) bridge edge is dropped; each triangle contributes 6 directed edges.
        assert_eq!(batch.num_edges, 12);
        let dense = batch.dense_adjacency();
        assert_eq!(dense[(2, 3)], 0.0);
        assert_eq!(dense[(0, 1)], 1.0);
        assert_eq!(dense[(3, 4)], 1.0);
        assert_eq!(adjacency_degrees(&batch.adjacency), vec![2.0; 6]);
    }

    #[test]
    fn extracting_every_node_keeps_cut_edges() {
        let g = two_triangles();
        let batch = DenseSubgraph::extract(&g, &[0, 1, 2, 3, 4, 5]);
        assert_eq!(batch.num_edges, 14); // 7 undirected edges
        assert_eq!(batch.dense_adjacency()[(2, 3)], 1.0);
        assert_eq!(
            adjacency_degrees(&batch.adjacency),
            vec![2.0, 2.0, 3.0, 3.0, 2.0, 2.0]
        );
    }

    #[test]
    fn empty_subgraph() {
        let g = two_triangles();
        let sub = DenseSubgraph::extract(&g, &[]);
        assert_eq!(sub.num_nodes(), 0);
        assert_eq!(sub.num_edges, 0);
        assert_eq!(sub.density(), 0.0);
    }
}
