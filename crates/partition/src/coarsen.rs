//! Weighted graphs and graph contraction for the multilevel hierarchy.
//!
//! During coarsening, matched node pairs are merged into super-nodes.  Node weights
//! accumulate (a super-node's weight is the number of original nodes it represents)
//! and parallel edges between the same pair of super-nodes collapse into a single
//! edge whose weight is the sum — exactly the bookkeeping METIS performs.

use qgtc_graph::CsrGraph;

use crate::matching::Matching;
use crate::shard::map_shards;

/// An undirected graph with integer node and edge weights, stored as adjacency lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightedGraph {
    /// `adj[u]` lists `(neighbor, edge_weight)` pairs.
    adj: Vec<Vec<(usize, u64)>>,
    /// Weight (contained original-node count) of each node.
    node_weights: Vec<u64>,
    /// Total edge weight (each undirected edge counted twice).
    total_edge_weight: u64,
}

impl WeightedGraph {
    /// Build from an unweighted CSR graph: every node weight 1, every edge weight 1.
    pub fn from_csr(graph: &CsrGraph) -> Self {
        let n = graph.num_nodes();
        let mut adj = vec![Vec::new(); n];
        for (u, list) in adj.iter_mut().enumerate() {
            for &v in graph.neighbors(u) {
                if u != v {
                    list.push((v, 1));
                }
            }
        }
        let total = adj
            .iter()
            .map(|l| l.iter().map(|&(_, w)| w).sum::<u64>())
            .sum();
        Self {
            adj,
            node_weights: vec![1; n],
            total_edge_weight: total,
        }
    }

    /// Build from explicit undirected weighted edges (each edge added in both directions).
    pub fn from_weighted_edges(
        num_nodes: usize,
        edges: &[(usize, usize, u64)],
        node_weights: &[u64],
    ) -> Self {
        assert_eq!(node_weights.len(), num_nodes, "node weight length mismatch");
        let mut adj = vec![Vec::new(); num_nodes];
        for &(u, v, w) in edges {
            assert!(u < num_nodes && v < num_nodes, "edge endpoint out of range");
            if u == v {
                continue;
            }
            adj[u].push((v, w));
            adj[v].push((u, w));
        }
        let total = adj
            .iter()
            .map(|l| l.iter().map(|&(_, w)| w).sum::<u64>())
            .sum();
        Self {
            adj,
            node_weights: node_weights.to_vec(),
            total_edge_weight: total,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Weighted neighbour list of node `u`.
    pub fn neighbors(&self, u: usize) -> &[(usize, u64)] {
        &self.adj[u]
    }

    /// Node weight (number of original nodes represented).
    pub fn node_weight(&self, u: usize) -> u64 {
        self.node_weights[u]
    }

    /// Sum of all node weights (invariant across coarsening levels).
    pub fn total_node_weight(&self) -> u64 {
        self.node_weights.iter().sum()
    }

    /// Total edge weight with each undirected edge counted twice.
    pub fn total_edge_weight(&self) -> u64 {
        self.total_edge_weight
    }
}

/// One level of the coarsening hierarchy: the coarse graph plus the mapping from fine
/// nodes to coarse nodes.
#[derive(Debug, Clone)]
pub struct CoarseLevel {
    /// The contracted graph.
    pub graph: WeightedGraph,
    /// `coarse_of[fine_node] = coarse_node`.
    pub coarse_of: Vec<usize>,
}

/// Contract a matching: each matched pair becomes one coarse node, unmatched
/// nodes map to singleton coarse nodes. The coarse rows are built over
/// `shards` contiguous coarse-node ranges on the worker pool.
///
/// The fine-to-coarse renumbering is a cheap serial first-visit scan (its order
/// defines the coarse ids, so it stays on one thread); every coarse node's
/// adjacency row and weight then depend only on its own (at most two) fine
/// members, so the rows are built shard-parallel and concatenated in shard
/// order — bitwise identical output for every shard count.
pub fn contract(graph: &WeightedGraph, matching: &Matching, shards: usize) -> CoarseLevel {
    let n = graph.num_nodes();
    // Serial renumber in first-visit order; `rep[c]` is the first fine node of
    // coarse node `c` (its mate, when matched, is the only other member).
    let mut coarse_of = vec![usize::MAX; n];
    let mut rep: Vec<usize> = Vec::new();
    for u in 0..n {
        if coarse_of[u] != usize::MAX {
            continue;
        }
        let v = matching.mate[u];
        coarse_of[u] = rep.len();
        if v != u {
            coarse_of[v] = rep.len();
        }
        rep.push(u);
    }
    let coarse_n = rep.len();

    // Parallel: each coarse row from its own members, duplicates merged by a
    // sort (the member lists are tiny, so this is cheaper than hashing and its
    // output order is canonical).
    type CoarseRow = (Vec<(usize, u64)>, u64);
    let coarse_of_ref = &coarse_of;
    let rep_ref = &rep;
    let shard_rows: Vec<Vec<CoarseRow>> = map_shards(coarse_n, shards, |range| {
        // One scratch row per shard: no malloc/free pair per coarse node.
        let mut row: Vec<(usize, u64)> = Vec::new();
        range
            .map(|c| {
                let u = rep_ref[c];
                let v = matching.mate[u];
                row.clear();
                let mut weight = graph.node_weight(u);
                push_coarse_neighbors(graph, u, c, coarse_of_ref, &mut row);
                if v != u {
                    weight += graph.node_weight(v);
                    push_coarse_neighbors(graph, v, c, coarse_of_ref, &mut row);
                }
                row.sort_unstable_by_key(|&(cv, _)| cv);
                let mut merged: Vec<(usize, u64)> = Vec::with_capacity(row.len());
                for &(cv, w) in &row {
                    match merged.last_mut() {
                        Some((last, acc)) if *last == cv => *acc += w,
                        _ => merged.push((cv, w)),
                    }
                }
                (merged, weight)
            })
            .collect()
    });

    let mut adj_lists: Vec<Vec<(usize, u64)>> = Vec::with_capacity(coarse_n);
    let mut node_weights: Vec<u64> = Vec::with_capacity(coarse_n);
    for (row, weight) in shard_rows.into_iter().flatten() {
        adj_lists.push(row);
        node_weights.push(weight);
    }
    let total = adj_lists
        .iter()
        .map(|l| l.iter().map(|&(_, w)| w).sum::<u64>())
        .sum();
    CoarseLevel {
        graph: WeightedGraph {
            adj: adj_lists,
            node_weights,
            total_edge_weight: total,
        },
        coarse_of,
    }
}

/// Append the coarse images of `u`'s neighbours (dropping edges internal to
/// coarse node `cu`) to `row`.
fn push_coarse_neighbors(
    graph: &WeightedGraph,
    u: usize,
    cu: usize,
    coarse_of: &[usize],
    row: &mut Vec<(usize, u64)>,
) {
    for &(v, w) in graph.neighbors(u) {
        let cv = coarse_of[v];
        if cv != cu {
            row.push((cv, w));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::heavy_edge_matching;
    use qgtc_graph::{CooGraph, CsrGraph};

    fn cycle(n: usize) -> WeightedGraph {
        let mut coo = CooGraph::new(n);
        for i in 0..n {
            coo.add_edge(i, (i + 1) % n);
        }
        coo.symmetrize();
        WeightedGraph::from_csr(&CsrGraph::from_coo(&coo))
    }

    #[test]
    fn from_csr_preserves_structure() {
        let g = cycle(6);
        assert_eq!(g.num_nodes(), 6);
        assert_eq!(g.total_node_weight(), 6);
        assert_eq!(g.total_edge_weight(), 12);
        assert_eq!(g.neighbors(0).len(), 2);
    }

    #[test]
    fn contraction_preserves_node_weight() {
        let g = cycle(8);
        let m = heavy_edge_matching(&g, 1, 1);
        let level = contract(&g, &m, 1);
        assert_eq!(level.graph.total_node_weight(), 8);
        assert_eq!(level.graph.num_nodes(), 8 - m.num_pairs);
        // Every fine node maps to a valid coarse node.
        assert!(level.coarse_of.iter().all(|&c| c < level.graph.num_nodes()));
    }

    #[test]
    fn contraction_collapses_parallel_edges() {
        // Square 0-1-2-3 with both 0-1 and 2-3 matched: coarse graph is 2 nodes
        // joined by the two cut edges collapsed into weight 2.
        let g = WeightedGraph::from_weighted_edges(
            4,
            &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)],
            &[1, 1, 1, 1],
        );
        let matching = Matching {
            mate: vec![1, 0, 3, 2],
            num_pairs: 2,
        };
        let level = contract(&g, &matching, 1);
        assert_eq!(level.graph.num_nodes(), 2);
        let nbrs = level.graph.neighbors(0);
        assert_eq!(nbrs.len(), 1);
        assert_eq!(nbrs[0].1, 2, "parallel cut edges should sum to weight 2");
        assert_eq!(level.graph.node_weight(0), 2);
    }

    #[test]
    fn contraction_drops_internal_edges() {
        // Matched pair connected by an edge: the edge disappears (becomes internal).
        let g = WeightedGraph::from_weighted_edges(2, &[(0, 1, 5)], &[1, 1]);
        let matching = Matching {
            mate: vec![1, 0],
            num_pairs: 1,
        };
        let level = contract(&g, &matching, 1);
        assert_eq!(level.graph.num_nodes(), 1);
        assert_eq!(level.graph.total_edge_weight(), 0);
        assert_eq!(level.graph.node_weight(0), 2);
    }

    #[test]
    #[should_panic(expected = "node weight length mismatch")]
    fn from_weighted_edges_checks_weights() {
        let _ = WeightedGraph::from_weighted_edges(3, &[], &[1, 1]);
    }

    #[test]
    fn sharded_contraction_is_bitwise_identical_to_serial() {
        let g = cycle(37);
        for seed in [1u64, 6] {
            let m = heavy_edge_matching(&g, seed, 1);
            let serial = contract(&g, &m, 1);
            for shards in [2usize, 3, 8, 64] {
                let sharded = contract(&g, &m, shards);
                assert_eq!(serial.graph, sharded.graph, "seed {seed}, {shards} shards");
                assert_eq!(serial.coarse_of, sharded.coarse_of);
            }
        }
    }

    #[test]
    fn self_loops_ignored() {
        let g = WeightedGraph::from_weighted_edges(2, &[(0, 0, 3), (0, 1, 1)], &[1, 1]);
        assert_eq!(g.neighbors(0).len(), 1);
        assert_eq!(g.total_edge_weight(), 2);
    }
}
