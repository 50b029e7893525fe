//! Graph statistics used by the partitioner's quality report.

use crate::csr::CsrGraph;

/// Count how many edges of the graph connect nodes in the same part, given a part
/// assignment per node. Returns `(intra_edges, inter_edges)` in directed counts.
pub fn partition_edge_split(graph: &CsrGraph, parts: &[usize]) -> (usize, usize) {
    assert_eq!(
        parts.len(),
        graph.num_nodes(),
        "partition vector length mismatch"
    );
    let mut intra = 0usize;
    let mut inter = 0usize;
    for u in 0..graph.num_nodes() {
        for &v in graph.neighbors(u) {
            if parts[u] == parts[v] {
                intra += 1;
            } else {
                inter += 1;
            }
        }
    }
    (intra, inter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooGraph;

    fn star(n: usize) -> CsrGraph {
        let mut coo = CooGraph::new(n);
        for i in 1..n {
            coo.add_edge(0, i);
        }
        coo.symmetrize();
        CsrGraph::from_coo(&coo)
    }

    #[test]
    fn partition_split_counts() {
        let g = star(4); // edges 0-1, 0-2, 0-3
        let parts = vec![0, 0, 1, 1];
        let (intra, inter) = partition_edge_split(&g, &parts);
        assert_eq!(intra, 2); // 0-1 both directions
        assert_eq!(inter, 4); // 0-2, 0-3 both directions
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn partition_split_checks_length() {
        let g = star(4);
        let _ = partition_edge_split(&g, &[0, 1]);
    }
}
