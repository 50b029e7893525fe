//! Synthetic graph generators.
//!
//! Real QGTC datasets are replaced by synthetic graphs with matched size and
//! community structure (see the workspace README):
//!
//! * [`stochastic_block_model`] — planted communities; the generator behind every
//!   dataset profile, because METIS-partitioned real graphs behave like dense
//!   clusters connected by a sparse cut, which SBM models directly.  Also provides
//!   ground-truth community labels used by the quantization-aware-training accuracy
//!   experiment (Table 2).
//! * [`ring_lattice`] — a regular ring for tests that need a fully predictable
//!   structure.
//!
//! Both return an undirected, self-loop-free [`CooGraph`]; the block model is
//! deterministic given its seed.

use crate::coo::CooGraph;
use qgtc_tensor::rng::SplitMix64;

/// Parameters of a stochastic block model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SbmParams {
    /// Number of nodes.
    pub num_nodes: usize,
    /// Number of planted communities.
    pub num_blocks: usize,
    /// Expected intra-community degree per node.
    pub intra_degree: f64,
    /// Expected inter-community degree per node.
    pub inter_degree: f64,
}

/// Generate a stochastic-block-model graph.
///
/// Nodes are assigned to `num_blocks` equal-size contiguous blocks; each node draws
/// roughly `intra_degree` neighbours from its own block and `inter_degree` neighbours
/// from other blocks.  Returns the graph and the block (community) label of each node.
pub fn stochastic_block_model(params: SbmParams, seed: u64) -> (CooGraph, Vec<usize>) {
    let n = params.num_nodes;
    let k = params.num_blocks.max(1);
    let mut rng = SplitMix64::new(seed);
    let block_size = n.div_ceil(k);
    let labels: Vec<usize> = (0..n).map(|i| (i / block_size).min(k - 1)).collect();

    let mut coo = CooGraph::new(n);
    for u in 0..n {
        let my_block = labels[u];
        let block_start = my_block * block_size;
        let block_end = ((my_block + 1) * block_size).min(n);
        let block_len = block_end - block_start;

        // Intra-community edges.
        let intra_count = sample_count(&mut rng, params.intra_degree);
        for _ in 0..intra_count {
            if block_len <= 1 {
                break;
            }
            let v = block_start + rng.next_bounded(block_len as u64) as usize;
            if v != u {
                coo.add_edge(u, v);
            }
        }
        // Inter-community edges.
        let inter_count = sample_count(&mut rng, params.inter_degree);
        for _ in 0..inter_count {
            if n <= block_len {
                break;
            }
            let v = rng.next_bounded(n as u64) as usize;
            if v != u && labels[v] != my_block {
                coo.add_edge(u, v);
            }
        }
    }
    coo.symmetrize();
    (coo, labels)
}

/// Generate a graph whose every node has degree exactly `degree` by wiring each node
/// to its `degree` nearest ring neighbours (a regular ring lattice).
///
/// Useful for tests that need a fully predictable structure.
pub fn ring_lattice(num_nodes: usize, degree: usize) -> CooGraph {
    let mut coo = CooGraph::new(num_nodes);
    if num_nodes < 2 {
        return coo;
    }
    let half = (degree / 2).max(1);
    for u in 0..num_nodes {
        for d in 1..=half {
            let v = (u + d) % num_nodes;
            if v != u {
                coo.add_edge(u, v);
            }
        }
    }
    coo.symmetrize();
    coo
}

/// Draw an integer count whose expectation is `mean` (mean split into a deterministic
/// floor plus a Bernoulli remainder — cheap and adequate for workload generation).
fn sample_count(rng: &mut SplitMix64, mean: f64) -> usize {
    let base = mean.floor() as usize;
    let frac = mean - mean.floor();
    base + usize::from(rng.next_f64() < frac)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrGraph;

    #[test]
    fn sbm_produces_expected_size_and_labels() {
        let params = SbmParams {
            num_nodes: 400,
            num_blocks: 4,
            intra_degree: 8.0,
            inter_degree: 1.0,
        };
        let (g, labels) = stochastic_block_model(params, 1);
        assert_eq!(g.num_nodes(), 400);
        assert_eq!(labels.len(), 400);
        assert!(labels.iter().all(|&b| b < 4));
        assert!(g.is_symmetric());
        // Every block is populated with 100 nodes.
        for b in 0..4 {
            assert_eq!(labels.iter().filter(|&&l| l == b).count(), 100);
        }
    }

    #[test]
    fn sbm_is_community_dense() {
        let params = SbmParams {
            num_nodes: 600,
            num_blocks: 6,
            intra_degree: 10.0,
            inter_degree: 1.0,
        };
        let (g, labels) = stochastic_block_model(params, 7);
        let mut intra = 0usize;
        let mut inter = 0usize;
        for &(u, v) in g.edges() {
            if labels[u] == labels[v] {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        assert!(
            intra > 3 * inter,
            "expected strong community structure, got intra {intra} inter {inter}"
        );
    }

    #[test]
    fn sbm_deterministic() {
        let p = SbmParams {
            num_nodes: 100,
            num_blocks: 2,
            intra_degree: 5.0,
            inter_degree: 0.5,
        };
        let (a, _) = stochastic_block_model(p, 3);
        let (b, _) = stochastic_block_model(p, 3);
        assert_eq!(a, b);
        let (c, _) = stochastic_block_model(p, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn ring_lattice_is_regular() {
        let g = ring_lattice(10, 4);
        let csr = CsrGraph::from_coo(&g);
        for u in 0..10 {
            assert_eq!(csr.degree(u), 4, "node {u} degree");
        }
    }
}
