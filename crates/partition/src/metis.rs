//! The multilevel k-way partitioning driver (METIS substitute).
//!
//! [`partition_kway`] chains the three phases implemented in the sibling modules:
//! coarsen with heavy-edge matching until the graph is small, partition the coarsest
//! graph greedily (a panel of concurrent candidates, best cut wins), then project
//! back level by level with boundary refinement.  The result is a [`Partitioning`]:
//! a part id per node plus the node lists of every part, in the exact shape QGTC
//! hands to its batching stage.
//!
//! # Sharding and the determinism contract
//!
//! Every phase deals its node (or candidate) space into contiguous ascending
//! shards on the rayon worker pool — matching's pick rounds, contraction's
//! coarse-row builds, the initial-partition candidate panel, refinement's gain
//! scans and the final edge-cut sweep — behind the
//! [`PartitionConfig::parallelism`] knob.  Each sharded step is a pure map whose
//! results merge in shard order, so the partitioner is **deterministic**: for a
//! fixed seed the [`Partitioning`] is bitwise identical for every
//! [`Parallelism`] mode and every thread count, and `Parallelism::Serial` *is*
//! the one-shard special case of the same code.  `Parallelism::Auto` (the
//! default) sizes the shards to the pool and therefore degenerates to the serial
//! sweep on single-core hosts.
//! The contract is enforced by `tests/partition_parallel_props.rs` and by the
//! perfsmoke partition probe on all six dataset profiles.

use qgtc_graph::CsrGraph;

use crate::coarsen::{contract, CoarseLevel, WeightedGraph};
use crate::initial::best_greedy_kway;
use crate::matching::heavy_edge_matching;
use crate::refine::{edge_cut, project, refine};

/// Allowed imbalance: each part may hold up to `BALANCE_FACTOR * n / num_parts`
/// node weight (METIS defaults to 1.03; this is a little looser).
const BALANCE_FACTOR: f64 = 1.10;
/// Coarsening stops at `COARSEN_UNTIL_FACTOR * num_parts` nodes (at least 32),
/// or when the graph no longer shrinks.
const COARSEN_UNTIL_FACTOR: usize = 8;
/// Maximum refinement passes per level.
const REFINE_PASSES: usize = 4;
/// Independent initial partitions grown on the coarsest graph; the one with
/// the smallest refined edge cut wins (ties by candidate index).
const INITIAL_CANDIDATES: usize = 4;

/// How the partitioner spreads its phases over the worker pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Run every phase on the calling thread (the one-shard code path).
    Serial,
    /// Deal every phase over this many contiguous shards on the rayon pool.
    /// The result is identical to `Serial` for any shard count; more shards
    /// than pool threads only cost dispatch overhead.
    Sharded(usize),
    /// One shard per pool thread (`RAYON_NUM_THREADS` / core count): the
    /// sharded path on multicore hosts, the serial path on single-core hosts.
    #[default]
    Auto,
}

impl Parallelism {
    /// The shard count this mode resolves to on the current host (always ≥ 1).
    pub fn effective_shards(&self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Sharded(shards) => (*shards).max(1),
            Parallelism::Auto => rayon::current_num_threads().max(1),
        }
    }
}

/// Configuration of the multilevel partitioner.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionConfig {
    /// Number of partitions to produce (the paper uses 1,500 for its evaluation).
    pub num_parts: usize,
    /// How the phases shard over the worker pool; the result is identical in
    /// every mode (see the module docs).
    pub parallelism: Parallelism,
    /// RNG seed (matching tie-break ranks, region-growing order).
    pub seed: u64,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        Self {
            num_parts: 8,
            parallelism: Parallelism::Auto,
            seed: 0x9617C,
        }
    }
}

impl PartitionConfig {
    /// Convenience constructor with everything defaulted except the part count.
    pub fn with_parts(num_parts: usize) -> Self {
        Self {
            num_parts,
            ..Default::default()
        }
    }

    /// The same configuration pinned to a parallelism mode.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }
}

/// The result of partitioning a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Partitioning {
    /// Part id of every node.
    pub parts: Vec<usize>,
    /// Number of parts actually produced.
    pub num_parts: usize,
    /// Final (unweighted) edge cut.
    pub edge_cut: u64,
}

impl Partitioning {
    /// Node lists of each part, in ascending node order.
    pub fn part_nodes(&self) -> Vec<Vec<usize>> {
        let mut lists = vec![Vec::new(); self.num_parts];
        for (node, &p) in self.parts.iter().enumerate() {
            lists[p].push(node);
        }
        lists
    }

    /// Sizes of every part.
    pub fn part_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_parts];
        for &p in &self.parts {
            sizes[p] += 1;
        }
        sizes
    }

    /// Size of the largest part divided by the average part size.
    pub fn imbalance(&self) -> f64 {
        let sizes = self.part_sizes();
        let max = sizes.iter().copied().max().unwrap_or(0) as f64;
        let avg = self.parts.len() as f64 / self.num_parts.max(1) as f64;
        if avg == 0.0 {
            0.0
        } else {
            max / avg
        }
    }
}

/// An invalid-argument failure of the partitioning layer.
///
/// The `Display` strings reproduce the historical panic messages of
/// [`partition_kway`] and [`crate::batch::PartitionBatcher::new`] exactly, so the
/// panicking entry points can delegate to the fallible ones without changing any
/// observable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// `num_parts == 0`: a zero-way partition has no meaning.
    ZeroParts,
    /// `num_parts` exceeds the node count of a non-empty graph.
    TooManyParts {
        /// The requested part count.
        num_parts: usize,
        /// The graph's node count.
        num_nodes: usize,
    },
    /// `batch_size == 0`: a zero-partition batch has no meaning in the cluster-GCN model.
    ZeroBatchSize,
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::ZeroParts => write!(f, "num_parts must be at least 1 (got 0)"),
            PartitionError::TooManyParts {
                num_parts,
                num_nodes,
            } => write!(
                f,
                "num_parts ({num_parts}) exceeds the graph's node count ({num_nodes}); partitions cannot be empty by construction"
            ),
            PartitionError::ZeroBatchSize => write!(f, "batch_size must be at least 1"),
        }
    }
}

impl std::error::Error for PartitionError {}

/// Partition a graph into `config.num_parts` parts using multilevel k-way
/// partitioning.
///
/// # Panics
///
/// Panics if `config.num_parts == 0` (a zero-way partition has no meaning) or if
/// `config.num_parts` exceeds the graph's node count — silently clamping either
/// would hide a configuration bug upstream, matching the `batch_size == 0`
/// precedent in [`crate::batch::PartitionBatcher::new`]. An **empty graph** is
/// exempt and yields an empty partitioning for any `num_parts ≥ 1` (there is no
/// node count to exceed meaningfully).
pub fn partition_kway(graph: &CsrGraph, config: &PartitionConfig) -> Partitioning {
    try_partition_kway(graph, config).unwrap_or_else(|err| panic!("{err}"))
}

/// Fallible form of [`partition_kway`]: invalid arguments become a typed
/// [`PartitionError`] instead of a panic. The empty-graph exemption is
/// unchanged — an empty graph yields an empty partitioning for any
/// `num_parts >= 1`.
pub fn try_partition_kway(
    graph: &CsrGraph,
    config: &PartitionConfig,
) -> Result<Partitioning, PartitionError> {
    let n = graph.num_nodes();
    let k = config.num_parts;
    if k == 0 {
        return Err(PartitionError::ZeroParts);
    }
    if n == 0 {
        return Ok(Partitioning {
            parts: Vec::new(),
            num_parts: k,
            edge_cut: 0,
        });
    }
    if k > n {
        return Err(PartitionError::TooManyParts {
            num_parts: k,
            num_nodes: n,
        });
    }
    if k == 1 {
        return Ok(Partitioning {
            parts: vec![0; n],
            num_parts: 1,
            edge_cut: 0,
        });
    }

    let shards = config.parallelism.effective_shards();
    let base = WeightedGraph::from_csr(graph);

    // As many parts as nodes: each node is its own part.
    if k == n {
        let parts: Vec<usize> = (0..n).collect();
        let cut = edge_cut(&base, &parts, shards);
        return Ok(Partitioning {
            parts,
            num_parts: n,
            edge_cut: cut,
        });
    }

    // Phase 1: coarsening. The next level is built against the previous level's
    // graph by reference (the base graph for the first level) — no per-level
    // clones.
    let target_coarse_nodes = (COARSEN_UNTIL_FACTOR * k).max(32);
    let mut levels: Vec<CoarseLevel> = Vec::new();
    let mut level_seed = config.seed;
    loop {
        let next = {
            let current = levels.last().map_or(&base, |level| &level.graph);
            if current.num_nodes() <= target_coarse_nodes {
                None
            } else {
                let matching = heavy_edge_matching(current, level_seed, shards);
                level_seed = level_seed.wrapping_add(1);
                // Stop if coarsening stalls (e.g. star graphs where matchings are tiny).
                if matching.num_pairs * 10 < current.num_nodes() {
                    None
                } else {
                    Some(contract(current, &matching, shards))
                }
            }
        };
        match next {
            Some(level) => levels.push(level),
            None => break,
        }
    }

    // Phase 2: initial partitioning of the coarsest graph — a concurrent panel
    // of candidates, each grown and refined independently; best cut wins.
    let coarsest = levels.last().map_or(&base, |level| &level.graph);
    let mut parts = best_greedy_kway(
        coarsest,
        k,
        BALANCE_FACTOR,
        config.seed ^ 0xABCD,
        INITIAL_CANDIDATES,
        REFINE_PASSES,
        shards,
    );

    // Phase 3: uncoarsen and refine level by level; the graph one level finer is
    // the previous level's graph, or the base graph at the bottom.
    for index in (0..levels.len()).rev() {
        parts = project(&parts, &levels[index].coarse_of);
        let finer = if index == 0 {
            &base
        } else {
            &levels[index - 1].graph
        };
        refine(finer, &mut parts, k, BALANCE_FACTOR, REFINE_PASSES, shards);
    }

    let cut = edge_cut(&base, &parts, shards);
    Ok(Partitioning {
        parts,
        num_parts: k,
        edge_cut: cut,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgtc_graph::generate::{stochastic_block_model, SbmParams};
    use qgtc_graph::stats::partition_edge_split;
    use qgtc_graph::CsrGraph;

    fn clustered_graph(nodes: usize, blocks: usize, seed: u64) -> CsrGraph {
        let (coo, _) = stochastic_block_model(
            SbmParams {
                num_nodes: nodes,
                num_blocks: blocks,
                intra_degree: 8.0,
                inter_degree: 0.5,
            },
            seed,
        );
        CsrGraph::from_coo(&coo)
    }

    #[test]
    fn covers_all_nodes_with_valid_parts() {
        let g = clustered_graph(500, 5, 1);
        let p = partition_kway(&g, &PartitionConfig::with_parts(5));
        assert_eq!(p.parts.len(), 500);
        assert!(p.parts.iter().all(|&x| x < 5));
        let lists = p.part_nodes();
        let total: usize = lists.iter().map(Vec::len).sum();
        assert_eq!(total, 500, "every node in exactly one part");
    }

    #[test]
    fn partitions_are_denser_than_random() {
        let g = clustered_graph(800, 8, 3);
        let p = partition_kway(&g, &PartitionConfig::with_parts(8));
        let (intra, inter) = partition_edge_split(&g, &p.parts);
        let frac_intra = intra as f64 / (intra + inter).max(1) as f64;
        // A random 8-way partition keeps ~1/8 of edges intra; the multilevel
        // partitioner on a strongly clustered graph should keep far more.
        assert!(
            frac_intra > 0.5,
            "intra-edge fraction too low: {frac_intra:.3}"
        );
    }

    #[test]
    fn single_part_short_circuit() {
        let g = clustered_graph(100, 2, 5);
        let p = partition_kway(&g, &PartitionConfig::with_parts(1));
        assert!(p.parts.iter().all(|&x| x == 0));
        assert_eq!(p.edge_cut, 0);
    }

    #[test]
    fn as_many_parts_as_nodes_isolates_every_node() {
        let g = clustered_graph(20, 2, 7);
        let p = partition_kway(&g, &PartitionConfig::with_parts(20));
        assert_eq!(p.num_parts, 20);
        let sizes = p.part_sizes();
        assert!(sizes.iter().all(|&s| s == 1));
    }

    #[test]
    #[should_panic(expected = "num_parts must be at least 1")]
    fn zero_parts_rejected() {
        let g = clustered_graph(20, 2, 7);
        let _ = partition_kway(&g, &PartitionConfig::with_parts(0));
    }

    #[test]
    #[should_panic(expected = "exceeds the graph's node count")]
    fn more_parts_than_nodes_rejected() {
        let g = clustered_graph(20, 2, 7);
        let _ = partition_kway(&g, &PartitionConfig::with_parts(100));
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_parts(vec![0], vec![]);
        assert_eq!(g.num_nodes(), 0);
        let p = partition_kway(&g, &PartitionConfig::with_parts(4));
        assert!(p.parts.is_empty());
        assert_eq!(p.edge_cut, 0);
    }

    #[test]
    fn imbalance_is_bounded() {
        let g = clustered_graph(600, 6, 11);
        let p = partition_kway(&g, &PartitionConfig::with_parts(6));
        assert!(
            p.imbalance() < 1.8,
            "partition too imbalanced: {:.2} (sizes {:?})",
            p.imbalance(),
            p.part_sizes()
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = clustered_graph(300, 3, 2);
        let cfg = PartitionConfig::with_parts(3);
        assert_eq!(partition_kway(&g, &cfg), partition_kway(&g, &cfg));
    }

    #[test]
    fn every_parallelism_mode_is_bitwise_identical() {
        let g = clustered_graph(400, 4, 9);
        let serial = partition_kway(
            &g,
            &PartitionConfig::with_parts(4).with_parallelism(Parallelism::Serial),
        );
        for mode in [
            Parallelism::Sharded(2),
            Parallelism::Sharded(3),
            Parallelism::Sharded(8),
            Parallelism::Sharded(61),
            Parallelism::Auto,
        ] {
            let sharded =
                partition_kway(&g, &PartitionConfig::with_parts(4).with_parallelism(mode));
            assert_eq!(serial, sharded, "{mode:?} must match the serial oracle");
        }
    }

    #[test]
    fn edge_cut_reported_matches_partition() {
        let g = clustered_graph(400, 4, 9);
        let p = partition_kway(&g, &PartitionConfig::with_parts(4));
        let (_, inter) = partition_edge_split(&g, &p.parts);
        assert_eq!(p.edge_cut as usize, inter / 2);
    }
}
