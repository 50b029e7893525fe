//! Property suite for the sharded partitioner's determinism contract: across
//! random graphs, part counts, seeds and shard widths, the sharded
//! `partition_kway` must produce a `Partitioning` **bitwise identical** to the
//! serial oracle — same assignment, same part count, and the same edge cut as
//! independently measured by `quality.rs` on the assignment.
//!
//! The shard width is the determinism-relevant dimension (shard boundaries are
//! the only thing that could change a reduction's order); the pool's *thread* count
//! only changes which worker executes which shard, never the merge order.
//! `ci.sh` still runs this whole suite under `RAYON_NUM_THREADS` ∈ {1, 2, 8} in
//! its partition-determinism stage, so both dimensions are covered.

use proptest::prelude::*;
use qgtc_repro::graph::generate::{stochastic_block_model, SbmParams};
use qgtc_repro::graph::{CooGraph, CsrGraph};
use qgtc_repro::partition::quality::partition_quality;
use qgtc_repro::partition::{partition_kway, Parallelism, PartitionConfig};

/// Shard widths the contract is checked over (1 is the serial oracle itself;
/// the larger widths exceed any plausible pool so remainder shards appear).
const SHARD_WIDTHS: [usize; 4] = [2, 3, 8, 17];

fn random_graph(nodes: usize, edges: &[(usize, usize)]) -> CsrGraph {
    let mut coo = CooGraph::new(nodes);
    for &(u, v) in edges {
        if u != v {
            coo.add_edge(u % nodes, v % nodes);
        }
    }
    coo.symmetrize();
    CsrGraph::from_coo(&coo)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sharded_partitioning_equals_serial_oracle(
        nodes in 8usize..120,
        edges in proptest::collection::vec((0usize..120, 0usize..120), 10..400),
        k in 1usize..8,
        seed in 0u64..1_000_000,
    ) {
        let graph = random_graph(nodes, &edges);
        let k = k.min(graph.num_nodes());
        let mut config = PartitionConfig::with_parts(k).with_parallelism(Parallelism::Serial);
        config.seed = seed;
        let oracle = partition_kway(&graph, &config);
        prop_assert_eq!(oracle.parts.len(), graph.num_nodes());

        for shards in SHARD_WIDTHS {
            let sharded_config = config.clone().with_parallelism(Parallelism::Sharded(shards));
            let sharded = partition_kway(&graph, &sharded_config);
            // Any divergence from the serial oracle fails the shard width here.
            prop_assert_eq!(&oracle, &sharded);
        }
        let auto = partition_kway(&graph, &config.clone().with_parallelism(Parallelism::Auto));
        prop_assert_eq!(&oracle, &auto);
    }

    #[test]
    fn sharded_edge_cut_matches_quality_measurement(
        nodes in 16usize..100,
        blocks in 2usize..5,
        k in 2usize..6,
        seed in 0u64..1_000_000,
    ) {
        let (coo, _) = stochastic_block_model(
            SbmParams {
                num_nodes: nodes,
                num_blocks: blocks,
                intra_degree: 6.0,
                inter_degree: 0.8,
            },
            seed,
        );
        let graph = CsrGraph::from_coo(&coo);
        let k = k.min(graph.num_nodes());
        for parallelism in [Parallelism::Serial, Parallelism::Sharded(8)] {
            let mut config = PartitionConfig::with_parts(k).with_parallelism(parallelism);
            config.seed = seed ^ 0xF00D;
            let partitioning = partition_kway(&graph, &config);
            // The partitioner's reported cut must agree with the independent
            // quality measurement over the same assignment, in every mode.
            let quality = partition_quality(&graph, &partitioning.parts, partitioning.num_parts);
            prop_assert_eq!(partitioning.edge_cut as usize, quality.edge_cut);
        }
    }
}
