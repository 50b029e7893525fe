//! Heavy-edge matching for the coarsening phase — round-based handshaking.
//!
//! A matching pairs up adjacent nodes so each node appears in at most one pair.
//! The classic METIS heuristic visits nodes in random order and greedily matches
//! each with its heaviest unmatched neighbour; that sequential sweep is inherently
//! order-dependent, so this module uses the standard *parallel* formulation
//! instead (the one mt-Metis style partitioners shard across threads): repeated
//! **handshake rounds**. Each round, every unmatched node independently picks its
//! preferred unmatched neighbour — heaviest edge first, ties broken by a seeded
//! per-node rank and then by smaller id — and exactly the mutual pairs (u picks v
//! *and* v picks u) are committed. Rounds repeat until one commits nothing.
//!
//! Two properties make this the right shape for the sharded partitioner:
//!
//! * **Determinism.** A node's pick depends only on the frozen matched state of
//!   the previous round, never on a visiting order, so any shard decomposition of
//!   the pick phase produces the same picks — the sharded matching is bitwise
//!   identical to the serial one.
//! * **Progress and maximality.** The preference key `(weight, rank, smaller id)`
//!   is antisymmetric enough that the pick pointers can form no cycle longer than
//!   two, so while any edge joins two unmatched nodes, some mutual pair exists
//!   and the round commits at least one pair; when a round commits nothing, no
//!   such edge remains and the matching is maximal.

use crate::coarsen::WeightedGraph;
use crate::shard::map_shards;
use qgtc_tensor::rng::SplitMix64;

/// A matching: `mate[u] == v` when u and v are matched, `mate[u] == u` when unmatched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matching {
    /// Partner of each node (self for unmatched nodes).
    pub mate: Vec<usize>,
    /// Number of matched pairs.
    pub num_pairs: usize,
}

/// "No pick" marker in the per-round preference array.
const NO_PICK: usize = usize::MAX;

/// Compute a heavy-edge matching with the pick phase of every round dealt over
/// `shards` contiguous node ranges on the worker pool (one shard runs it on
/// the calling thread).
///
/// The result is bitwise identical for every `shards` value (see the module
/// docs). The seed drives only the per-node tie-break ranks.
pub fn heavy_edge_matching(graph: &WeightedGraph, seed: u64, shards: usize) -> Matching {
    let n = graph.num_nodes();
    // Seeded per-node rank: breaks weight ties without a visiting order, so
    // different seeds still explore different matchings on unweighted graphs.
    let rank: Vec<u64> = {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_u64()).collect()
    };

    let mut mate: Vec<usize> = (0..n).collect();
    let mut matched = vec![false; n];
    let mut num_pairs = 0usize;
    // With pseudorandom ranks the rounds converge in O(log n) expected, but an
    // adversarial weight gradient (e.g. a chain of strictly increasing coarse
    // edge weights) can commit only one pair per round. Cap the rounds and let
    // the serial greedy sweep finish whatever remains — the capped rounds and
    // the sweep are both shard-count independent, so determinism is preserved.
    let max_rounds = 2 * (usize::BITS - n.leading_zeros()) as usize + 8;
    for _ in 0..max_rounds {
        // Pick phase (parallel): each unmatched node independently prefers its
        // best unmatched neighbour under the frozen `matched` state.
        let matched_ref = &matched;
        let rank_ref = &rank;
        let picks: Vec<usize> = map_shards(n, shards, |range| {
            range
                .map(|u| {
                    if matched_ref[u] {
                        return NO_PICK;
                    }
                    best_unmatched_neighbor(graph, u, matched_ref, rank_ref)
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();

        // Commit phase (serial, ascending): exactly the mutual pairs.
        let mut round_pairs = 0usize;
        for u in 0..n {
            let v = picks[u];
            if v != NO_PICK && v > u && picks[v] == u {
                mate[u] = v;
                mate[v] = u;
                matched[u] = true;
                matched[v] = true;
                round_pairs += 1;
            }
        }
        if round_pairs == 0 {
            return Matching { mate, num_pairs };
        }
        num_pairs += round_pairs;
    }

    // Round cap hit: finish with one serial greedy sweep (ascending node order,
    // same preference key), restoring maximality in O(n + m) whatever the
    // weight structure.
    for u in 0..n {
        if matched[u] {
            continue;
        }
        let v = best_unmatched_neighbor(graph, u, &matched, &rank);
        if v != NO_PICK {
            mate[u] = v;
            mate[v] = u;
            matched[u] = true;
            matched[v] = true;
            num_pairs += 1;
        }
    }
    Matching { mate, num_pairs }
}

/// The unmatched neighbour of `u` maximising `(edge weight, rank, smaller id)`,
/// or [`NO_PICK`] when every neighbour is matched (or `u` is isolated).
fn best_unmatched_neighbor(
    graph: &WeightedGraph,
    u: usize,
    matched: &[bool],
    rank: &[u64],
) -> usize {
    let mut best: Option<(usize, u64)> = None;
    for &(v, w) in graph.neighbors(u) {
        if v == u || matched[v] {
            continue;
        }
        let better = match best {
            None => true,
            Some((bv, bw)) => {
                w > bw || (w == bw && (rank[v] > rank[bv] || (rank[v] == rank[bv] && v < bv)))
            }
        };
        if better {
            best = Some((v, w));
        }
    }
    best.map_or(NO_PICK, |(v, _)| v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarsen::WeightedGraph;

    fn weighted_path(n: usize) -> WeightedGraph {
        let mut edges = Vec::new();
        for i in 0..n - 1 {
            edges.push((i, i + 1, 1));
        }
        WeightedGraph::from_weighted_edges(n, &edges, &vec![1; n])
    }

    #[test]
    fn matching_is_symmetric_and_disjoint() {
        let g = weighted_path(10);
        let m = heavy_edge_matching(&g, 1, 1);
        for u in 0..10 {
            let v = m.mate[u];
            assert_eq!(m.mate[v], u, "mate relation must be symmetric");
        }
        let pairs = (0..10).filter(|&u| m.mate[u] != u && m.mate[u] > u).count();
        assert_eq!(pairs, m.num_pairs);
    }

    #[test]
    fn matching_is_maximal() {
        // No two adjacent nodes may both remain unmatched: the handshake rounds
        // only stop once no edge joins two unmatched nodes.
        let g = weighted_path(31);
        for seed in 0..4 {
            let m = heavy_edge_matching(&g, seed, 1);
            for u in 0..31 {
                if m.mate[u] != u {
                    continue;
                }
                for &(v, _) in g.neighbors(u) {
                    assert_ne!(
                        m.mate[v], v,
                        "adjacent unmatched pair ({u}, {v}), seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn matching_prefers_heavy_edges() {
        // Single pair: always matched.
        let pair = WeightedGraph::from_weighted_edges(2, &[(0, 1, 7)], &[1, 1]);
        let m = heavy_edge_matching(&pair, 0, 1);
        assert_eq!(m.mate[0], 1);
        assert_eq!(m.num_pairs, 1);

        // Triangle with one heavy edge (0-1, weight 10): both endpoints prefer
        // it over their weight-1 edges, so the first round always commits
        // the heavy edge, whatever the seed.
        let g =
            WeightedGraph::from_weighted_edges(3, &[(0, 1, 10), (1, 2, 1), (0, 2, 1)], &[1, 1, 1]);
        for seed in 0..64 {
            let m = heavy_edge_matching(&g, seed, 1);
            assert_eq!(m.mate[0], 1, "heavy edge must win, seed {seed}");
        }
    }

    #[test]
    fn matching_on_edgeless_graph_matches_nothing() {
        let g = WeightedGraph::from_weighted_edges(5, &[], &[1; 5]);
        let m = heavy_edge_matching(&g, 3, 1);
        assert_eq!(m.num_pairs, 0);
        assert!(m.mate.iter().enumerate().all(|(i, &v)| i == v));
    }

    #[test]
    fn matching_covers_about_half_of_a_path() {
        let g = weighted_path(100);
        let m = heavy_edge_matching(&g, 7, 1);
        assert!(
            m.num_pairs >= 25,
            "path matching too small: {}",
            m.num_pairs
        );
    }

    #[test]
    fn matching_deterministic_per_seed() {
        let g = weighted_path(50);
        assert_eq!(heavy_edge_matching(&g, 9, 1), heavy_edge_matching(&g, 9, 1));
    }

    #[test]
    fn sharded_matching_is_bitwise_identical_to_serial() {
        let g = weighted_path(97);
        for seed in [0u64, 9, 41] {
            let serial = heavy_edge_matching(&g, seed, 1);
            for shards in [2usize, 3, 8, 32] {
                let sharded = heavy_edge_matching(&g, seed, shards);
                assert_eq!(serial, sharded, "seed {seed}, {shards} shards");
            }
        }
    }

    #[test]
    fn weight_gradient_chain_stays_linear_and_maximal() {
        // A path with strictly increasing weights commits only one mutual pair
        // per handshake round (the globally heaviest remaining edge), so the
        // round cap must kick in and the serial sweep must finish the matching
        // — still maximal, still identical across shard counts.
        let n = 2000usize;
        let edges: Vec<(usize, usize, u64)> =
            (0..n - 1).map(|i| (i, i + 1, i as u64 + 1)).collect();
        let g = WeightedGraph::from_weighted_edges(n, &edges, &vec![1; n]);
        let serial = heavy_edge_matching(&g, 3, 1);
        for u in 0..n {
            if serial.mate[u] != u {
                continue;
            }
            for &(v, _) in g.neighbors(u) {
                assert_ne!(serial.mate[v], v, "adjacent unmatched pair ({u}, {v})");
            }
        }
        for shards in [2usize, 8] {
            assert_eq!(
                serial,
                heavy_edge_matching(&g, 3, shards),
                "{shards} shards"
            );
        }
    }
}
