//! Boundary refinement (Kernighan–Lin / Fiduccia–Mattheyses style greedy moves),
//! staged as a scan/apply pair so the expensive part shards across threads.
//!
//! After projecting a partition from a coarse level to a finer level, each pass
//! runs in two sub-phases:
//!
//! 1. **Gain scan** (parallel): every node's connection weights to its
//!    neighbouring parts are computed against the partition *frozen at the start
//!    of the pass*; nodes whose best external part beats their internal
//!    connectivity become move candidates. This sweep touches every adjacency
//!    entry — it is where the pass spends its time — and it is pure, so it deals
//!    over contiguous node shards with no coordination.
//! 2. **Apply** (serial, ascending node id): each candidate's gain is
//!    re-evaluated against the *live* partition and applied only if it still
//!    reduces the cut without violating balance or emptying a part. Re-checking
//!    keeps every applied move a strict cut improvement (so passes terminate),
//!    and the fixed apply order keeps the result bitwise identical for every
//!    shard count.
//!
//! A few passes of this recover most of the cut quality a full FM implementation
//! would, which is all the QGTC experiments need (they depend on partitions being
//! *dense*, not on a state-of-the-art cut).

use crate::coarsen::WeightedGraph;
use crate::shard::map_shards;

/// Compute the weighted edge cut of a partition (each undirected edge counted
/// once) with the node sweep dealt over `shards` ranges; per-shard partial
/// cuts are summed in shard order (u64 addition commutes, so the result is
/// exact and shard-count independent).
pub fn edge_cut(graph: &WeightedGraph, parts: &[usize], shards: usize) -> u64 {
    map_shards(graph.num_nodes(), shards, |range| {
        let mut cut = 0u64;
        for u in range {
            for &(v, w) in graph.neighbors(u) {
                if u < v && parts[u] != parts[v] {
                    cut += w;
                }
            }
        }
        cut
    })
    .into_iter()
    .sum()
}

/// One gain-scan/apply refinement pass with the gain scan dealt over `shards`
/// node ranges. Returns the number of nodes moved. `max_part_weight` is the
/// balance bound each part must stay under after a move. Bitwise identical
/// for every shard count (see the module docs for why).
pub fn refine_pass(
    graph: &WeightedGraph,
    parts: &mut [usize],
    num_parts: usize,
    max_part_weight: u64,
    shards: usize,
) -> usize {
    let n = graph.num_nodes();
    let mut part_weight = vec![0u64; num_parts];
    for u in 0..n {
        part_weight[parts[u]] += graph.node_weight(u);
    }

    // Gain scan against the frozen partition: candidates in ascending node order
    // (each shard emits an ascending slice; shards concatenate in order).
    let frozen: &[usize] = parts;
    let candidates = map_shards(n, shards, |range| {
        let mut conn = Vec::new();
        range
            .filter(|&u| best_move(graph, frozen, u, &mut conn).is_some())
            .collect::<Vec<_>>()
    });

    // Apply in ascending order, re-validating each gain against the live parts.
    let mut moves = 0usize;
    let mut conn = Vec::new();
    for u in candidates.into_iter().flatten() {
        let Some((target, gain)) = best_move(graph, parts, u, &mut conn) else {
            continue;
        };
        debug_assert!(gain > 0);
        let current = parts[u];
        let w_u = graph.node_weight(u);
        let fits = part_weight[target] + w_u <= max_part_weight;
        let not_emptying = part_weight[current] > w_u;
        if fits && not_emptying {
            parts[u] = target;
            part_weight[current] -= w_u;
            part_weight[target] += w_u;
            moves += 1;
        }
    }
    moves
}

/// The best strictly-cut-reducing move for `u` under `parts`: the external part
/// with the largest connection weight, provided it beats `u`'s internal
/// connectivity. Returns `(target_part, gain)`, or `None` when no move helps.
///
/// `conn` is the caller's scratch, reused across calls: a fresh `Vec` per
/// call puts a malloc/free pair on every node each thread scans, and the
/// two threads' recycled small chunks can then share cache lines.
fn best_move(
    graph: &WeightedGraph,
    parts: &[usize],
    u: usize,
    conn: &mut Vec<(usize, u64)>,
) -> Option<(usize, i64)> {
    let current = parts[u];
    // Connection weight from u to each part that u touches.
    conn.clear();
    for &(v, w) in graph.neighbors(u) {
        let p = parts[v];
        match conn.iter_mut().find(|(q, _)| *q == p) {
            Some((_, cw)) => *cw += w,
            None => conn.push((p, w)),
        }
    }
    let internal = conn
        .iter()
        .find(|(p, _)| *p == current)
        .map(|&(_, w)| w)
        .unwrap_or(0);
    let (target, external) = conn
        .iter()
        .filter(|(p, _)| *p != current)
        .max_by_key(|&&(_, w)| w)
        .copied()?;
    let gain = external as i64 - internal as i64;
    (gain > 0).then_some((target, gain))
}

/// Run refinement passes, gain scans dealt over `shards` node ranges, until
/// no node moves or `max_passes` is reached. Returns the final edge cut.
/// Bitwise identical for every shard count.
pub fn refine(
    graph: &WeightedGraph,
    parts: &mut [usize],
    num_parts: usize,
    balance_factor: f64,
    max_passes: usize,
    shards: usize,
) -> u64 {
    let total = graph.total_node_weight();
    let max_part_weight = ((total as f64 / num_parts.max(1) as f64) * balance_factor).ceil() as u64;
    for _ in 0..max_passes {
        if refine_pass(graph, parts, num_parts, max_part_weight.max(1), shards) == 0 {
            break;
        }
    }
    edge_cut(graph, parts, shards)
}

/// Project a coarse-level partition onto the finer level it was contracted from.
pub fn project(coarse_parts: &[usize], coarse_of: &[usize]) -> Vec<usize> {
    coarse_of.iter().map(|&c| coarse_parts[c]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarsen::WeightedGraph;

    /// Two dense cliques of 4 nodes joined by a single edge.
    fn two_cliques() -> WeightedGraph {
        let mut edges = Vec::new();
        for a in 0..4usize {
            for b in (a + 1)..4usize {
                edges.push((a, b, 1u64));
                edges.push((a + 4, b + 4, 1));
            }
        }
        edges.push((3, 4, 1));
        WeightedGraph::from_weighted_edges(8, &edges, &[1; 8])
    }

    #[test]
    fn edge_cut_counts_cross_edges_once() {
        let g = two_cliques();
        let perfect = vec![0, 0, 0, 0, 1, 1, 1, 1];
        assert_eq!(edge_cut(&g, &perfect, 1), 1);
        let bad = vec![0, 1, 0, 1, 0, 1, 0, 1];
        assert!(edge_cut(&g, &bad, 1) > 5);
    }

    #[test]
    fn refinement_improves_a_bad_partition() {
        let g = two_cliques();
        // Start from a partition with one node on the wrong side.
        let mut parts = vec![0, 0, 0, 1, 1, 1, 1, 0];
        let before = edge_cut(&g, &parts, 1);
        let after = refine(&g, &mut parts, 2, 1.3, 8, 1);
        assert!(
            after < before,
            "refinement should reduce cut ({before} -> {after})"
        );
        assert_eq!(
            after, 1,
            "two cliques should end with the single bridge cut"
        );
    }

    #[test]
    fn refinement_never_empties_a_part() {
        let g = two_cliques();
        let mut parts = vec![0, 1, 1, 1, 1, 1, 1, 1];
        refine(&g, &mut parts, 2, 4.0, 10, 1);
        assert!(parts.contains(&0), "part 0 must not be emptied");
        assert!(parts.contains(&1));
    }

    #[test]
    fn refinement_respects_balance_bound() {
        let g = two_cliques();
        let mut parts = vec![0, 0, 0, 0, 1, 1, 1, 1];
        // With a tight balance bound, no move should be possible even if it'd improve cut.
        let moved = refine_pass(&g, &mut parts, 2, 4, 1);
        assert_eq!(moved, 0);
        assert_eq!(parts, vec![0, 0, 0, 0, 1, 1, 1, 1]);
    }

    #[test]
    fn sharded_refinement_is_bitwise_identical_to_serial() {
        let g = two_cliques();
        for start in [
            vec![0, 0, 0, 1, 1, 1, 1, 0],
            vec![0, 1, 0, 1, 0, 1, 0, 1],
            vec![1, 1, 0, 0, 0, 1, 1, 0],
        ] {
            let mut serial = start.clone();
            let serial_cut = refine(&g, &mut serial, 2, 1.3, 8, 1);
            for shards in [2usize, 3, 8] {
                let mut sharded = start.clone();
                let cut = refine(&g, &mut sharded, 2, 1.3, 8, shards);
                assert_eq!(serial, sharded, "{shards} shards from {start:?}");
                assert_eq!(serial_cut, cut);
            }
        }
    }

    #[test]
    fn sharded_edge_cut_matches_serial() {
        let g = two_cliques();
        let parts = vec![0, 1, 0, 1, 0, 1, 0, 1];
        let serial = edge_cut(&g, &parts, 1);
        for shards in [2usize, 4, 16] {
            assert_eq!(serial, edge_cut(&g, &parts, shards));
        }
    }

    #[test]
    fn every_applied_move_strictly_reduces_the_cut() {
        // The apply phase re-validates gains live, so a pass can never increase
        // the cut — even from a pathological start where frozen gains collide.
        let g = two_cliques();
        let mut parts = vec![0, 1, 0, 1, 0, 1, 0, 1];
        let mut previous = edge_cut(&g, &parts, 1);
        loop {
            let moved = refine_pass(&g, &mut parts, 2, 6, 1);
            let cut = edge_cut(&g, &parts, 1);
            assert!(cut <= previous, "pass increased cut {previous} -> {cut}");
            if moved == 0 {
                break;
            }
            assert!(cut < previous, "a pass with moves must reduce the cut");
            previous = cut;
        }
    }

    #[test]
    fn project_maps_through_coarse_ids() {
        let coarse_parts = vec![1, 0];
        let coarse_of = vec![0, 0, 1, 1, 0];
        assert_eq!(project(&coarse_parts, &coarse_of), vec![1, 1, 0, 0, 1]);
    }
}
