//! Initial k-way partitioning of the coarsest graph.
//!
//! After coarsening stops, the coarse graph has at most about `8 * k` nodes.  We
//! grow `k` regions greedily (BFS-style region growing seeded round-robin from
//! unassigned nodes), bounded by a per-part weight capacity so that the parts stay
//! balanced.  Leftover nodes (disconnected islands) are assigned to the lightest part.
//!
//! Region growing is cheap but seed-sensitive, so the driver runs a **panel of
//! independent candidates** ([`best_greedy_kway`]): each candidate grows and
//! refines its own partition from a derived seed, the candidates run
//! concurrently on the worker pool (they share nothing), and the one with the
//! smallest refined edge cut wins — ties broken by candidate index, so the
//! selection is deterministic for every shard count. This is the same
//! "multiple initial partitions, keep the best" move METIS itself makes, and it
//! is the phase the paper's 1,500-part evaluations spend the least time in, so
//! the panel buys cut quality essentially for free once sharded.

use crate::coarsen::WeightedGraph;
use crate::refine::refine;
use crate::shard::map_shards;
use qgtc_tensor::rng::SplitMix64;
use std::collections::VecDeque;

/// Greedy region-growing k-way partition of a weighted graph.
///
/// Returns the part id of every node, all in `[0, k)`.  `balance_factor` (≥ 1.0)
/// controls the per-part capacity: `capacity = ceil(total_weight / k * balance_factor)`.
pub fn greedy_kway(graph: &WeightedGraph, k: usize, balance_factor: f64, seed: u64) -> Vec<usize> {
    let n = graph.num_nodes();
    assert!(k >= 1, "k must be at least 1");
    if k == 1 || n == 0 {
        return vec![0; n];
    }
    let k = k.min(n);
    let total_weight = graph.total_node_weight();
    let capacity = ((total_weight as f64 / k as f64) * balance_factor).ceil() as u64;

    let mut part = vec![usize::MAX; n];
    let mut part_weight = vec![0u64; k];
    let mut rng = SplitMix64::new(seed);

    // Seed order: random permutation so repeated runs with different seeds differ.
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.next_bounded(i as u64 + 1) as usize;
        order.swap(i, j);
    }

    let mut next_seed_idx = 0usize;
    let mut queue = VecDeque::new();
    for (p, weight) in part_weight.iter_mut().enumerate() {
        // Find an unassigned seed node.
        while next_seed_idx < n && part[order[next_seed_idx]] != usize::MAX {
            next_seed_idx += 1;
        }
        if next_seed_idx >= n {
            break;
        }
        let seed_node = order[next_seed_idx];
        // BFS region growing until this part reaches capacity.
        queue.clear();
        queue.push_back(seed_node);
        while let Some(u) = queue.pop_front() {
            if part[u] != usize::MAX {
                continue;
            }
            let w = graph.node_weight(u);
            if *weight + w > capacity && *weight > 0 {
                continue;
            }
            part[u] = p;
            *weight += w;
            if *weight >= capacity {
                break;
            }
            for &(v, _) in graph.neighbors(u) {
                if part[v] == usize::MAX {
                    queue.push_back(v);
                }
            }
        }
    }

    // Assign any remaining nodes to the lightest part.
    for (u, assigned) in part.iter_mut().enumerate() {
        if *assigned == usize::MAX {
            let lightest = (0..k).min_by_key(|&p| part_weight[p]).unwrap_or(0);
            *assigned = lightest;
            part_weight[lightest] += graph.node_weight(u);
        }
    }
    part
}

/// Grow and refine `candidates` independent initial partitions, dealt over
/// `shards` candidate ranges on the worker pool, and return the one with the
/// smallest refined edge cut (ties broken by candidate index, so the winner
/// is deterministic for every shard count).
///
/// Candidate `i` derives its seed from `base_seed` and `i`; candidate 0 uses
/// `base_seed` itself. Each candidate is grown with [`greedy_kway`] and polished
/// with [`refine`] (`refine_passes` passes) before its cut is measured.
pub fn best_greedy_kway(
    graph: &WeightedGraph,
    k: usize,
    balance_factor: f64,
    base_seed: u64,
    candidates: usize,
    refine_passes: usize,
    shards: usize,
) -> Vec<usize> {
    // One candidate run: its refined edge cut and its assignment.
    type CandidateRun = (u64, Vec<usize>);
    map_shards(candidates.max(1), shards, |range| {
        range
            .map(|i| {
                let seed = base_seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let mut parts = greedy_kway(graph, k, balance_factor, seed);
                let cut = refine(graph, &mut parts, k, balance_factor, refine_passes, 1);
                (cut, parts)
            })
            .collect::<Vec<CandidateRun>>()
    })
    .into_iter()
    .flatten()
    .enumerate()
    .min_by_key(|(i, (cut, _))| (*cut, *i))
    .map(|(_, (_, parts))| parts)
    .expect("candidates >= 1 always yields a run")
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgtc_graph::{generate::ring_lattice, CsrGraph};

    fn ring(n: usize) -> WeightedGraph {
        WeightedGraph::from_csr(&CsrGraph::from_coo(&ring_lattice(n, 2)))
    }

    #[test]
    fn every_node_assigned_to_valid_part() {
        let g = ring(64);
        let parts = greedy_kway(&g, 4, 1.1, 1);
        assert_eq!(parts.len(), 64);
        assert!(parts.iter().all(|&p| p < 4));
        for p in 0..4 {
            assert!(parts.contains(&p), "part {p} empty");
        }
    }

    #[test]
    fn k_equals_one_puts_everything_in_part_zero() {
        let g = ring(10);
        assert_eq!(greedy_kway(&g, 1, 1.0, 0), vec![0; 10]);
    }

    #[test]
    fn parts_are_roughly_balanced() {
        let g = ring(120);
        let parts = greedy_kway(&g, 6, 1.1, 3);
        let mut counts = vec![0usize; 6];
        for &p in &parts {
            counts[p] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max <= 2 * min.max(1) + 22, "imbalanced parts: {counts:?}");
    }

    #[test]
    fn k_larger_than_n_is_clamped() {
        let g = ring(4);
        let parts = greedy_kway(&g, 10, 1.0, 2);
        assert!(parts.iter().all(|&p| p < 4));
    }

    #[test]
    fn empty_graph_ok() {
        let g = WeightedGraph::from_weighted_edges(0, &[], &[]);
        assert!(greedy_kway(&g, 3, 1.0, 0).is_empty());
    }

    #[test]
    fn candidate_panel_is_deterministic_across_shard_counts() {
        let g = ring(96);
        let serial = best_greedy_kway(&g, 4, 1.1, 9, 6, 4, 1);
        for shards in [2usize, 3, 6, 16] {
            let sharded = best_greedy_kway(&g, 4, 1.1, 9, 6, 4, shards);
            assert_eq!(serial, sharded, "{shards} shards");
        }
    }

    #[test]
    fn candidate_panel_never_loses_to_its_first_candidate() {
        let g = ring(80);
        let single = best_greedy_kway(&g, 4, 1.1, 3, 1, 4, 1);
        let panel = best_greedy_kway(&g, 4, 1.1, 3, 8, 4, 1);
        let cut_of = |parts: &[usize]| crate::refine::edge_cut(&g, parts, 1);
        assert!(
            cut_of(&panel) <= cut_of(&single),
            "panel cut {} must not exceed single-candidate cut {}",
            cut_of(&panel),
            cut_of(&single)
        );
    }

    #[test]
    fn respects_node_weights_in_capacity() {
        // One super-heavy node and several light ones: the heavy node should not share
        // a part with everything else when k = 2 and capacity is tight.
        let g = WeightedGraph::from_weighted_edges(
            4,
            &[(0, 1, 1), (1, 2, 1), (2, 3, 1)],
            &[10, 1, 1, 1],
        );
        let parts = greedy_kway(&g, 2, 1.05, 5);
        let heavy_part = parts[0];
        let light_together = (1..4).filter(|&u| parts[u] == heavy_part).count();
        assert!(
            light_together <= 1,
            "heavy node should roughly fill its part alone: {parts:?}"
        );
    }
}
