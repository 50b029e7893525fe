//! Shard dealing and the deterministic parallel map of the sharded
//! partitioner.
//!
//! Every parallel phase of the multilevel partitioner follows the same
//! discipline, mirroring the rayon shim's pool (ascending contiguous runs,
//! results merged in shard order):
//!
//! 1. deal the item space `0..n` into at most `shards` **contiguous ascending
//!    ranges** ([`shard_ranges`]);
//! 2. map a **pure** function over each range on the worker pool
//!    ([`map_shards`]), collecting the per-shard results **in shard order**;
//! 3. reduce the per-shard results serially, lowest shard first.
//!
//! Because each shard's function is pure (it never observes another shard's
//! writes) and the reduction order is fixed, the result is *bitwise identical*
//! for every shard count — including one, which is exactly the serial code
//! path. That identity is the partitioner's determinism contract; the proptest
//! suite (`tests/partition_parallel_props.rs`) and the perfsmoke partition
//! probe both enforce it.

use std::ops::Range;

use rayon::prelude::*;

/// Deal `0..n` into at most `shards` contiguous ascending ranges, the same
/// dealing the rayon shim's pool uses (shard 0 owns the lowest indices).
/// Empty ranges are dropped, so fewer than `shards` ranges come back when
/// `n < shards`.
pub fn shard_ranges(n: usize, shards: usize) -> Vec<Range<usize>> {
    let shards = shards.max(1);
    let per = n.div_ceil(shards).max(1);
    (0..shards)
        .map(|s| (s * per).min(n)..((s + 1) * per).min(n))
        .filter(|r| !r.is_empty())
        .collect()
}

/// Map a pure function over the shard ranges of `0..n`, returning the results
/// in shard order. With one shard (or one item range) the map runs inline on
/// the calling thread — the serial code path — and with more it dispatches on
/// the rayon pool; either way the output is the same `Vec`, in the same
/// order, which is what makes the sharded partitioner deterministic.
pub fn map_shards<T, F>(n: usize, shards: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let ranges = shard_ranges(n, shards);
    if ranges.len() <= 1 {
        return ranges.into_iter().map(f).collect();
    }
    (0..ranges.len())
        .into_par_iter()
        .map(|s| f(ranges[s].clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_are_ascending_contiguous_and_cover() {
        let ranges = shard_ranges(10, 3);
        assert_eq!(ranges, vec![0..4, 4..8, 8..10]);
        let ranges = shard_ranges(2, 8);
        assert_eq!(ranges, vec![0..1, 1..2]);
        assert!(shard_ranges(0, 4).is_empty());
        assert_eq!(shard_ranges(5, 1), vec![0..5]);
    }

    #[test]
    fn map_shards_preserves_shard_order() {
        for shards in [1, 2, 3, 7, 16] {
            let pieces: Vec<Vec<usize>> = map_shards(23, shards, |r| r.collect());
            let flat: Vec<usize> = pieces.into_iter().flatten().collect();
            assert_eq!(flat, (0..23).collect::<Vec<_>>(), "{shards} shards");
        }
    }

    #[test]
    fn map_shards_on_empty_domain_is_empty() {
        let pieces: Vec<usize> = map_shards(0, 4, |r| r.len());
        assert!(pieces.is_empty());
    }
}
