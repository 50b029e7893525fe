//! Exclusive-pool arena for packed buffers (the serving layer's allocation seam).
//!
//! Sustained inference re-prepares batches over and over, and every prepare used
//! to allocate fresh `Vec`s: packed bit-plane words (adjacency and features),
//! feature staging, node-id lists.  Modeled on kubecl's exclusive
//! memory pool, [`PackedBufferPool`] keeps one free list per buffer kind and
//! hands buffers back and forth with their capacity intact:
//!
//! * **take** pops a spare (a *reuse*) or falls back to an empty `Vec` (a
//!   *fresh allocation*, counted);
//! * the `*_in` constructors ([`StackedBitMatrix::from_codes_in`],
//!   [`qgtc_graph::DenseSubgraph::batch_block_diagonal_in`], …) clear and
//!   zero-fill whatever they receive, so recycled storage is bitwise
//!   indistinguishable from fresh storage;
//! * **put** / [`PackedBufferPool::recycle_stack`] return the buffers when a
//!   batch is torn down (e.g. evicted from the serving payload cache).
//!
//! Buffer capacities saturate after one full sweep over the partition plan, so
//! in steady state [`PoolStats::fresh_allocations`] stays flat — the property
//! the serving benchmark gates on.

use qgtc_bitmat::StackedBitMatrix;

/// Allocation counters of a [`PackedBufferPool`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers the pool had to create because its free list was dry.
    pub fresh_allocations: u64,
    /// Buffers served from a free list.
    pub reuses: u64,
}

/// Free lists of recycled buffers, one per buffer kind the prepare path needs.
#[derive(Debug, Default)]
pub struct PackedBufferPool {
    spare_words: Vec<Vec<u32>>,
    spare_floats: Vec<Vec<f32>>,
    spare_indices: Vec<Vec<usize>>,
    stats: PoolStats,
}

impl PackedBufferPool {
    /// An empty pool; every first take is a fresh allocation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocation counters so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Spare buffers currently parked in the pool, summed across kinds.
    pub fn spare_buffers(&self) -> usize {
        self.spare_words.len() + self.spare_floats.len() + self.spare_indices.len()
    }

    fn count(&mut self, reused: bool) {
        if reused {
            self.stats.reuses += 1;
        } else {
            self.stats.fresh_allocations += 1;
        }
    }

    /// Account for `planes` packed-word buffers about to be drawn by a `*_in`
    /// stack constructor, and expose the free list to pass as its `spares`
    /// argument.  The constructor pops one buffer per plane and allocates
    /// fresh for any shortfall — exactly the shortfall counted here.
    pub fn reserve_words(&mut self, planes: usize) -> &mut Vec<Vec<u32>> {
        let reused = self.spare_words.len().min(planes);
        self.stats.reuses += reused as u64;
        self.stats.fresh_allocations += (planes - reused) as u64;
        &mut self.spare_words
    }

    /// Take one packed-word buffer (e.g. the storage of an adjacency plane
    /// written straight from CSR).
    pub fn take_words(&mut self) -> Vec<u32> {
        let spare = self.spare_words.pop();
        self.count(spare.is_some());
        spare.unwrap_or_default()
    }

    /// Return every plane of a packed stack to the word free list.
    pub fn recycle_stack(&mut self, stack: StackedBitMatrix) {
        stack.recycle(&mut self.spare_words);
    }

    /// Take a dense `f32` staging buffer (gathered features, response rows).
    pub fn take_floats(&mut self) -> Vec<f32> {
        let spare = self.spare_floats.pop();
        self.count(spare.is_some());
        spare.unwrap_or_default()
    }

    /// Return an `f32` staging buffer for reuse.
    pub fn put_floats(&mut self, buffer: Vec<f32>) {
        self.spare_floats.push(buffer);
    }

    /// Take a node-id staging buffer.
    pub fn take_indices(&mut self) -> Vec<usize> {
        let spare = self.spare_indices.pop();
        self.count(spare.is_some());
        spare.unwrap_or_default()
    }

    /// Return a node-id buffer for reuse.
    pub fn put_indices(&mut self, buffer: Vec<usize>) {
        self.spare_indices.push(buffer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgtc_bitmat::BitMatrixLayout;
    use qgtc_tensor::Matrix;

    fn codes(rows: usize, cols: usize, bits: u32) -> Matrix<u32> {
        let max = (1u32 << bits) - 1;
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = ((r * 31 + c * 7) as u32) % (max + 1);
            }
        }
        m
    }

    #[test]
    fn first_take_is_fresh_then_reused() {
        let mut pool = PackedBufferPool::new();
        let buf = pool.take_floats();
        assert_eq!(
            pool.stats(),
            PoolStats {
                fresh_allocations: 1,
                reuses: 0
            }
        );
        pool.put_floats(buf);
        let _ = pool.take_floats();
        assert_eq!(
            pool.stats(),
            PoolStats {
                fresh_allocations: 1,
                reuses: 1
            }
        );
    }

    #[test]
    fn stack_round_trip_through_pool_reuses_every_plane() {
        let mut pool = PackedBufferPool::new();
        let c = codes(9, 40, 3);
        let first = StackedBitMatrix::from_codes_in(
            &c,
            3,
            BitMatrixLayout::RowPacked,
            pool.reserve_words(3),
        );
        assert_eq!(pool.stats().fresh_allocations, 3);
        pool.recycle_stack(first.clone());
        assert_eq!(pool.spare_buffers(), 3);
        let second = StackedBitMatrix::from_codes_in(
            &c,
            3,
            BitMatrixLayout::RowPacked,
            pool.reserve_words(3),
        );
        assert_eq!(second, first);
        assert_eq!(
            pool.stats().fresh_allocations,
            3,
            "steady state: no fresh allocs"
        );
        assert_eq!(pool.stats().reuses, 3);
        assert_eq!(pool.spare_buffers(), 0);
    }

    #[test]
    fn capacity_is_retained_across_round_trips() {
        let mut pool = PackedBufferPool::new();
        let mut buf = pool.take_floats();
        buf.resize(4096, 1.5);
        let ptr = buf.as_ptr();
        pool.put_floats(buf);
        let again = pool.take_floats();
        assert!(again.capacity() >= 4096);
        assert_eq!(again.as_ptr(), ptr, "the very same buffer comes back");
    }

    #[test]
    fn index_and_float_lists_are_independent() {
        let mut pool = PackedBufferPool::new();
        pool.put_indices(vec![1, 2, 3]);
        let _ = pool.take_floats();
        assert_eq!(
            pool.stats().fresh_allocations,
            1,
            "a spare index buffer cannot serve a float take"
        );
        assert_eq!(pool.take_indices(), vec![1, 2, 3]);
    }
}
