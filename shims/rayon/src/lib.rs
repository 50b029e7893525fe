//! Offline stand-in for [rayon](https://crates.io/crates/rayon).
//!
//! The build environment has no registry access, so this crate implements the
//! exact subset of rayon's API the workspace uses — `par_chunks_mut` followed by
//! `enumerate().for_each(..)`, and `into_par_iter` on ranges with
//! `map`/`for_each`/`collect` — with real data parallelism on a **persistent
//! work-stealing worker pool** (the private `pool` module).  The first parallel call spawns
//! one worker per available core (`RAYON_NUM_THREADS` overrides the count, as
//! with the real crate); every later call is a single dispatch onto the already
//! running workers instead of a fresh `std::thread::scope`, so hot paths that
//! issue many parallel calls (the bit-plane GEMMs) pay the thread start-up cost
//! exactly once per process.
//!
//! Items are dealt to the workers in contiguous **ascending** runs — worker 0
//! owns the lowest-index chunks, matching rayon's recursive slice splitting —
//! and idle workers steal remaining items from the other runs' cursors, so an
//! uneven job cannot strand the pool.
//!
//! A parallel call made from inside a pool task runs all its items inline on
//! that task's thread, in order; the real crate would let idle workers steal
//! them.  The pool has a single job slot, so this keeps an outer job (the
//! epoch's batches) from being displaced by the calls nested in its tasks
//! (each batch's GEMMs).
//!
//! Swap this shim for the real crate by deleting the `rayon` entry in the
//! workspace `[workspace.dependencies]` table and adding a registry version.

use std::sync::Mutex;

mod pool;

/// Number of pool participants (spawned workers + the calling thread), mirroring
/// `rayon::current_num_threads`: `RAYON_NUM_THREADS` when set, else one per
/// available core.
pub fn current_num_threads() -> usize {
    pool::default_thread_count()
}

/// An enumerated chunk queued for the pool; each cell is taken exactly once
/// because the pool hands out every index exactly once.
type QueuedChunk<'a, T> = Mutex<Option<(usize, &'a mut [T])>>;

/// Parallel iterator over mutable, non-overlapping chunks of a slice, produced
/// by [`prelude::ParallelSliceMut::par_chunks_mut`].
pub struct ParChunksMut<'a, T> {
    chunks: Vec<&'a mut [T]>,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Pair each chunk with its index, mirroring `rayon`'s
    /// `IndexedParallelIterator::enumerate`.
    pub fn enumerate(self) -> EnumerateParChunksMut<'a, T> {
        EnumerateParChunksMut {
            chunks: self.chunks,
        }
    }

    /// Apply `op` to every chunk, distributing the chunks across the pool.
    pub fn for_each<F>(self, op: F)
    where
        F: Fn(&mut [T]) + Sync,
    {
        self.enumerate().for_each(|(_, chunk)| op(chunk));
    }
}

/// Enumerated variant of [`ParChunksMut`]; see its `enumerate` method.
pub struct EnumerateParChunksMut<'a, T> {
    chunks: Vec<&'a mut [T]>,
}

impl<'a, T: Send> EnumerateParChunksMut<'a, T> {
    /// Apply `op` to every `(index, chunk)` pair across the worker pool.
    ///
    /// Chunks are dealt in ascending contiguous runs (worker 0 gets the
    /// lowest-index chunks), which preserves rayon's property that neighbouring
    /// output rows land on the same thread.
    pub fn for_each<F>(self, op: F)
    where
        F: Fn((usize, &'a mut [T])) + Sync,
    {
        // Each index is handed out exactly once by the pool, so every cell is
        // taken at most once; the per-item mutex is uncontended by construction.
        let items: Vec<QueuedChunk<'a, T>> = self
            .chunks
            .into_iter()
            .enumerate()
            .map(|pair| Mutex::new(Some(pair)))
            .collect();
        pool::global().dispatch(items.len(), &|index| {
            let item = items[index]
                .lock()
                .unwrap()
                .take()
                .expect("pool dealt an index twice");
            op(item);
        });
    }
}

pub mod iter {
    //! Parallel iterator entry points (`into_par_iter` on ranges).

    use crate::pool;
    use std::ops::Range;
    use std::sync::Mutex;

    /// Subset of `rayon::iter::IntoParallelIterator`.
    pub trait IntoParallelIterator {
        /// The parallel iterator produced.
        type Iter;

        /// Convert into a parallel iterator.
        fn into_par_iter(self) -> Self::Iter;
    }

    impl IntoParallelIterator for Range<usize> {
        type Iter = ParRange;

        fn into_par_iter(self) -> ParRange {
            ParRange { range: self }
        }
    }

    /// Parallel iterator over an index range.
    pub struct ParRange {
        range: Range<usize>,
    }

    impl ParRange {
        /// Map each index through `map`, preserving order on collect.
        pub fn map<U, F>(self, map: F) -> ParRangeMap<F>
        where
            F: Fn(usize) -> U + Sync,
            U: Send,
        {
            ParRangeMap {
                range: self.range,
                map,
            }
        }

        /// Apply `op` to every index across the worker pool.
        pub fn for_each<F>(self, op: F)
        where
            F: Fn(usize) + Sync,
        {
            let start = self.range.start;
            pool::global().dispatch(self.range.len(), &|offset| op(start + offset));
        }
    }

    /// Mapped parallel range returned by [`ParRange::map`].
    pub struct ParRangeMap<F> {
        range: Range<usize>,
        map: F,
    }

    impl<F> ParRangeMap<F> {
        /// Collect mapped values in index order, as rayon's indexed collect does.
        pub fn collect<C, U>(self) -> C
        where
            F: Fn(usize) -> U + Sync,
            U: Send,
            C: FromIterator<U>,
        {
            let len = self.range.len();
            let start = self.range.start;
            let slots: Vec<Mutex<Option<U>>> = (0..len).map(|_| Mutex::new(None)).collect();
            let map = &self.map;
            pool::global().dispatch(len, &|offset| {
                let value = map(start + offset);
                *slots[offset].lock().unwrap() = Some(value);
            });
            slots
                .into_iter()
                .map(|slot| {
                    slot.into_inner()
                        .unwrap()
                        .expect("pool skipped a mapped index")
                })
                .collect()
        }
    }
}

pub mod slice {
    //! Parallel extensions for slices (`par_chunks_mut`).

    use super::ParChunksMut;

    /// Subset of `rayon::slice::ParallelSliceMut`: parallel mutable chunking.
    pub trait ParallelSliceMut<T: Send> {
        /// Split the slice into non-overlapping chunks of `chunk_size`
        /// elements (the last chunk may be shorter) for parallel mutation.
        fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
    }

    impl<T: Send> ParallelSliceMut<T> for [T] {
        fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
            assert!(chunk_size != 0, "chunk_size must be non-zero");
            ParChunksMut {
                chunks: self.chunks_mut(chunk_size).collect(),
            }
        }
    }
}

pub mod prelude {
    //! Glob-import surface, mirroring `rayon::prelude`.
    pub use crate::iter::IntoParallelIterator;
    pub use crate::slice::ParallelSliceMut;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn chunks_visit_every_element_once() {
        let mut data = vec![0u32; 1037];
        data.par_chunks_mut(64)
            .enumerate()
            .for_each(|(idx, chunk)| {
                for (offset, slot) in chunk.iter_mut().enumerate() {
                    *slot = (idx * 64 + offset) as u32;
                }
            });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i as u32);
        }
    }

    #[test]
    fn empty_slice_is_fine() {
        let mut data: Vec<u8> = Vec::new();
        data.par_chunks_mut(8)
            .for_each(|_| panic!("no chunks expected"));
    }

    #[test]
    fn range_map_collect_preserves_order() {
        let squares: Vec<usize> = (0..257usize).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares.len(), 257);
        for (i, &v) in squares.iter().enumerate() {
            assert_eq!(v, i * i);
        }
    }

    #[test]
    fn range_for_each_visits_every_index() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        (0..hits.len()).into_par_iter().for_each(|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    #[should_panic(expected = "row-offset length")]
    fn chunk_task_panics_reach_the_caller_with_their_message() {
        let mut data = vec![0u32; 1024];
        data.par_chunks_mut(8)
            .enumerate()
            .for_each(|(idx, _)| assert!(idx != 70, "row-offset length"));
    }

    #[test]
    fn repeated_calls_reuse_the_global_pool() {
        // Regression guard for the per-call `thread::scope` the seed shim used:
        // a thousand tiny dispatches should complete quickly and correctly.
        let mut data = vec![0u64; 128];
        for round in 1..=100u64 {
            data.par_chunks_mut(8).for_each(|chunk| {
                for slot in chunk.iter_mut() {
                    *slot += round;
                }
            });
        }
        let expected: u64 = (1..=100u64).sum();
        assert!(data.iter().all(|&v| v == expected));
    }
}
