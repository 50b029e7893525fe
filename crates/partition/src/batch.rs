//! Cluster-GCN style batching of partitions.
//!
//! QGTC's data loader groups the METIS partitions into batches of a user-chosen size;
//! each batch is materialised as one dense subgraph and pushed through the GNN.  The
//! batcher here reproduces that behaviour, including the two granularity knobs the
//! paper discusses in §4.1: the number of partitions (workload granularity) and the
//! batch size (processing granularity).

use qgtc_graph::{CsrGraph, DenseSubgraph};

use crate::metis::{PartitionError, Partitioning};

/// A batch of partitions ready for GNN computation.
#[derive(Debug, Clone)]
pub struct SubgraphBatch {
    /// Index of this batch in the epoch.
    pub batch_index: usize,
    /// The partition ids included in this batch.
    pub partition_ids: Vec<usize>,
    /// The node lists of the included partitions (global node ids).
    pub partitions: Vec<Vec<usize>>,
}

impl SubgraphBatch {
    /// Total number of nodes in the batch.
    pub fn num_nodes(&self) -> usize {
        self.partitions.iter().map(Vec::len).sum()
    }

    /// Materialise the batch as a block-diagonal dense subgraph (the QGTC execution
    /// model: inter-partition edges inside a batch are dropped, exactly like
    /// cluster-GCN's block-diagonal approximation).
    pub fn to_dense_block_diagonal(&self, graph: &CsrGraph) -> DenseSubgraph {
        DenseSubgraph::batch_block_diagonal(graph, &self.partitions)
    }
}

/// Groups partitions into fixed-size batches.
///
/// The batcher doubles as an **indexable batch plan**: [`PartitionBatcher::batch`]
/// materialises the batch at any epoch position independently of every other batch,
/// so a caller can build any batch (a repair, a serving cache miss) without
/// sharing an iterator. [`PartitionBatcher::batches`] is defined
/// in terms of `batch`, which guarantees the two views agree batch-for-batch.
#[derive(Debug, Clone)]
pub struct PartitionBatcher {
    partitions: Vec<Vec<usize>>,
    batch_size: usize,
}

impl PartitionBatcher {
    /// Create a batcher over the partitions of `partitioning`, `batch_size` partitions
    /// per batch. Empty partitions are dropped (METIS can produce them for very large
    /// part counts; so can our substitute).
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`: a zero-partition batch has no meaning in the
    /// cluster-GCN execution model, and silently clamping it would hide a
    /// configuration bug upstream (`QgtcConfig::with_partitions` clamps to 1 for
    /// callers that want the lenient behaviour). [`PartitionBatcher::try_new`] is the
    /// fallible equivalent.
    pub fn new(partitioning: &Partitioning, batch_size: usize) -> Self {
        Self::try_new(partitioning, batch_size).unwrap_or_else(|err| panic!("{err}"))
    }

    /// Fallible form of [`PartitionBatcher::new`]: `batch_size == 0` becomes a typed
    /// [`PartitionError`] instead of a panic.
    pub fn try_new(partitioning: &Partitioning, batch_size: usize) -> Result<Self, PartitionError> {
        Self::try_from_partitions(partitioning.part_nodes(), batch_size)
    }

    /// Create a batcher from explicit partition node lists.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0` (see [`PartitionBatcher::new`]).
    pub fn from_partitions(partitions: Vec<Vec<usize>>, batch_size: usize) -> Self {
        Self::try_from_partitions(partitions, batch_size).unwrap_or_else(|err| panic!("{err}"))
    }

    /// Fallible form of [`PartitionBatcher::from_partitions`].
    pub fn try_from_partitions(
        partitions: Vec<Vec<usize>>,
        batch_size: usize,
    ) -> Result<Self, PartitionError> {
        if batch_size == 0 {
            return Err(PartitionError::ZeroBatchSize);
        }
        Ok(Self {
            partitions: partitions.into_iter().filter(|p| !p.is_empty()).collect(),
            batch_size,
        })
    }

    /// Number of non-empty partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Partitions per batch (the processing-granularity knob).
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Number of batches produced per epoch.
    pub fn num_batches(&self) -> usize {
        self.partitions.len().div_ceil(self.batch_size)
    }

    /// Materialise the batch at epoch position `batch_index`, or `None` past the end.
    ///
    /// This is the random-access entry of the batch plan: it depends only on
    /// `batch_index`, so any shard can build any batch without coordinating with the
    /// others, and calling it for `0..num_batches()` reproduces [`Self::batches`]
    /// exactly.
    pub fn batch(&self, batch_index: usize) -> Option<SubgraphBatch> {
        let start = batch_index.checked_mul(self.batch_size)?;
        if start >= self.partitions.len() {
            return None;
        }
        let end = (start + self.batch_size).min(self.partitions.len());
        Some(SubgraphBatch {
            batch_index,
            partition_ids: (start..end).collect(),
            partitions: self.partitions[start..end].to_vec(),
        })
    }

    /// Iterate over the batches of one epoch in order.
    pub fn batches(&self) -> impl Iterator<Item = SubgraphBatch> + '_ {
        (0..self.num_batches()).map(|batch_index| {
            self.batch(batch_index)
                .expect("batch_index < num_batches always materialises")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metis::{partition_kway, PartitionConfig};
    use qgtc_graph::generate::{stochastic_block_model, SbmParams};
    use qgtc_graph::CsrGraph;

    fn graph_and_partitioning() -> (CsrGraph, Partitioning) {
        let (coo, _) = stochastic_block_model(
            SbmParams {
                num_nodes: 300,
                num_blocks: 6,
                intra_degree: 6.0,
                inter_degree: 0.5,
            },
            1,
        );
        let g = CsrGraph::from_coo(&coo);
        let p = partition_kway(&g, &PartitionConfig::with_parts(6));
        (g, p)
    }

    #[test]
    fn batches_cover_all_partitions_once() {
        let (_, p) = graph_and_partitioning();
        let batcher = PartitionBatcher::new(&p, 2);
        assert_eq!(batcher.num_partitions(), 6);
        assert_eq!(batcher.num_batches(), 3);
        let mut seen_nodes = 0usize;
        for batch in batcher.batches() {
            assert!(batch.partitions.len() <= 2);
            seen_nodes += batch.num_nodes();
        }
        assert_eq!(seen_nodes, 300);
    }

    #[test]
    fn uneven_final_batch() {
        let (_, p) = graph_and_partitioning();
        let batcher = PartitionBatcher::new(&p, 4);
        assert_eq!(batcher.num_batches(), 2);
        let batches: Vec<_> = batcher.batches().collect();
        assert_eq!(batches[0].partitions.len(), 4);
        assert_eq!(batches[1].partitions.len(), 2);
        assert_eq!(batches[1].batch_index, 1);
    }

    #[test]
    fn remainder_batch_covers_every_partition_and_node() {
        // num_partitions (6) not divisible by batch_size (4): the remainder batch
        // must carry the leftover partitions, every partition id must appear exactly
        // once across the epoch, and the node counts must add up to the graph.
        let (_, p) = graph_and_partitioning();
        let batcher = PartitionBatcher::new(&p, 4);
        assert_eq!(batcher.num_partitions() % batcher.batch_size(), 2);
        let batches: Vec<_> = batcher.batches().collect();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[1].partitions.len(), 2, "remainder batch size");

        let mut seen_partition_ids = Vec::new();
        let mut total_nodes = 0usize;
        for batch in &batches {
            assert_eq!(
                batch.partition_ids.len(),
                batch.partitions.len(),
                "one id per included partition"
            );
            total_nodes += batch.num_nodes();
            seen_partition_ids.extend_from_slice(&batch.partition_ids);
        }
        seen_partition_ids.sort_unstable();
        assert_eq!(
            seen_partition_ids,
            (0..batcher.num_partitions()).collect::<Vec<_>>(),
            "every partition id appears exactly once"
        );
        assert_eq!(total_nodes, 300, "every node appears in exactly one batch");
    }

    #[test]
    fn indexable_plan_matches_iterator_batch_for_batch() {
        let (_, p) = graph_and_partitioning();
        for batch_size in [1, 2, 4, 5, 6, 7] {
            let batcher = PartitionBatcher::new(&p, batch_size);
            let iterated: Vec<_> = batcher.batches().collect();
            assert_eq!(iterated.len(), batcher.num_batches());
            for (index, expected) in iterated.iter().enumerate() {
                let indexed = batcher.batch(index).expect("in range");
                assert_eq!(indexed.batch_index, expected.batch_index);
                assert_eq!(indexed.partition_ids, expected.partition_ids);
                assert_eq!(indexed.partitions, expected.partitions);
            }
            assert!(batcher.batch(batcher.num_batches()).is_none());
            assert!(batcher.batch(usize::MAX).is_none());
        }
    }

    #[test]
    fn from_partitions_drops_empty() {
        let batcher = PartitionBatcher::from_partitions(vec![vec![0, 1], vec![], vec![2]], 1);
        assert_eq!(batcher.num_partitions(), 2);
    }

    #[test]
    #[should_panic(expected = "batch_size must be at least 1")]
    fn zero_batch_size_rejected() {
        let (_, p) = graph_and_partitioning();
        let _ = PartitionBatcher::new(&p, 0);
    }

    #[test]
    fn try_constructors_return_typed_error_on_zero_batch_size() {
        let (_, p) = graph_and_partitioning();
        assert_eq!(
            PartitionBatcher::try_new(&p, 0).err(),
            Some(crate::metis::PartitionError::ZeroBatchSize)
        );
        assert_eq!(
            PartitionBatcher::try_from_partitions(vec![vec![0]], 0).err(),
            Some(crate::metis::PartitionError::ZeroBatchSize)
        );
        let batcher = PartitionBatcher::try_new(&p, 2).expect("valid batch size");
        assert_eq!(batcher.num_batches(), 3);
    }
}
