//! # qgtc-partition
//!
//! METIS-substitute multilevel k-way graph partitioner and cluster-GCN batching.
//!
//! QGTC relies on METIS to split each input graph into a user-chosen number of
//! partitions (1,500 in the paper's evaluation) whose intra-partition edge density is
//! much higher than the global density, and then batches those partitions for GNN
//! inference (the cluster-GCN execution model).  METIS itself is a C library and is
//! not available offline, so this crate implements the same *class* of algorithm —
//! multilevel k-way partitioning:
//!
//! 1. **Coarsening** ([`matching`], [`coarsen`]): repeatedly contract a heavy-edge
//!    matching until the graph is small.
//! 2. **Initial partitioning** ([`initial`]): greedy region growing on the coarsest
//!    graph, balanced by a capacity bound.
//! 3. **Uncoarsening + refinement** ([`refine`]): project the partition back up the
//!    hierarchy, applying boundary Kernighan–Lin/Fiduccia–Mattheyses-style moves at
//!    each level to reduce the edge cut while keeping balance.
//!
//! The public driver is [`metis::partition_kway`]; [`batch::PartitionBatcher`]
//! groups partitions into batches the way QGTC's data loader does, and [`quality`]
//! reports edge-cut/density statistics used by the experiment binaries (Figure 8's
//! zero-tile analysis depends on partition quality).
//!
//! Every phase is one function that takes a shard count and deals its work
//! over the rayon worker pool ([`shard`] holds the dealing); the
//! [`metis::Parallelism`] knob picks the count. The sharded partitioner is
//! bitwise identical to the serial one for any shard count — see the
//! [`metis`] module docs for the determinism contract.

pub mod batch;
pub mod coarsen;
pub mod initial;
pub mod matching;
pub mod metis;
pub mod quality;
pub mod refine;
pub mod shard;

pub use batch::{PartitionBatcher, SubgraphBatch};
pub use metis::{
    partition_kway, try_partition_kway, Parallelism, PartitionConfig, PartitionError, Partitioning,
};
pub use quality::{partition_quality, PartitionQuality};
