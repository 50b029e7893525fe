//! Bandwidth-optimised subgraph packing (paper §4.6).
//!
//! Every batch of subgraphs must be staged from host memory to the GPU before its
//! kernels can run.  The paper compares three ways of shipping a batch:
//!
//! 1. dense fp32 adjacency + fp32 features, transferred separately (the naive
//!    framework behaviour);
//! 2. a sparse (COO/CSR) fp32 adjacency + fp32 features, still separate transfers;
//! 3. QGTC's packed transfer: the 1-bit packed adjacency and the `s`-bit packed
//!    features bundled into a single compound object, sent in one PCIe transaction.
//!
//! [`SubgraphPayload`] computes the byte volume of each strategy for a given batch
//! and records the transfer into a [`CostTracker`] so the device model charges the
//! PCIe time (and the per-transfer fixed overhead) accordingly.

use crate::fusion::fold_range;
use crate::pool::PackedBufferPool;
use qgtc_bitmat::condense::CondensedAdjacency;
use qgtc_bitmat::fused::PopcountBody;
use qgtc_bitmat::{BitMatrixLayout, StackedBitMatrix};
use qgtc_graph::DenseSubgraph;
use qgtc_tcsim::cost::CostTracker;
use qgtc_tensor::{Matrix, QuantParams, TensorError};
use std::sync::Arc;

/// Quantize and bit-pack a dense feature matrix exactly as the transfer payload
/// does: per-batch affine calibration at `feature_bits`, quantization
/// parameters remembered on the stack.  The codes are layout-independent, so
/// `layout` only chooses the packing direction — column-packed for a GEMM
/// right operand (the payload's layout), row-packed when the first GEMM wants
/// a left operand (batched GIN's update-first order).
///
/// This is the **single host-side quantize site** of the QGTC forward pass:
/// [`SubgraphPayload::new_pooled`] uses its pooled form to build the
/// transferable payload, and the models' dense-feature entry points use it to
/// pack once before the first layer, so the packed-payload path and the
/// dense-entry path are bitwise identical by construction.  Quantize and pack run as one pass
/// ([`StackedBitMatrix::quantize_pack_in`]); no code matrix is staged.
///
/// Panics if the features hold a NaN or infinite value or span a range wider
/// than `f32`; [`pack_feature_matrix_pooled`] returns that case as an error.
pub fn pack_feature_matrix(
    features: &Matrix<f32>,
    feature_bits: u32,
    layout: BitMatrixLayout,
) -> StackedBitMatrix {
    pack_features_in(features, feature_bits, layout, &mut Vec::new())
        .unwrap_or_else(|err| panic!("cannot calibrate the batch features: {err}"))
}

/// [`pack_feature_matrix`] drawing every plane's word storage from `pool` —
/// bitwise identical output, zero fresh allocations once the pool is warm.
/// Features no quantization range can cover (a NaN or infinite value, or a
/// range wider than `f32`) are [`TensorError::NonFiniteRange`], found by the
/// calibration scan the pack runs anyway.
pub fn pack_feature_matrix_pooled(
    features: &Matrix<f32>,
    feature_bits: u32,
    layout: BitMatrixLayout,
    pool: &mut PackedBufferPool,
) -> Result<StackedBitMatrix, TensorError> {
    pack_features_in(
        features,
        feature_bits,
        layout,
        pool.reserve_words(feature_bits as usize),
    )
}

/// The feature pack behind both entries: calibrate from the features' range,
/// scanned by the epilogue's range fold (compiled for AVX-512 on hosts that
/// run that body; the same range as [`Matrix::min_max`]), then one
/// quantize-pack pass.
fn pack_features_in(
    features: &Matrix<f32>,
    feature_bits: u32,
    layout: BitMatrixLayout,
    spares: &mut Vec<Vec<u32>>,
) -> Result<StackedBitMatrix, TensorError> {
    let (min, max) = fold_range(features.data(), PopcountBody::Avx512.is_available()).bounds();
    let params = QuantParams::from_range(feature_bits, min, max)?;
    Ok(StackedBitMatrix::quantize_pack_in(features, params, layout, spares).0)
}

/// Fixed per-transfer overhead in bytes-equivalent terms: a separate cudaMemcpy has
/// driver/launch latency that we charge as if it were extra payload at PCIe speed
/// (≈ 10 µs ≈ 250 KB at 25 GB/s).
pub const PER_TRANSFER_OVERHEAD_BYTES: u64 = 250 * 1024;

/// How a batch is shipped to the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferStrategy {
    /// Dense fp32 adjacency and fp32 features, two separate transfers.
    DenseFloat,
    /// COO edge list (two `i32` per edge) plus fp32 features, two transfers.
    SparseFloat,
    /// QGTC packed: 1-bit adjacency planes + `s`-bit feature planes in one
    /// compound transfer.
    PackedCompound,
}

/// The transferable representation of one subgraph batch.
#[derive(Debug, Clone)]
pub struct SubgraphPayload {
    /// Number of nodes in the batch.
    pub num_nodes: usize,
    /// Number of directed edges in the batch.
    pub num_edges: usize,
    /// Feature dimension.
    pub feature_dim: usize,
    /// Feature bitwidth used by the packed strategy.
    pub feature_bits: u32,
    /// Packed adjacency (1-bit, row-packed): the subgraph's own plane, which
    /// materialisation already wrote in this layout, shared rather than
    /// copied.
    pub packed_adjacency: Arc<StackedBitMatrix>,
    /// Packed features (`feature_bits`-bit, column-packed).
    pub packed_features: StackedBitMatrix,
    /// The adjacency's sparse-to-dense condensed translation, built once at
    /// prepare time via [`SubgraphPayload::ensure_condensed`] when the
    /// configured adjacency path may consume it.  Purely derived data — fully
    /// determined by `packed_adjacency` — so it is deliberately *excluded*
    /// from [`SubgraphPayload::checksum`] (a payload with and without the
    /// cache is the same payload).
    pub condensed_adjacency: Option<CondensedAdjacency>,
}

impl SubgraphPayload {
    /// Build the payload for a dense subgraph batch and its feature rows.
    ///
    /// Features are quantized to `feature_bits` with per-batch calibration, exactly
    /// as the inference pipeline does before the first layer.  Panics on
    /// features [`SubgraphPayload::new_pooled`] rejects.
    pub fn new(subgraph: &DenseSubgraph, features: &Matrix<f32>, feature_bits: u32) -> Self {
        Self::new_pooled(
            subgraph,
            features,
            feature_bits,
            &mut PackedBufferPool::new(),
        )
        .unwrap_or_else(|err| panic!("cannot calibrate the batch features: {err}"))
    }

    /// [`SubgraphPayload::new`] packing the features into buffers drawn from
    /// `pool` — bitwise identical to the fresh path.  Features the pack cannot
    /// calibrate are an error (see [`pack_feature_matrix_pooled`]).
    pub fn new_pooled(
        subgraph: &DenseSubgraph,
        features: &Matrix<f32>,
        feature_bits: u32,
        pool: &mut PackedBufferPool,
    ) -> Result<Self, TensorError> {
        assert_eq!(
            subgraph.num_nodes(),
            features.rows(),
            "feature rows must match subgraph nodes"
        );
        let packed_adjacency = Arc::clone(&subgraph.adjacency);
        let packed_features =
            pack_feature_matrix_pooled(features, feature_bits, BitMatrixLayout::ColPacked, pool)?;
        Ok(Self {
            num_nodes: subgraph.num_nodes(),
            num_edges: subgraph.num_edges,
            feature_dim: features.cols(),
            feature_bits,
            packed_adjacency,
            packed_features,
            condensed_adjacency: None,
        })
    }

    /// Build (once) and cache the condensed translation of the packed adjacency.
    ///
    /// Idempotent: a second call is a no-op.  The pipeline's prepare stage
    /// (behind both the epoch loop and the serving session) calls this
    /// whenever the resolved adjacency path may dispatch to the condensed
    /// kernel, so the translation is built once per payload, outside the
    /// forward pass, and amortized by the serving payload cache.
    pub fn ensure_condensed(&mut self) {
        if self.condensed_adjacency.is_none() {
            self.condensed_adjacency = Some(CondensedAdjacency::from_stack(&self.packed_adjacency));
        }
    }

    /// Bytes moved over PCIe under a given strategy.
    pub fn transfer_bytes(&self, strategy: TransferStrategy) -> u64 {
        let n = self.num_nodes as u64;
        let d = self.feature_dim as u64;
        match strategy {
            TransferStrategy::DenseFloat => n * n * 4 + n * d * 4,
            TransferStrategy::SparseFloat => self.num_edges as u64 * 8 + (n + 1) * 4 + n * d * 4,
            TransferStrategy::PackedCompound => {
                (self.packed_adjacency.packed_bytes() + self.packed_features.packed_bytes()) as u64
            }
        }
    }

    /// Number of separate host-to-device transfers a strategy issues.
    pub fn transfer_count(&self, strategy: TransferStrategy) -> u64 {
        match strategy {
            TransferStrategy::DenseFloat | TransferStrategy::SparseFloat => 2,
            TransferStrategy::PackedCompound => 1,
        }
    }

    /// Record the host-to-device transfer of this payload into the cost tracker.
    pub fn record_transfer(&self, strategy: TransferStrategy, tracker: &CostTracker) {
        let bytes = self.transfer_bytes(strategy)
            + self.transfer_count(strategy) * PER_TRANSFER_OVERHEAD_BYTES;
        tracker.record_pcie_h2d(bytes);
    }

    /// Compression ratio of the packed transfer versus the dense fp32 transfer.
    pub fn compression_vs_dense(&self) -> f64 {
        let packed = self.transfer_bytes(TransferStrategy::PackedCompound).max(1);
        self.transfer_bytes(TransferStrategy::DenseFloat) as f64 / packed as f64
    }

    /// Checksum over both packed stacks plus the scalar header fields.
    ///
    /// One `u64` covers the whole payload: any bit flip in the packed adjacency or
    /// packed features (or a mismatched header) changes the value. Under an
    /// active fault injector the prepare stage seals this into the
    /// [`PreparedBatch`] and re-derives it before returning the batch, so a
    /// payload damaged after sealing is caught and re-prepared.
    pub fn checksum(&self) -> u64 {
        const FNV_PRIME: u64 = 0x100000001b3;
        let mut hash = 0x9e3779b97f4a7c15_u64;
        for value in [
            self.num_nodes as u64,
            self.num_edges as u64,
            self.feature_dim as u64,
            u64::from(self.feature_bits),
            self.packed_adjacency.checksum(),
            self.packed_features.checksum(),
        ] {
            hash = (hash ^ value).wrapping_mul(FNV_PRIME);
        }
        hash
    }
}

/// One batch fully prepared for the compute stage: the materialised dense subgraph,
/// its gathered feature rows, and (on the QGTC path) the bit-packed transfer payload.
///
/// `PreparedBatch` is the hand-off object between the pipeline's prepare and
/// execute stages: prepare builds it (materialise → gather → pack) with no side
/// effects, and execute later records the transfer and runs the forward pass.
/// Because construction touches no [`CostTracker`] and no global state,
/// rebuilding a batch (the supervisor's repair) or building batches out of
/// order cannot change any recorded counter.
#[derive(Debug, Clone)]
pub struct PreparedBatch {
    /// Epoch position of this batch (the consumption order key).
    pub batch_index: usize,
    /// The materialised (block-diagonal) subgraph with its 1-bit adjacency.
    pub subgraph: DenseSubgraph,
    /// The batch's gathered feature rows, `num_nodes × feature_dim`.
    pub features: Matrix<f32>,
    /// The packed transfer payload; `None` on the dense-baseline path (which ships
    /// raw fp32 tensors) and for empty batches.
    pub payload: Option<SubgraphPayload>,
    /// Checksum sealed over `payload` after prepare, or `None` while unsealed.
    ///
    /// Sealing is explicit ([`PreparedBatch::seal_checksum`]) rather than part of
    /// construction, so a run without a fault injector never pays for it.
    pub payload_checksum: Option<u64>,
}

impl PreparedBatch {
    /// Prepare a batch for the QGTC path: pack the adjacency to 1 bit and the
    /// features to `feature_bits`, exactly as [`SubgraphPayload::new`] does.
    ///
    /// Empty batches get no payload (there is nothing to pack or transfer).
    /// Panics on features [`PreparedBatch::pack_quantized_pooled`] rejects.
    pub fn pack_quantized(
        batch_index: usize,
        subgraph: DenseSubgraph,
        features: Matrix<f32>,
        feature_bits: u32,
    ) -> Self {
        Self::pack_quantized_pooled(
            batch_index,
            subgraph,
            features,
            feature_bits,
            &mut PackedBufferPool::new(),
        )
        .unwrap_or_else(|err| panic!("cannot calibrate the batch features: {err}"))
    }

    /// [`PreparedBatch::pack_quantized`] drawing every buffer from `pool` —
    /// the epoch's and the serving layer's prepare.  Bitwise identical to the
    /// fresh path (recycled storage is zeroed before packing).  Features the
    /// pack cannot calibrate are an error (see [`pack_feature_matrix_pooled`]).
    pub fn pack_quantized_pooled(
        batch_index: usize,
        subgraph: DenseSubgraph,
        features: Matrix<f32>,
        feature_bits: u32,
        pool: &mut PackedBufferPool,
    ) -> Result<Self, TensorError> {
        let payload = if subgraph.num_nodes() == 0 {
            None
        } else {
            Some(SubgraphPayload::new_pooled(
                &subgraph,
                &features,
                feature_bits,
                pool,
            )?)
        };
        Ok(Self {
            batch_index,
            subgraph,
            features,
            payload,
            payload_checksum: None,
        })
    }

    /// Tear the batch down into `pool`, recovering the packed plane words and
    /// the staging buffers for the next prepare.  This is the eviction path
    /// of the serving layer's payload cache and the prepare supervisor's path
    /// for a rejected attempt.
    pub fn recycle_into(self, pool: &mut PackedBufferPool) {
        let payload_adjacency = self.payload.map(|payload| {
            pool.recycle_stack(payload.packed_features);
            payload.packed_adjacency
        });
        // The subgraph and payload share one plane (unless corruption forked
        // it): whichever handle is dropped last hands the words back.  A fork
        // hands back the subgraph's plane alone, so the pool gets back one
        // plane per plane it lent.
        if let Some(stack) = [Some(self.subgraph.adjacency), payload_adjacency]
            .into_iter()
            .flatten()
            .find_map(Arc::into_inner)
        {
            pool.recycle_stack(stack);
        }
        pool.put_floats(self.features.into_data());
        pool.put_indices(self.subgraph.nodes);
    }

    /// Prepare a batch for the dense fp32 baseline path (no packing).
    pub fn dense(batch_index: usize, subgraph: DenseSubgraph, features: Matrix<f32>) -> Self {
        Self {
            batch_index,
            subgraph,
            features,
            payload: None,
            payload_checksum: None,
        }
    }

    /// Seal the current payload under a checksum (a no-op on payload-less batches).
    ///
    /// Under an active fault injector the prepare stage seals every batch it
    /// builds (injected corruption lands after the seal), then
    /// [`PreparedBatch::verify_payload`] re-derives the checksum before the
    /// batch leaves the stage.
    pub fn seal_checksum(&mut self) {
        self.payload_checksum = self.payload.as_ref().map(SubgraphPayload::checksum);
    }

    /// Whether the payload still matches its sealed checksum.
    ///
    /// Returns `true` for unsealed or payload-less batches — there is nothing to
    /// validate against — and `false` exactly when a sealed payload's bits have
    /// changed since [`PreparedBatch::seal_checksum`].
    pub fn verify_payload(&self) -> bool {
        match (&self.payload, self.payload_checksum) {
            (Some(payload), Some(sealed)) => payload.checksum() == sealed,
            _ => true,
        }
    }

    /// Flip payload bits *without* re-sealing — the fault-injection corruption
    /// hook (see `StackedBitMatrix::flip_word_bits`).
    ///
    /// `seed` deterministically picks a stack, plane, word, and mask. Returns
    /// `false` when there is no payload to corrupt (dense-baseline or empty
    /// batches), so the injector can tell whether the fault actually landed.
    pub fn corrupt_payload(&mut self, seed: u64) -> bool {
        let Some(payload) = &mut self.payload else {
            return false;
        };
        // SplitMix64 finalizer: decorrelate the seed bits before carving them up.
        let mut x = seed.wrapping_add(0x9e3779b97f4a7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        x ^= x >> 31;
        let mask = ((x >> 32) as u32) | 1;
        let stack = if x & 1 == 0 && payload.packed_features.packed_bytes() > 0 {
            &mut payload.packed_features
        } else {
            // Copy-on-write: the subgraph's copy of the plane stays intact.
            Arc::make_mut(&mut payload.packed_adjacency)
        };
        let (planes, lanes, words_per_lane) = stack.packed_shape();
        let total_words = lanes * words_per_lane;
        if planes == 0 || total_words == 0 {
            return false;
        }
        let plane_index = ((x >> 8) % u64::from(planes)) as usize;
        let word_index = ((x >> 16) as usize) % total_words;
        stack.flip_word_bits(plane_index, word_index, mask);
        true
    }

    /// Number of nodes in the batch.
    pub fn num_nodes(&self) -> usize {
        self.subgraph.num_nodes()
    }

    /// Record this batch's host-to-device transfer.
    ///
    /// A batch with a payload ships it as QGTC's one packed compound transfer,
    /// charged through [`SubgraphPayload::record_transfer`] under
    /// [`TransferStrategy::PackedCompound`] (bytes plus per-transfer overhead).
    /// A batch without one (the baseline path) ships as dense fp32 adjacency +
    /// features in the framework's single logical allocation, so exactly
    /// `n·n·4 + features.len()·4` bytes are charged — the same accounting the
    /// serial DGL loop has always used.
    pub fn record_transfer(&self, tracker: &CostTracker) {
        match &self.payload {
            Some(payload) => payload.record_transfer(TransferStrategy::PackedCompound, tracker),
            None => {
                let n = self.subgraph.num_nodes() as u64;
                let bytes = n * n * 4 + self.features.len() as u64 * 4;
                tracker.record_pcie_h2d(bytes);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgtc_graph::generate::{stochastic_block_model, SbmParams};
    use qgtc_graph::CsrGraph;
    use qgtc_tensor::rng::random_uniform_matrix;

    fn sample_payload(bits: u32) -> SubgraphPayload {
        let (coo, _) = stochastic_block_model(
            SbmParams {
                num_nodes: 200,
                num_blocks: 2,
                intra_degree: 6.0,
                inter_degree: 0.5,
            },
            1,
        );
        let graph = CsrGraph::from_coo(&coo);
        let nodes: Vec<usize> = (0..120).collect();
        let sub = DenseSubgraph::extract(&graph, &nodes);
        let features = random_uniform_matrix(120, 64, 0.0, 1.0, 2);
        SubgraphPayload::new(&sub, &features, bits)
    }

    #[test]
    fn packed_transfer_is_much_smaller_than_dense() {
        let payload = sample_payload(2);
        let dense = payload.transfer_bytes(TransferStrategy::DenseFloat);
        let packed = payload.transfer_bytes(TransferStrategy::PackedCompound);
        assert!(packed * 8 < dense, "packed {packed} vs dense {dense}");
        assert!(payload.compression_vs_dense() > 8.0);
    }

    #[test]
    fn sparse_transfer_scales_with_edges() {
        let payload = sample_payload(4);
        let sparse = payload.transfer_bytes(TransferStrategy::SparseFloat);
        let dense = payload.transfer_bytes(TransferStrategy::DenseFloat);
        assert!(
            sparse < dense,
            "a sparse batch should beat the dense adjacency"
        );
        let expected =
            payload.num_edges as u64 * 8 + (payload.num_nodes as u64 + 1) * 4 + 120 * 64 * 4;
        assert_eq!(sparse, expected);
    }

    #[test]
    fn packed_bytes_grow_with_feature_bits() {
        let p2 = sample_payload(2);
        let p8 = sample_payload(8);
        assert!(
            p8.transfer_bytes(TransferStrategy::PackedCompound)
                > p2.transfer_bytes(TransferStrategy::PackedCompound)
        );
    }

    #[test]
    fn record_transfer_charges_pcie_and_overhead() {
        let payload = sample_payload(2);
        let tracker = CostTracker::new();
        payload.record_transfer(TransferStrategy::PackedCompound, &tracker);
        let single = tracker.snapshot().pcie_h2d_bytes;
        assert_eq!(
            single,
            payload.transfer_bytes(TransferStrategy::PackedCompound) + PER_TRANSFER_OVERHEAD_BYTES
        );

        let tracker2 = CostTracker::new();
        payload.record_transfer(TransferStrategy::DenseFloat, &tracker2);
        let dense = tracker2.snapshot().pcie_h2d_bytes;
        assert!(dense > single);
    }

    #[test]
    fn prepared_batch_quantized_carries_payload_and_matches_payload_accounting() {
        let payload = sample_payload(2);
        let (coo, _) = stochastic_block_model(
            SbmParams {
                num_nodes: 200,
                num_blocks: 2,
                intra_degree: 6.0,
                inter_degree: 0.5,
            },
            1,
        );
        let graph = CsrGraph::from_coo(&coo);
        let nodes: Vec<usize> = (0..120).collect();
        let sub = DenseSubgraph::extract(&graph, &nodes);
        let features = random_uniform_matrix(120, 64, 0.0, 1.0, 2);
        let prepared = PreparedBatch::pack_quantized(3, sub, features, 2);
        assert_eq!(prepared.batch_index, 3);
        assert_eq!(prepared.num_nodes(), 120);

        // The prepared payload is byte-identical to a directly built one.
        let embedded = prepared.payload.as_ref().expect("quantized path packs");
        assert_eq!(
            embedded.transfer_bytes(TransferStrategy::PackedCompound),
            payload.transfer_bytes(TransferStrategy::PackedCompound)
        );
        let tracker = CostTracker::new();
        prepared.record_transfer(&tracker);
        assert_eq!(
            tracker.snapshot().pcie_h2d_bytes,
            payload.transfer_bytes(TransferStrategy::PackedCompound) + PER_TRANSFER_OVERHEAD_BYTES
        );
    }

    #[test]
    fn prepared_batch_dense_charges_raw_fp32_bytes() {
        let (coo, _) = stochastic_block_model(
            SbmParams {
                num_nodes: 60,
                num_blocks: 2,
                intra_degree: 4.0,
                inter_degree: 0.5,
            },
            5,
        );
        let graph = CsrGraph::from_coo(&coo);
        let sub = DenseSubgraph::extract(&graph, &(0..40).collect::<Vec<_>>());
        let features = random_uniform_matrix(40, 16, 0.0, 1.0, 6);
        let prepared = PreparedBatch::dense(0, sub, features);
        assert!(prepared.payload.is_none());
        let tracker = CostTracker::new();
        prepared.record_transfer(&tracker);
        // Raw fp32 accounting without the per-transfer overhead model: exactly what
        // the serial DGL loop records.
        assert_eq!(
            tracker.snapshot().pcie_h2d_bytes,
            (40 * 40 * 4 + 40 * 16 * 4) as u64
        );
    }

    #[test]
    fn empty_prepared_batch_has_no_payload() {
        let (coo, _) = stochastic_block_model(
            SbmParams {
                num_nodes: 20,
                num_blocks: 2,
                intra_degree: 3.0,
                inter_degree: 0.5,
            },
            7,
        );
        let graph = CsrGraph::from_coo(&coo);
        let sub = DenseSubgraph::extract(&graph, &[]);
        let features = sub.gather_features(&random_uniform_matrix(20, 8, 0.0, 1.0, 8));
        let prepared = PreparedBatch::pack_quantized(0, sub, features, 2);
        assert_eq!(prepared.num_nodes(), 0);
        assert!(prepared.payload.is_none());
    }

    #[test]
    fn pooled_prepare_is_bitwise_identical_and_allocation_free_when_warm() {
        let (coo, _) = stochastic_block_model(
            SbmParams {
                num_nodes: 120,
                num_blocks: 2,
                intra_degree: 5.0,
                inter_degree: 0.5,
            },
            9,
        );
        let graph = CsrGraph::from_coo(&coo);
        let nodes: Vec<usize> = (0..80).collect();
        let features_global = random_uniform_matrix(120, 32, -1.0, 1.0, 4);
        let fresh = PreparedBatch::pack_quantized(
            0,
            DenseSubgraph::extract(&graph, &nodes),
            DenseSubgraph::extract(&graph, &nodes).gather_features(&features_global),
            3,
        );

        let mut pool = crate::pool::PackedBufferPool::new();
        let build = |pool: &mut crate::pool::PackedBufferPool| {
            let sub = DenseSubgraph::extract(&graph, &nodes);
            let feats = sub.gather_features(&features_global);
            PreparedBatch::pack_quantized_pooled(0, sub, feats, 3, pool).expect("finite features")
        };
        let first = build(&mut pool);
        let cold = pool.stats();
        assert!(cold.fresh_allocations > 0, "cold pool allocates");
        assert_eq!(
            first.payload.as_ref().unwrap().checksum(),
            fresh.payload.as_ref().unwrap().checksum(),
            "pooled payload is bitwise identical to the fresh one"
        );

        first.recycle_into(&mut pool);
        let second = build(&mut pool);
        assert_eq!(
            second.payload.as_ref().unwrap().checksum(),
            fresh.payload.as_ref().unwrap().checksum()
        );
        assert_eq!(
            pool.stats().fresh_allocations,
            cold.fresh_allocations,
            "warm pool prepares with zero fresh packed-buffer allocations"
        );
        assert!(pool.stats().reuses > cold.reuses);
    }

    #[test]
    fn payload_shares_the_subgraph_adjacency_plane() {
        let (coo, _) = stochastic_block_model(
            SbmParams {
                num_nodes: 60,
                num_blocks: 3,
                intra_degree: 4.0,
                inter_degree: 0.5,
            },
            11,
        );
        let graph = CsrGraph::from_coo(&coo);
        let nodes: Vec<usize> = (0..40).collect();
        let global_features = random_uniform_matrix(60, 16, -1.0, 1.0, 5);
        let pack = || {
            let sub = DenseSubgraph::extract(&graph, &nodes);
            let features = sub.gather_features(&global_features);
            PreparedBatch::pack_quantized(0, sub, features, 3)
        };
        let prepared = pack();
        let payload = prepared.payload.as_ref().unwrap();
        assert!(Arc::ptr_eq(
            &prepared.subgraph.adjacency,
            &payload.packed_adjacency
        ));

        // Recycling hands the shared plane back once: one adjacency plane,
        // three feature planes, the feature and node-id buffers.
        let recycled_buffers = |batch: PreparedBatch| {
            let mut pool = crate::pool::PackedBufferPool::new();
            batch.recycle_into(&mut pool);
            pool.spare_buffers()
        };

        // Corrupting the payload's adjacency forks it; the subgraph keeps the
        // clean plane.
        let clean = (*prepared.subgraph.adjacency).clone();
        let mut forked = 0;
        for seed in 0..32u64 {
            let mut damaged = pack();
            assert!(damaged.corrupt_payload(seed));
            let payload = damaged.payload.as_ref().unwrap();
            if !Arc::ptr_eq(&damaged.subgraph.adjacency, &payload.packed_adjacency) {
                forked += 1;
                assert_eq!(*damaged.subgraph.adjacency, clean);
                assert_ne!(*payload.packed_adjacency, clean);
                // A forked batch hands back one adjacency plane too, so
                // recycling rejected batches cannot grow the pool.
                assert_eq!(recycled_buffers(damaged), 1 + 3 + 1 + 1, "seed {seed}");
            }
        }
        assert!(forked > 0, "some seed must hit the adjacency");
        assert_eq!(recycled_buffers(prepared), 1 + 3 + 1 + 1);
    }

    #[test]
    fn seal_verify_and_corrupt_round_trip() {
        let (coo, _) = stochastic_block_model(
            SbmParams {
                num_nodes: 60,
                num_blocks: 3,
                intra_degree: 4.0,
                inter_degree: 0.5,
            },
            11,
        );
        let graph = CsrGraph::from_coo(&coo);
        let sub = DenseSubgraph::extract(&graph, &(0..40).collect::<Vec<_>>());
        let features = sub.gather_features(&random_uniform_matrix(60, 16, -1.0, 1.0, 5));
        let mut prepared = PreparedBatch::pack_quantized(0, sub, features, 3);

        // Unsealed batches always verify, even after corruption (nothing to compare).
        assert!(prepared.verify_payload());
        prepared.seal_checksum();
        assert!(prepared.payload_checksum.is_some());
        assert!(prepared.verify_payload(), "clean sealed batch verifies");

        // Every corruption seed must land a detectable flip on a sealed payload.
        for seed in 0..32u64 {
            let mut damaged = prepared.clone();
            assert!(damaged.corrupt_payload(seed), "seed {seed} must corrupt");
            assert!(!damaged.verify_payload(), "seed {seed} must be detected");
            damaged.seal_checksum();
            assert!(damaged.verify_payload(), "re-sealing accepts the new bits");
        }
    }

    #[test]
    fn dense_and_empty_batches_cannot_be_corrupted() {
        let (coo, _) = stochastic_block_model(
            SbmParams {
                num_nodes: 20,
                num_blocks: 2,
                intra_degree: 3.0,
                inter_degree: 0.5,
            },
            7,
        );
        let graph = CsrGraph::from_coo(&coo);
        let sub = DenseSubgraph::extract(&graph, &(0..10).collect::<Vec<_>>());
        let features = sub.gather_features(&random_uniform_matrix(20, 8, 0.0, 1.0, 8));
        let mut dense = PreparedBatch::dense(0, sub, features);
        dense.seal_checksum();
        assert_eq!(dense.payload_checksum, None, "no payload, nothing to seal");
        assert!(!dense.corrupt_payload(3), "no payload, nothing to corrupt");
        assert!(dense.verify_payload());
    }

    #[test]
    fn ensure_condensed_caches_and_leaves_the_checksum_alone() {
        let (coo, _) = stochastic_block_model(
            SbmParams {
                num_nodes: 40,
                num_blocks: 2,
                intra_degree: 3.0,
                inter_degree: 0.5,
            },
            11,
        );
        let graph = CsrGraph::from_coo(&coo);
        let sub = DenseSubgraph::extract(&graph, &(0..24).collect::<Vec<_>>());
        let features = sub.gather_features(&random_uniform_matrix(40, 16, 0.0, 1.0, 12));
        let mut payload = SubgraphPayload::new(&sub, &features, 2);
        assert!(payload.condensed_adjacency.is_none());
        let before = payload.checksum();

        payload.ensure_condensed();
        let first = payload.condensed_adjacency.clone().expect("built");
        assert_eq!(first.rows(), payload.num_nodes);
        assert_eq!(first.cols(), payload.num_nodes);

        // Idempotent: a second call keeps the exact same structure.
        payload.ensure_condensed();
        assert_eq!(payload.condensed_adjacency.as_ref(), Some(&first));

        // The cache is derived data and must not perturb payload identity.
        assert_eq!(payload.checksum(), before);
    }

    #[test]
    #[should_panic(expected = "feature rows must match")]
    fn mismatched_features_rejected() {
        let (coo, _) = stochastic_block_model(
            SbmParams {
                num_nodes: 50,
                num_blocks: 2,
                intra_degree: 4.0,
                inter_degree: 0.5,
            },
            3,
        );
        let graph = CsrGraph::from_coo(&coo);
        let sub = DenseSubgraph::extract(&graph, &(0..30).collect::<Vec<_>>());
        let features = random_uniform_matrix(10, 8, 0.0, 1.0, 4);
        let _ = SubgraphPayload::new(&sub, &features, 2);
    }

    #[test]
    fn features_no_range_covers_are_an_error_on_the_pooled_pack() {
        let (coo, _) = stochastic_block_model(
            SbmParams {
                num_nodes: 50,
                num_blocks: 2,
                intra_degree: 4.0,
                inter_degree: 0.5,
            },
            3,
        );
        let graph = CsrGraph::from_coo(&coo);
        let nodes: Vec<usize> = (0..30).collect();
        for (at, bad) in [(0, f32::NAN), (7, f32::INFINITY), (29 * 8, -3e38)] {
            let sub = DenseSubgraph::extract(&graph, &nodes);
            let mut features = random_uniform_matrix(30, 8, 0.0, 1.0, 4);
            features.data_mut()[at] = bad;
            if bad == -3e38 {
                features.data_mut()[0] = 3e38;
            }
            let result = PreparedBatch::pack_quantized_pooled(
                0,
                sub,
                features,
                2,
                &mut crate::pool::PackedBufferPool::new(),
            );
            assert!(
                matches!(result, Err(TensorError::NonFiniteRange { .. })),
                "{bad}: {result:?}"
            );
        }
    }
}
