//! End-to-end batched inference pipeline: one batch loop behind every epoch
//! entry point.
//!
//! One epoch of the paper's evaluation loop is three stages:
//!
//! 1. **plan** — partition the input graph with the METIS substitute
//!    (`num_partitions` parts) and group the partitions into batches of
//!    `batch_size`; the [`qgtc_partition::PartitionBatcher`] is an indexable plan,
//!    so any batch can be built independently of the others;
//! 2. **prepare** — materialise a batch's block-diagonal dense subgraph, gather its
//!    feature rows and bit-pack the transfer payload into a
//!    [`PreparedBatch`] (side-effect free:
//!    nothing is recorded into the cost tracker);
//! 3. **execute** — record the host-to-device transfer under the configured
//!    strategy and run the model's forward pass on the configured execution path.
//!
//! Every entry point runs the same private batch loop on the calling thread.
//! Each batch passes four supervised steps in epoch order: prepare, take
//! (checksum verify and repair), dispatch, then the forward pass.  The entry
//! points differ only in where the plan comes from:
//!
//! | Entry points | Where prepare runs | Payload seal | Fault injector | On a typed error |
//! |---|---|---|---|---|
//! | [`run_epoch`], [`try_run_epoch`], [`run_epoch_with_plan`], [`try_run_epoch_with_plan`] | inline | only with an active injector | from config | `try_*` return it, the others panic |
//!
//! The serving session ([`crate::serve`]) runs its cache misses through the
//! same `prepare_batch` and supervisors.  Because prepare is pure and execute
//! runs in epoch order with the same inputs, a served full sweep records the
//! epoch's [`CostSnapshot`]s exactly; [`run_epoch`] is the oracle it is checked
//! against.
//!
//! The returned [`EpochReport`] carries the modeled GPU latency (the number the
//! paper's Figure 7 reports), a pipelined serial-vs-overlapped latency pair (the
//! paper's batched dataflow overlaps one batch's transfer with another's compute,
//! §5; [`DeviceModel::estimate_pipelined`] schedules the per-batch counters at
//! [`QgtcConfig::prefetch_batches`] staging buffers, a model of the device, not
//! a host schedule), the measured host wall-clock of the simulation itself
//! (partitioning excluded, reported separately as `partition_ms`), and the raw
//! per-batch cost snapshots for deeper analysis.
//!
//! The supervisors (the `supervise_*` functions) absorb faults — injected by a
//! [`crate::fault::FaultPlan`] or real (a checksum mismatch on a sealed payload):
//! they retry with bounded backoff, repair by a pure re-prepare, or degrade the
//! GEMM backend through [`crate::fault::fallback_backend`]. Because the
//! supervisors key every decision on `(site, batch, attempt)` and re-preparing a
//! batch is side-effect free, a recovered epoch is bitwise identical to a
//! fault-free one, and [`EpochReport::fault_stats`] is the same at any thread
//! count. What cannot be absorbed surfaces as a typed [`QgtcError`] from the
//! `try_*` entry points ([`try_run_epoch`], [`try_run_epoch_with_plan`],
//! [`try_build_plan`]); the panicking entry points delegate to them.

use std::cell::RefCell;
use std::time::Instant;

use qgtc_gnn::models::{BatchForwardOutput, GnnModel, QuantizationSetting, QuantizedWeightSet};
use qgtc_gnn::{BatchedGinModel, ClusterGcnModel};
use qgtc_graph::{DenseSubgraph, LoadedDataset, SubgraphScratch};
use qgtc_kernels::backend::BackendChoice;
use qgtc_kernels::bmm::{resolve_adjacency_path, AdjacencyPath, KernelConfig};
use qgtc_kernels::packing::PreparedBatch;
use qgtc_kernels::pool::PackedBufferPool;
use qgtc_kernels::zero_tile::{adjacency_sparsity_stats, AdjacencySparsityStats};
use qgtc_partition::{try_partition_kway, PartitionBatcher, PartitionConfig};
use qgtc_tcsim::cost::{CostSnapshot, CostTracker};
use qgtc_tcsim::{DeviceModel, KernelEstimate, PipelineEstimate};

use crate::config::{ExecutionPath, ModelKind, QgtcConfig};
use crate::fault::{fallback_backend, FaultInjector, FaultKind, FaultSite, FaultStats, QgtcError};

/// Result of one modeled inference epoch.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Modeled end-to-end epoch latency (the Figure-7 metric), in milliseconds.
    /// This is the whole-epoch aggregate estimate; see `pipeline` for the
    /// per-batch-composed serial/overlapped pair.
    pub modeled_ms: f64,
    /// Breakdown of the modeled time (aggregate over the epoch).
    pub estimate: KernelEstimate,
    /// Pipelined latency composition: per-batch transfer/compute lanes scheduled
    /// serially and with `config.prefetch_batches` staging buffers.
    pub pipeline: PipelineEstimate,
    /// Host wall-clock spent simulating the epoch (prepare + execute), in
    /// milliseconds. Partitioning is **excluded**, matching the paper's
    /// measurement, which treats partitioning as one-time preprocessing; it is
    /// reported separately in `partition_ms`.
    pub host_wall_ms: f64,
    /// Host wall-clock spent partitioning the graph and building the batch plan,
    /// in milliseconds.
    pub partition_ms: f64,
    /// Number of (non-empty) batches executed.
    pub num_batches: usize,
    /// Number of nodes processed.
    pub num_nodes: usize,
    /// Raw accumulated work counters.
    pub cost: CostSnapshot,
    /// Per-batch cost deltas in epoch order (one entry per executed batch); these
    /// feed the pipelined latency model and the serving-vs-epoch identity tests.
    pub batch_costs: Vec<CostSnapshot>,
    /// Per-batch adjacency sparsity in epoch order (one entry per executed
    /// batch, all-zero for the dense baseline path): the nonzero-word ratio the
    /// zero-word-skip kernel sees and the fragmentation (edges per nonzero
    /// word) that decides whether condensation wins. Rendered as a table by the
    /// fig7a/fig7b binaries.
    pub batch_sparsity: Vec<AdjacencySparsityStats>,
    /// What the fault supervisor did this epoch: faults injected, retry cycles
    /// run, faults fully recovered, and backend degradations (with the backend
    /// the epoch finished on). All zeros on a fault-free run.
    pub fault_stats: FaultStats,
    /// How many weight-quantization passes the epoch ran. Model weights are
    /// constant across an epoch, so the context quantizes them **once per
    /// layer** up front and every batch shares the packed stacks: this is the
    /// model's layer count on the low-bit QGTC path (not `batches × layers`)
    /// and 0 on the dense-TC and baseline paths.
    pub weight_quantizations: u64,
}

impl EpochReport {
    /// Measured zero-word skip ratio of the epoch's fused GEMMs: the fraction of
    /// K-loop words the kernel's zero-word span index actually jumped (0.0 when
    /// zero-tile jumping was disabled or nothing ran).  This is the executed
    /// counterpart of the analytic [`CostSnapshot::tile_processing_ratio`].
    pub fn fused_word_skip_ratio(&self) -> f64 {
        self.cost.fused_word_skip_ratio()
    }

    /// Condensation ratio over the epoch's condensed-path dispatches: condensed
    /// K-loop words over the words the skip kernel would have walked (0.0 when
    /// no batch took the condensed path). Lower is better; see
    /// [`CostSnapshot::condensation_ratio`].
    pub fn condensation_ratio(&self) -> f64 {
        self.cost.condensation_ratio()
    }

    /// How the adjacency-path dispatcher split the epoch's aggregations:
    /// `(skip_dispatches, condensed_dispatches)`.
    pub fn adjacency_dispatches(&self) -> (u64, u64) {
        (
            self.cost.adj_skip_dispatches,
            self.cost.adj_condensed_dispatches,
        )
    }
}

/// Everything the execute stage needs that is built once per epoch: the model
/// (constructed from the dataset's dimensions and the config seed) and the
/// quantization setting.
pub(crate) struct EpochContext<'a> {
    config: &'a QgtcConfig,
    model: GnnModel,
    setting: QuantizationSetting,
    /// The kernel configuration the epoch is *currently* executing with. It starts
    /// as a copy of `config.kernel` and differs only after the dispatch supervisor
    /// degrades the backend mid-epoch (a `RefCell` because degradation happens on
    /// the execute side, which exclusively owns the context's mutability).
    kernel: RefCell<KernelConfig>,
    /// The per-epoch quantized weight cache (low-bit QGTC path only): every
    /// layer's weights quantized and bit-packed exactly once, shared by all of
    /// the epoch's forward passes.
    weights: Option<QuantizedWeightSet>,
}

impl<'a> EpochContext<'a> {
    pub(crate) fn new(dataset: &LoadedDataset, config: &'a QgtcConfig) -> Self {
        let feature_dim = dataset.features.cols();
        let num_classes = dataset.profile.num_classes.max(2);
        let model = match config.model {
            ModelKind::ClusterGcn => {
                GnnModel::ClusterGcn(ClusterGcnModel::new(feature_dim, num_classes, config.seed))
            }
            ModelKind::BatchedGin => {
                GnnModel::BatchedGin(BatchedGinModel::new(feature_dim, num_classes, config.seed))
            }
        };
        let setting = QuantizationSetting::from_bits(config.bits);
        // Weights are constant across the epoch: quantize once per layer here
        // and let every batch share the packed stacks.
        let weights = match (config.path, setting) {
            (ExecutionPath::Qgtc, QuantizationSetting::Quantized { bits }) => {
                Some(model.prepare_weights(bits))
            }
            _ => None,
        };
        Self {
            config,
            model,
            setting,
            kernel: RefCell::new(config.kernel),
            weights,
        }
    }

    /// How many weight-quantization passes this epoch runs: one per layer on
    /// the low-bit path (counted once, at context build time), 0 otherwise.
    pub(crate) fn weight_quantize_calls(&self) -> u64 {
        self.weights
            .as_ref()
            .map_or(0, QuantizedWeightSet::quantize_calls)
    }

    /// The backend choice the epoch is currently dispatching on.
    pub(crate) fn current_backend(&self) -> BackendChoice {
        self.kernel.borrow().backend
    }

    /// Degrade all remaining dispatches of this epoch to `backend`.
    pub(crate) fn degrade_to(&self, backend: BackendChoice) {
        self.kernel.borrow_mut().backend = backend;
    }
}

/// Mutable per-epoch accumulation: the cost tracker plus the running totals.
#[derive(Default)]
pub(crate) struct EpochState {
    pub(crate) tracker: CostTracker,
    pub(crate) batch_costs: Vec<CostSnapshot>,
    pub(crate) batch_sparsity: Vec<AdjacencySparsityStats>,
    pub(crate) num_batches: usize,
    pub(crate) num_nodes: usize,
    pub(crate) weight_quantizations: u64,
}

/// The plan stage: partition the graph and build the indexable batch plan (the
/// preprocessing the paper excludes from its epoch measurement). Returns the
/// plan plus the shard count the partitioner ran with (one per pool thread,
/// [`qgtc_partition::Parallelism::Auto`]).
///
/// Validates the config ([`QgtcConfig::validate`]) and the dataset features
/// (a NaN or infinite value is [`QgtcError::NonFiniteFeature`], a range wider
/// than `f32` is [`QgtcError::FeatureRangeOverflow`]), partitions through the
/// partitioner's typed-error entry points, and runs under the partition-site
/// fault supervisor. A zero batch size, zero partitions or more partitions
/// than nodes is a [`QgtcError`], not a panic.
pub fn try_build_plan(
    dataset: &LoadedDataset,
    config: &QgtcConfig,
) -> Result<(PartitionBatcher, usize), QgtcError> {
    let injector = FaultInjector::from_config(config)?;
    supervised_build_plan(dataset, config, injector.as_ref())
}

/// The plan stage under supervision, sharing `injector` with the rest of the
/// epoch so partition-phase faults land in the same [`FaultStats`].
pub(crate) fn supervised_build_plan(
    dataset: &LoadedDataset,
    config: &QgtcConfig,
    injector: Option<&FaultInjector>,
) -> Result<(PartitionBatcher, usize), QgtcError> {
    config.validate()?;
    check_finite_features(dataset)?;
    let max_retries = config.retry_budget();
    let mut attempt = 0u32;
    let mut absorbed = 0u64;
    while let Some(kind) = injector.and_then(|i| i.fault_at(FaultSite::Partition, 0, attempt)) {
        let injector = injector.expect("fault_at fired, injector present");
        injector.count_injected();
        if kind == FaultKind::BackendLoss || attempt >= max_retries {
            return Err(QgtcError::PartitionFailed {
                attempts: attempt + 1,
            });
        }
        injector.count_retried();
        absorbed += 1;
        backoff(attempt);
        attempt += 1;
    }
    let partition_config = PartitionConfig::with_parts(config.num_partitions);
    let shards = partition_config.parallelism.effective_shards();
    let partitioning = try_partition_kway(&dataset.graph, &partition_config)?;
    let batcher = PartitionBatcher::try_new(&partitioning, config.batch_size)?;
    if let Some(injector) = injector {
        injector.count_recovered(absorbed);
    }
    Ok((batcher, shards))
}

/// The first NaN or infinite feature value, or a feature range no batch
/// could be calibrated over, as a typed error.  A batch's range is a subset
/// of the dataset's, so a finite dataset range keeps every batch's finite.
fn check_finite_features(dataset: &LoadedDataset) -> Result<(), QgtcError> {
    let features = &dataset.features;
    // Magnitudes below 2^127 are finite and any two of them differ by less
    // than `f32::MAX`, so one scan clears the common case; the sequential
    // min/max (several times slower) runs only past it.
    let half_range = 2f32.powi(127);
    if features.data().iter().all(|v| v.abs() < half_range) {
        return Ok(());
    }
    if let Some(at) = features.data().iter().position(|v| !v.is_finite()) {
        return Err(QgtcError::NonFiniteFeature {
            node: at / features.cols(),
            column: at % features.cols(),
        });
    }
    let (min, max) = features.min_max();
    if !(max - min).is_finite() {
        return Err(QgtcError::FeatureRangeOverflow { min, max });
    }
    Ok(())
}

/// Exponential backoff between supervised retries, starting at 50µs and capped
/// well below any test timeout (50µs · 2⁶ = 3.2ms).
fn backoff(attempt: u32) {
    let micros = 50u64 << attempt.min(6);
    std::thread::sleep(std::time::Duration::from_micros(micros));
}

/// Prepare stage: materialise batch `index` of the plan and pack its payload,
/// drawing every buffer from `pool` and the node map from `scratch`.  The
/// `_in` constructors zero recycled storage, so the batch is bitwise identical
/// whatever the pool holds — the supervisors' repair precondition.
///
/// Pure with respect to the cost model — no tracker is touched — so a repair
/// may rebuild a batch without perturbing any recorded counter.
/// On the QGTC path the payload's condensed adjacency is built here iff the
/// dispatcher will take the condensed path for this batch (exact: the resolver
/// reads only the adjacency, so prepare and execute always agree).  That keeps
/// the translation off the execute stage and lets the serving payload cache
/// amortize it across coalesced requests.
///
/// Features the pack cannot calibrate (a NaN or infinite value, or a range
/// wider than `f32`) fail with the plan stage's typed error, which names the
/// dataset's first offending value: the pack's own range scan detects the
/// case, so a given plan, which skips the plan stage's dataset scan, pays
/// nothing extra on clean features.  The dense baseline path packs nothing,
/// so it scans each batch's gathered features for a NaN or infinite value
/// and fails with the same error.
pub(crate) fn prepare_batch(
    batcher: &PartitionBatcher,
    dataset: &LoadedDataset,
    config: &QgtcConfig,
    index: usize,
    pool: &mut PackedBufferPool,
    scratch: &mut SubgraphScratch,
) -> Result<PreparedBatch, QgtcError> {
    let batch = batcher
        .batch(index)
        .expect("prepare_batch called with index < num_batches");
    let subgraph = DenseSubgraph::batch_block_diagonal_in(
        &dataset.graph,
        &batch.partitions,
        pool.take_words(),
        pool.take_indices(),
        scratch,
    );
    let features = subgraph.gather_features_in(&dataset.features, pool.take_floats());
    match config.path {
        ExecutionPath::Qgtc => {
            let mut prepared = PreparedBatch::pack_quantized_pooled(
                index,
                subgraph,
                features,
                config.bits.min(8),
                pool,
            )
            .map_err(|err| match check_finite_features(dataset) {
                Err(found) => found,
                // A batch's range lies inside the dataset's, so only a
                // bitwidth the config check rejects first could get here.
                Ok(()) => QgtcError::InvalidConfig(err.to_string()),
            })?;
            if let Some(payload) = prepared.payload.as_mut() {
                if resolve_adjacency_path(config.kernel.adjacency_path, &payload.packed_adjacency)
                    == AdjacencyPath::Condensed
                {
                    payload.ensure_condensed();
                }
            }
            Ok(prepared)
        }
        ExecutionPath::DglBaseline => {
            // No pack calibrates the dense path's features, so it checks the
            // gathered values; they are the dataset's, so its scan names one.
            if !features.data().iter().all(|v| v.is_finite()) {
                check_finite_features(dataset)?;
            }
            Ok(PreparedBatch::dense(index, subgraph, features))
        }
    }
}

/// Execute stage: record the batch's transfer and run the forward pass, appending
/// the batch's cost delta to the state. Must be called in epoch order.
///
/// Returns the forward pass's output (`None` for empty batches). The epoch
/// loop drops it — an epoch is measured, not answered — while the serving
/// layer ([`crate::serve`]) gathers per-request logit rows out of it.  Fails
/// with [`QgtcError::NonFiniteActivations`] when the batch's activations
/// overflow `f32`; the batch is then not counted.
pub(crate) fn execute_batch(
    ctx: &EpochContext<'_>,
    prepared: &PreparedBatch,
    state: &mut EpochState,
) -> Result<Option<BatchForwardOutput>, QgtcError> {
    if prepared.num_nodes() == 0 {
        return Ok(None);
    }
    let before = state.tracker.snapshot();
    prepared.record_transfer(ctx.config.transfer, &state.tracker);
    let output = match ctx.config.path {
        ExecutionPath::Qgtc => {
            // The context's kernel config, not the original one: after a backend
            // degradation the remaining batches dispatch on the fallback backend.
            let kernel = *ctx.kernel.borrow();
            let output = ctx
                .model
                .try_forward_prepared_quantized(
                    prepared,
                    ctx.setting,
                    ctx.weights.as_ref(),
                    &kernel,
                    &state.tracker,
                )
                .map_err(|source| QgtcError::NonFiniteActivations {
                    batch: prepared.batch_index,
                    source,
                })?;
            // An assignment, not an accumulation: the context quantized once
            // at epoch start, so the total never grows with the batch count.
            state.weight_quantizations = ctx.weight_quantize_calls();
            output
        }
        ExecutionPath::DglBaseline => ctx.model.forward_prepared_fp32(prepared, &state.tracker),
    };
    state.num_batches += 1;
    state.num_nodes += prepared.num_nodes();
    state
        .batch_costs
        .push(state.tracker.snapshot().delta_since(&before));
    // Host-side sparsity measurement, aligned with `batch_costs` (one entry
    // per executed batch; all-zero on the dense baseline path).
    state.batch_sparsity.push(
        prepared
            .payload
            .as_ref()
            .map(|payload| adjacency_sparsity_stats(&payload.packed_adjacency))
            .unwrap_or_default(),
    );
    Ok(Some(output))
}

/// Prepare stage under supervision: run `prepare` for batch `index` and hand
/// it off to the take stage, retrying [`FaultSite::Prepare`] and
/// [`FaultSite::Deposit`] faults as one bounded production cycle.  `prepare`
/// must be pure with respect to the cost model and deterministic for a given
/// batch (re-invocations must rebuild bitwise-identical payloads — that is
/// what makes retry a repair); [`prepare_batch`] is.  An error from `prepare`
/// itself is not a fault: it returns at once, with no retry and no count.
///
/// Under an active injector the batch is sealed under its payload checksum
/// before the hand-off — which is also where a planned
/// [`FaultKind::Corruption`] flips payload bits *after* sealing, leaving a
/// stale checksum for [`supervise_delivered`] to catch.
pub(crate) fn supervise_prepare(
    config: &QgtcConfig,
    injector: Option<&FaultInjector>,
    index: usize,
    mut prepare: impl FnMut() -> Result<PreparedBatch, QgtcError>,
) -> Result<PreparedBatch, QgtcError> {
    let max_retries = config.retry_budget();
    let mut attempt = 0u32;
    let mut absorbed = 0u64;
    loop {
        // Prepare-site faults fail the attempt before a batch exists.
        if let Some(kind) = injector.and_then(|i| i.fault_at(FaultSite::Prepare, index, attempt)) {
            let injector = injector.expect("fault_at fired, injector present");
            injector.count_injected();
            if kind == FaultKind::BackendLoss || attempt >= max_retries {
                return Err(QgtcError::BatchFailed {
                    batch: index,
                    site: FaultSite::Prepare,
                    kind,
                    attempts: attempt + 1,
                });
            }
            injector.count_retried();
            absorbed += 1;
            backoff(attempt);
            attempt += 1;
            continue;
        }
        let mut prepared = prepare()?;
        if injector.is_some() {
            prepared.seal_checksum();
        }
        // Deposit-site faults hit the hand-off from prepare to take.
        match injector.and_then(|i| i.fault_at(FaultSite::Deposit, index, attempt)) {
            Some(FaultKind::Corruption) => {
                let injector = injector.expect("fault_at fired, injector present");
                if prepared.corrupt_payload(injector.corruption_seed(index, attempt)) {
                    injector.count_injected();
                }
                // The damaged batch is delivered as-is; detection (checksum
                // mismatch) and repair (re-prepare) happen at take time.
                injector.count_recovered(absorbed);
                return Ok(prepared);
            }
            Some(kind) => {
                let injector = injector.expect("fault_at fired, injector present");
                injector.count_injected();
                if kind == FaultKind::BackendLoss || attempt >= max_retries {
                    return Err(QgtcError::BatchFailed {
                        batch: index,
                        site: FaultSite::Deposit,
                        kind,
                        attempts: attempt + 1,
                    });
                }
                injector.count_retried();
                absorbed += 1;
                backoff(attempt);
                attempt += 1;
            }
            None => {
                if let Some(injector) = injector {
                    injector.count_recovered(absorbed);
                }
                return Ok(prepared);
            }
        }
    }
}

/// Take stage under supervision: validate the delivered batch's payload checksum
/// and absorb [`FaultSite::Take`] faults, repairing by `reprepare` (a pure
/// re-prepare, so the repaired batch is bitwise identical to a fault-free
/// preparation).
pub(crate) fn supervise_delivered(
    mut prepared: PreparedBatch,
    config: &QgtcConfig,
    injector: Option<&FaultInjector>,
    index: usize,
    mut reprepare: impl FnMut() -> Result<PreparedBatch, QgtcError>,
) -> Result<PreparedBatch, QgtcError> {
    let max_retries = config.retry_budget();
    let mut attempt = 0u32;
    let mut absorbed = 0u64;
    loop {
        let fault = injector.and_then(|i| i.fault_at(FaultSite::Take, index, attempt));
        if let Some(injector) = injector {
            if fault.is_some() {
                injector.count_injected();
            }
        }
        if fault == Some(FaultKind::BackendLoss) {
            return Err(QgtcError::BatchFailed {
                batch: index,
                site: FaultSite::Take,
                kind: FaultKind::BackendLoss,
                attempts: attempt + 1,
            });
        }
        // Checksum validation catches corruption whether it was injected or real.
        let corrupted = !prepared.verify_payload();
        if fault.is_none() && !corrupted {
            if let Some(injector) = injector {
                injector.count_recovered(absorbed);
            }
            return Ok(prepared);
        }
        if attempt >= max_retries {
            return Err(QgtcError::BatchFailed {
                batch: index,
                site: FaultSite::Take,
                kind: if corrupted {
                    FaultKind::Corruption
                } else {
                    fault.unwrap_or(FaultKind::Transient)
                },
                attempts: attempt + 1,
            });
        }
        if let Some(injector) = injector {
            injector.count_retried();
        }
        absorbed += 1;
        backoff(attempt);
        // Repair: re-run the pure prepare stage. No re-deposit happens, so a
        // deposit-time corruption cannot re-damage the repaired batch.
        prepared = reprepare()?;
        if injector.is_some() {
            prepared.seal_checksum();
        }
        attempt += 1;
    }
}

/// Dispatch stage under supervision, run just before a batch's forward pass:
/// transient [`FaultSite::Dispatch`] faults retry the dispatch; a persistent
/// backend loss degrades the epoch's remaining batches through
/// [`fallback_backend`] (or fails typed when the chain is exhausted).
pub(crate) fn supervise_dispatch(
    ctx: &EpochContext<'_>,
    injector: Option<&FaultInjector>,
    index: usize,
) -> Result<(), QgtcError> {
    let Some(injector) = injector else {
        return Ok(());
    };
    let max_retries = ctx.config.retry_budget();
    let mut attempt = 0u32;
    let mut absorbed = 0u64;
    loop {
        match injector.fault_at(FaultSite::Dispatch, index, attempt) {
            None => {
                injector.count_recovered(absorbed);
                return Ok(());
            }
            Some(FaultKind::BackendLoss) => {
                injector.count_injected();
                let lost = ctx.current_backend();
                match fallback_backend(lost) {
                    Some(next) => {
                        ctx.degrade_to(next);
                        injector.count_degraded();
                        injector.count_recovered(absorbed);
                        return Ok(());
                    }
                    None => {
                        return Err(QgtcError::BackendLost {
                            backend: lost.name(),
                            batch: index,
                        })
                    }
                }
            }
            Some(_) => {
                injector.count_injected();
                if attempt >= max_retries {
                    return Err(QgtcError::BatchFailed {
                        batch: index,
                        site: FaultSite::Dispatch,
                        kind: FaultKind::Transient,
                        attempts: attempt + 1,
                    });
                }
                injector.count_retried();
                absorbed += 1;
                backoff(attempt);
                attempt += 1;
            }
        }
    }
}

/// Run one epoch of `dataset` under `config` over `plan` or, when it is
/// `None`, over a plan partitioned inline.
///
/// A given plan reports `partition_ms` as 0 because no partitioning happens
/// in the run's scope.  Its batch size must match what
/// `config` describes for the report's granularity fields to be meaningful,
/// but nothing is re-derived from `config.num_partitions`/`config.batch_size`.
fn run_epoch_on(
    dataset: &LoadedDataset,
    config: &QgtcConfig,
    plan: Option<&PartitionBatcher>,
) -> Result<EpochReport, QgtcError> {
    let injector = FaultInjector::from_config(config)?;
    // Partitioning is host-side preprocessing, excluded from `host_wall_ms`
    // and timed separately — matching the paper's measurement.
    let built;
    let (batcher, partition_ms) = match plan {
        Some(batcher) => {
            // The plan stage validates the config; a given plan skips it.
            config.validate()?;
            (batcher, 0.0)
        }
        None => {
            let start = Instant::now();
            built = supervised_build_plan(dataset, config, injector.as_ref())?.0;
            (&built, start.elapsed().as_secs_f64() * 1e3)
        }
    };
    let mut report = run_batches(dataset, config, batcher, injector.as_ref())?;
    report.partition_ms = partition_ms;
    Ok(report)
}

/// The one batch loop: every batch runs supervised prepare, supervised take
/// (checksum verify and repair), supervised dispatch and [`execute_batch`], in
/// epoch order on the calling thread.
fn run_batches(
    dataset: &LoadedDataset,
    config: &QgtcConfig,
    batcher: &PartitionBatcher,
    injector: Option<&FaultInjector>,
) -> Result<EpochReport, QgtcError> {
    let epoch_start = Instant::now();
    let ctx = EpochContext::new(dataset, config);
    let mut state = EpochState::default();
    let mut scratch = SubgraphScratch::default();
    for index in 0..batcher.num_batches() {
        // Epoch batches are dropped once executed, so every prepare draws from
        // an empty pool; the loop reuses only its node-map scratch.
        let mut prepare = || {
            prepare_batch(
                batcher,
                dataset,
                config,
                index,
                &mut PackedBufferPool::new(),
                &mut scratch,
            )
        };
        let prepared = supervise_prepare(config, injector, index, &mut prepare)?;
        let prepared = supervise_delivered(prepared, config, injector, index, &mut prepare)?;
        supervise_dispatch(&ctx, injector, index)?;
        execute_batch(&ctx, &prepared, &mut state)?;
    }

    let mut fault_stats = injector.map(FaultInjector::stats).unwrap_or_default();
    if fault_stats.degraded > 0 {
        fault_stats.degraded_backend = Some(ctx.current_backend().name());
    }
    let cost = state.tracker.snapshot();
    let device = DeviceModel::new(config.gpu.clone());
    let estimate = device.estimate(&cost);
    let pipeline = device.estimate_pipelined(&state.batch_costs, config.prefetch_batches);
    Ok(EpochReport {
        modeled_ms: estimate.total_ms(),
        estimate,
        pipeline,
        host_wall_ms: epoch_start.elapsed().as_secs_f64() * 1e3,
        partition_ms: 0.0,
        num_batches: state.num_batches,
        num_nodes: state.num_nodes,
        cost,
        batch_costs: state.batch_costs,
        batch_sparsity: state.batch_sparsity,
        fault_stats,
        weight_quantizations: state.weight_quantizations,
    })
}

/// Run one inference epoch of `dataset` under `config`, strictly serially.
///
/// This is the oracle path: batches are prepared and executed one at a time on the
/// calling thread, and the transfer/compute overlap of the paper's batched
/// dataflow is modeled from the recorded per-batch counters
/// ([`EpochReport::pipeline`]).
pub fn run_epoch(dataset: &LoadedDataset, config: &QgtcConfig) -> EpochReport {
    try_run_epoch(dataset, config).unwrap_or_else(|err| panic!("run_epoch: {err}"))
}

/// Fallible form of [`run_epoch`]: the serial epoch under the fault supervisor.
/// Unrecoverable faults — and the invalid-argument conditions that used to panic
/// deep inside the pipeline — surface as a typed [`QgtcError`].
pub fn try_run_epoch(
    dataset: &LoadedDataset,
    config: &QgtcConfig,
) -> Result<EpochReport, QgtcError> {
    run_epoch_on(dataset, config, None)
}

/// Run one serial inference epoch over an already-built batch plan.
///
/// For callers that partitioned the graph themselves (or amortise one
/// partitioning across several epochs — the serving layer's construction
/// pattern); `partition_ms` reports 0.
pub fn run_epoch_with_plan(
    dataset: &LoadedDataset,
    config: &QgtcConfig,
    batcher: &PartitionBatcher,
) -> EpochReport {
    try_run_epoch_with_plan(dataset, config, batcher)
        .unwrap_or_else(|err| panic!("run_epoch_with_plan: {err}"))
}

/// Fallible form of [`run_epoch_with_plan`].  Features no batch can be
/// calibrated over are the same typed error [`try_build_plan`] returns,
/// surfaced by the first batch that holds one.
pub fn try_run_epoch_with_plan(
    dataset: &LoadedDataset,
    config: &QgtcConfig,
    batcher: &PartitionBatcher,
) -> Result<EpochReport, QgtcError> {
    run_epoch_on(dataset, config, Some(batcher))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgtc_graph::DatasetProfile;

    fn tiny_dataset() -> LoadedDataset {
        DatasetProfile::PROTEINS.materialize(0.03, 7)
    }

    fn tiny_config(config: QgtcConfig) -> QgtcConfig {
        config.with_partitions(16, 4)
    }

    #[test]
    fn epoch_processes_every_node_once() {
        let dataset = tiny_dataset();
        let report = run_epoch(
            &dataset,
            &tiny_config(QgtcConfig::qgtc(ModelKind::ClusterGcn, 2)),
        );
        assert_eq!(report.num_nodes, dataset.graph.num_nodes());
        assert!(report.num_batches >= 3);
        assert!(report.modeled_ms > 0.0);
        assert!(report.host_wall_ms > 0.0);
        assert!(report.partition_ms > 0.0);
        assert_eq!(report.batch_costs.len(), report.num_batches);
    }

    #[test]
    fn qgtc_path_uses_tensor_cores_and_packed_transfers() {
        let dataset = tiny_dataset();
        let report = run_epoch(
            &dataset,
            &tiny_config(QgtcConfig::qgtc(ModelKind::ClusterGcn, 4)),
        );
        assert!(report.cost.tc_b1_tiles > 0);
        assert!(report.cost.pcie_h2d_bytes > 0);
        assert_eq!(report.cost.cuda_sparse_flops, 0);
        // Batched subgraphs are block-diagonal, so the default config's
        // zero-word skipping must have jumped real work.
        assert!(report.cost.fused_words_total > 0);
        assert!(
            report.fused_word_skip_ratio() > 0.0,
            "block-diagonal adjacencies must skip words"
        );
    }

    #[test]
    fn skip_ratio_is_zero_when_jumping_is_disabled() {
        let dataset = tiny_dataset();
        let mut config = tiny_config(QgtcConfig::qgtc(ModelKind::ClusterGcn, 4));
        config.kernel.zero_tile_jumping = false;
        let report = run_epoch(&dataset, &config);
        assert!(report.cost.fused_words_total > 0);
        assert_eq!(report.cost.fused_words_skipped, 0);
        assert_eq!(report.fused_word_skip_ratio(), 0.0);
    }

    #[test]
    fn baseline_path_uses_cuda_cores_and_dense_transfers() {
        let dataset = tiny_dataset();
        let report = run_epoch(
            &dataset,
            &tiny_config(QgtcConfig::dgl_baseline(ModelKind::ClusterGcn)),
        );
        assert_eq!(report.cost.tc_b1_tiles, 0);
        assert!(report.cost.cuda_sparse_flops > 0);
    }

    #[test]
    fn low_bit_qgtc_is_modeled_faster_than_dgl() {
        let dataset = tiny_dataset();
        let qgtc = run_epoch(
            &dataset,
            &tiny_config(QgtcConfig::qgtc(ModelKind::ClusterGcn, 2)),
        );
        let dgl = run_epoch(
            &dataset,
            &tiny_config(QgtcConfig::dgl_baseline(ModelKind::ClusterGcn)),
        );
        assert!(
            qgtc.modeled_ms < dgl.modeled_ms,
            "QGTC 2-bit {:.3} ms should beat DGL {:.3} ms",
            qgtc.modeled_ms,
            dgl.modeled_ms
        );
    }

    #[test]
    fn lower_bitwidth_is_modeled_no_slower() {
        let dataset = tiny_dataset();
        let b2 = run_epoch(
            &dataset,
            &tiny_config(QgtcConfig::qgtc(ModelKind::BatchedGin, 2)),
        );
        let b8 = run_epoch(
            &dataset,
            &tiny_config(QgtcConfig::qgtc(ModelKind::BatchedGin, 8)),
        );
        assert!(
            b2.modeled_ms <= b8.modeled_ms * 1.05,
            "2-bit ({:.3} ms) should not be slower than 8-bit ({:.3} ms)",
            b2.modeled_ms,
            b8.modeled_ms
        );
    }

    #[test]
    fn gin_runs_both_paths() {
        let dataset = tiny_dataset();
        let q = run_epoch(
            &dataset,
            &tiny_config(QgtcConfig::qgtc(ModelKind::BatchedGin, 4)),
        );
        let d = run_epoch(
            &dataset,
            &tiny_config(QgtcConfig::dgl_baseline(ModelKind::BatchedGin)),
        );
        assert!(q.cost.tc_b1_tiles > 0);
        assert!(d.cost.cuda_sparse_flops > 0);
    }

    #[test]
    fn weights_are_quantized_once_per_layer_per_epoch() {
        let dataset = tiny_dataset();
        let report = run_epoch(
            &dataset,
            &tiny_config(QgtcConfig::qgtc(ModelKind::ClusterGcn, 2)),
        );
        // One pass per layer, NOT batches × layers: the epoch context caches
        // the packed weight stacks and every batch shares them.
        assert_eq!(report.weight_quantizations, 3, "3-layer Cluster GCN");
        assert!(
            report.num_batches > 1,
            "the cache claim is vacuous on a single-batch epoch"
        );

        // The dense-TC and baseline paths never bit-quantize weights.
        let half = run_epoch(
            &dataset,
            &tiny_config(QgtcConfig::qgtc(ModelKind::ClusterGcn, 16)),
        );
        assert_eq!(half.weight_quantizations, 0);
        let dgl = run_epoch(
            &dataset,
            &tiny_config(QgtcConfig::dgl_baseline(ModelKind::BatchedGin)),
        );
        assert_eq!(dgl.weight_quantizations, 0);
    }

    #[test]
    fn batch_costs_sum_to_epoch_cost() {
        let dataset = tiny_dataset();
        let report = run_epoch(
            &dataset,
            &tiny_config(QgtcConfig::qgtc(ModelKind::ClusterGcn, 3)),
        );
        let t = CostTracker::new();
        for batch in &report.batch_costs {
            t.merge_snapshot(batch);
        }
        assert_eq!(
            t.snapshot(),
            report.cost,
            "per-batch deltas must tile the epoch"
        );
    }

    #[test]
    fn a_prepare_error_is_returned_without_a_retry_or_a_fault_count() {
        let config = QgtcConfig::default();
        // An active plan whose deposit fault would retry a successful prepare.
        let plan = crate::fault::FaultPlan::parse("deposit:transient:0").expect("valid");
        let injector = FaultInjector::new(plan);
        let error = QgtcError::NonFiniteFeature { node: 1, column: 2 };
        let mut calls = 0;
        let result = supervise_prepare(&config, Some(&injector), 0, || {
            calls += 1;
            Err(error.clone())
        });
        assert_eq!(result.map(|_| ()), Err(error));
        assert_eq!(calls, 1);
        assert_eq!(injector.stats(), FaultStats::default());
    }

    #[test]
    fn overlapped_latency_no_worse_than_serial_composition() {
        let dataset = tiny_dataset();
        let report = run_epoch(
            &dataset,
            &tiny_config(QgtcConfig::qgtc(ModelKind::ClusterGcn, 2)).with_prefetch(4),
        );
        assert_eq!(report.pipeline.staging_buffers, 4);
        assert!(report.pipeline.overlapped_s <= report.pipeline.serial_s);
        assert!(report.pipeline.overlap_speedup() >= 1.0);

        let no_overlap = tiny_config(QgtcConfig::qgtc(ModelKind::ClusterGcn, 2)).with_prefetch(1);
        let serial_only = run_epoch(&dataset, &no_overlap);
        assert_eq!(serial_only.pipeline.staging_buffers, 1);
        assert_eq!(
            serial_only.pipeline.overlapped_s,
            serial_only.pipeline.serial_s
        );
    }
}
