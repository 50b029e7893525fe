//! Streamed epoch execution: sharded batch construction feeding a bounded,
//! in-order staging queue, with the compute stage consuming behind it.
//!
//! The serial loop in [`super::run_epoch`] alternates between two very different
//! kinds of host work per batch: *prepare* (materialise the block-diagonal
//! subgraph, gather features, bit-pack the payload — embarrassingly parallel,
//! touches no cost counter) and *execute* (record the transfer, run the forward
//! pass — must happen in epoch order for deterministic accounting). This module
//! splits them into a two-stage pipeline, the host-side mirror of the
//! double-buffered transfer/compute overlap the paper's batched dataflow relies on
//! (§5):
//!
//! * **producer shards** run on the rayon worker pool. Each shard claims the next
//!   batch index from a shared ascending ticket, builds the
//!   [`PreparedBatch`] via the same
//!   `prepare_batch` the serial loop uses, and deposits it in the staging
//!   queue. A ticket for batch `i` is only issued once `i < consumed + depth`
//!   (`depth = config.prefetch_batches`), so at most `depth` batches are ever
//!   staged or in flight — the bounded-channel discipline that caps memory at
//!   `depth` dense subgraphs;
//! * the **compute stage** (the calling thread) pops batches strictly in epoch
//!   order and runs `execute_batch`, which records transfers and forward
//!   passes into the cost tracker exactly as the serial loop does.
//!
//! Because `prepare_batch` is pure and `execute_batch` runs in the same order with
//! the same inputs, the streamed epoch's [`CostSnapshot`](qgtc_tcsim::cost::CostSnapshot)s
//! — total and per batch — are *identical* to the serial loop's; only host
//! wall-clock (prepare overlapped with compute) and the modeled overlapped latency
//! (`pipeline.overlapped_s`, the documented bounded-buffer formula) differ.
//!
//! # Example
//!
//! Serial and streamed executors agree on every modeled quantity; the streamed
//! report additionally shows the overlap win of `prefetch_batches` staging buffers:
//!
//! ```
//! use qgtc_core::{run_epoch, run_epoch_streamed, ModelKind, QgtcConfig};
//! use qgtc_core::graph::DatasetProfile;
//!
//! let dataset = DatasetProfile::PROTEINS.materialize(0.02, 7);
//! let config = QgtcConfig::qgtc(ModelKind::ClusterGcn, 2)
//!     .with_partitions(8, 2)
//!     .with_prefetch(3);
//!
//! let serial = run_epoch(&dataset, &config);
//! let streamed = run_epoch_streamed(&dataset, &config);
//!
//! // Identical work, batch for batch...
//! assert_eq!(serial.cost, streamed.cost);
//! assert_eq!(serial.batch_costs, streamed.batch_costs);
//! // ...and the overlapped schedule can only improve on the serial composition.
//! assert!(streamed.pipeline.overlapped_ms() <= streamed.pipeline.serial_ms());
//! assert_eq!(streamed.pipeline.serial_ms(), serial.pipeline.serial_ms());
//! ```

use std::sync::{Condvar, Mutex};
use std::time::Instant;

use qgtc_graph::LoadedDataset;
use qgtc_kernels::packing::PreparedBatch;
use qgtc_partition::PartitionBatcher;
use rayon::prelude::*;

use super::{
    execute_batch, fault_stats_from, finish_report, prepare_batch, supervise_delivered,
    supervise_dispatch, supervise_prepare, try_serial_epoch_over_plan, EpochContext, EpochRunner,
    EpochState,
};
use crate::config::QgtcConfig;
use crate::fault::{FaultInjector, FaultStats, QgtcError};
use crate::pipeline::EpochReport;

/// Interior state of the staging queue, guarded by one mutex.
struct QueueState {
    /// Staged batches, indexed by epoch position (`None` = not yet produced or
    /// already consumed).
    slots: Vec<Option<PreparedBatch>>,
    /// Next batch index to hand to a producer shard (ascending tickets).
    next_ticket: usize,
    /// Number of batches the compute stage has consumed (the window base).
    consumed: usize,
    /// Set when either stage finishes or fails; wakes every waiter.
    closed: bool,
    /// The first typed error a producer shard hit (a supervised prepare that
    /// exhausted its retry budget); delivered to the consumer by [`StagingQueue::take`].
    error: Option<QgtcError>,
}

/// Bounded, in-order staging queue between the producer shards and the compute
/// stage: the host-side analogue of `depth` device staging buffers.
struct StagingQueue {
    state: Mutex<QueueState>,
    /// Signalled when a batch lands in its slot (compute stage waits here).
    produced: Condvar,
    /// Signalled when the window advances (producer shards wait here).
    window: Condvar,
    depth: usize,
    total: usize,
}

impl StagingQueue {
    fn new(total: usize, depth: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                slots: (0..total).map(|_| None).collect(),
                next_ticket: 0,
                consumed: 0,
                closed: false,
                error: None,
            }),
            produced: Condvar::new(),
            window: Condvar::new(),
            depth: depth.max(1),
            total,
        }
    }

    /// Claim the next batch index to prepare, blocking while the staging window is
    /// full. Returns `None` when every batch has been claimed or the queue closed.
    fn claim(&self) -> Option<usize> {
        let mut state = self.state.lock().expect("staging queue poisoned");
        loop {
            if state.closed || state.next_ticket >= self.total {
                return None;
            }
            if state.next_ticket < state.consumed + self.depth {
                let ticket = state.next_ticket;
                state.next_ticket += 1;
                return Some(ticket);
            }
            state = self.window.wait(state).expect("staging queue poisoned");
        }
    }

    /// Deposit a prepared batch into its slot (slot capacity was reserved by
    /// [`StagingQueue::claim`]).
    fn deposit(&self, index: usize, prepared: PreparedBatch) {
        let mut state = self.state.lock().expect("staging queue poisoned");
        if !state.closed {
            state.slots[index] = Some(prepared);
            self.produced.notify_all();
        }
    }

    /// Take batch `index`, blocking until a producer deposits it.
    ///
    /// A queue failed through [`StagingQueue::fail`] yields the producer's typed
    /// error once the deposited backlog ahead of it is drained.
    ///
    /// # Panics
    ///
    /// Panics if the queue closes without an error (a producer shard *panicked*,
    /// as opposed to failing typed) before the batch lands.
    fn take(&self, index: usize) -> Result<PreparedBatch, QgtcError> {
        let mut state = self.state.lock().expect("staging queue poisoned");
        loop {
            if let Some(prepared) = state.slots[index].take() {
                state.consumed = index + 1;
                self.window.notify_all();
                return Ok(prepared);
            }
            if state.closed {
                if let Some(err) = state.error.clone() {
                    return Err(err);
                }
                panic!("streamed producers finished without preparing batch {index}");
            }
            state = self.produced.wait(state).expect("staging queue poisoned");
        }
    }

    /// Close the queue carrying a typed producer error (first failure wins); every
    /// waiter wakes, and the consumer's next undeposited [`StagingQueue::take`]
    /// returns the error instead of panicking.
    fn fail(&self, err: QgtcError) {
        let mut state = self.state.lock().expect("staging queue poisoned");
        if state.error.is_none() {
            state.error = Some(err);
        }
        state.closed = true;
        self.produced.notify_all();
        self.window.notify_all();
    }

    /// Close the queue and wake every waiter (idempotent). Called by both stages
    /// on completion *and* on unwind, so neither stage can strand the other.
    fn close(&self) {
        let mut state = self.state.lock().expect("staging queue poisoned");
        state.closed = true;
        self.produced.notify_all();
        self.window.notify_all();
    }
}

/// Closes the queue when dropped — normally or during a panic unwind.
struct CloseOnDrop<'a>(&'a StagingQueue);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Run one inference epoch of `dataset` under `config` on the streamed executor.
///
/// Produces the exact cost counters of [`super::run_epoch`] (same totals, same
/// per-batch deltas — see the module docs for why) while preparing up to
/// `config.prefetch_batches` batches ahead on the rayon pool. The executor
/// degenerates to the inline serial loop when no lookahead is possible
/// (`prefetch_batches == 1` or a single batch) or profitable (a single-core pool:
/// two stages time-slicing one CPU pay queue overhead without any overlap). The
/// modeled transfer/compute overlap in the report is unaffected by the host-side
/// degeneration — it is a function of the per-batch counters and
/// `config.staging_depth()` alone.
///
/// Thin wrapper over [`EpochRunner::streamed`].
pub fn run_epoch_streamed(dataset: &LoadedDataset, config: &QgtcConfig) -> EpochReport {
    try_run_epoch_streamed(dataset, config)
        .unwrap_or_else(|err| panic!("run_epoch_streamed: {err}"))
}

/// Fallible form of [`run_epoch_streamed`]: the streamed epoch under the fault
/// supervisor. Producer shards run the supervised prepare stage and surface an
/// unrecoverable failure through the queue's typed-error channel instead of a
/// panic; the consumer validates every delivered payload against its sealed
/// checksum (the streamed path seals unconditionally — batches genuinely cross
/// threads here) and repairs or retries per the supervisor's policies.
///
/// Thin wrapper over [`EpochRunner::streamed`].
pub fn try_run_epoch_streamed(
    dataset: &LoadedDataset,
    config: &QgtcConfig,
) -> Result<EpochReport, QgtcError> {
    EpochRunner::new(dataset, config).streamed(true).try_run()
}

/// Run one streamed inference epoch over an already-built batch plan (the
/// streamed analogue of [`super::run_epoch_with_plan`]; `partition_ms` is
/// reported as 0).
///
/// Thin wrapper over [`EpochRunner::with_plan`] + [`EpochRunner::streamed`].
pub fn run_epoch_streamed_with_plan(
    dataset: &LoadedDataset,
    config: &QgtcConfig,
    batcher: &PartitionBatcher,
) -> EpochReport {
    try_run_epoch_streamed_with_plan(dataset, config, batcher)
        .unwrap_or_else(|err| panic!("run_epoch_streamed_with_plan: {err}"))
}

/// Fallible form of [`run_epoch_streamed_with_plan`].
///
/// Thin wrapper over [`EpochRunner::with_plan`] + [`EpochRunner::streamed`].
pub fn try_run_epoch_streamed_with_plan(
    dataset: &LoadedDataset,
    config: &QgtcConfig,
    batcher: &PartitionBatcher,
) -> Result<EpochReport, QgtcError> {
    EpochRunner::new(dataset, config)
        .with_plan(batcher)
        .streamed(true)
        .try_run()
}

/// The PR 3 streamed executor, verbatim: no supervisor, no payload checksums, no
/// fault plan (an active `QGTC_FAULTS` spec is deliberately ignored). This is the
/// perfsmoke overhead baseline the supervised [`run_epoch_streamed`] is measured
/// against — the two must stay bitwise identical on fault-free runs.
///
/// Thin wrapper over [`EpochRunner::streamed`] + [`EpochRunner::raw`].
pub fn run_epoch_streamed_raw(dataset: &LoadedDataset, config: &QgtcConfig) -> EpochReport {
    EpochRunner::new(dataset, config).streamed(true).raw().run()
}

/// The raw (unsupervised, unsealed) serial loop backing
/// [`EpochRunner::raw`]'s degenerate and serial paths.
pub(crate) fn raw_serial_over_plan(
    dataset: &LoadedDataset,
    config: &QgtcConfig,
    batcher: &PartitionBatcher,
    partition_ms: f64,
    partition_shards: usize,
) -> EpochReport {
    let epoch_start = Instant::now();
    let ctx = EpochContext::new(dataset, config);
    let mut state = EpochState::default();
    for index in 0..batcher.num_batches() {
        let prepared = prepare_batch(batcher, dataset, config, index);
        execute_raw(&ctx, &prepared, &mut state);
    }
    finish_report(
        config,
        state,
        partition_ms,
        partition_shards,
        epoch_start,
        FaultStats::default(),
    )
}

/// The raw executors' execute step: unsupervised, so a batch whose
/// activations overflow `f32` panics instead of failing typed.
fn execute_raw(ctx: &EpochContext<'_>, prepared: &PreparedBatch, state: &mut EpochState) {
    if let Err(err) = execute_batch(ctx, prepared, state) {
        panic!("raw epoch: {err}");
    }
}

/// Whether the streamed executor should fall back to the serial loop: one staging
/// buffer admits no lookahead, and on a single-core pool two stages time-slicing
/// one CPU pay queue overhead without any overlap.
pub(crate) fn degenerates_to_serial(config: &QgtcConfig) -> bool {
    config.prefetch_batches.max(1) == 1 || rayon::current_num_threads() <= 1
}

/// The raw (unsupervised) threaded streamed-executor body (and, via tests,
/// exercised even on single-core hosts where the public entries degenerate).
pub(crate) fn streamed_epoch_over_plan(
    dataset: &LoadedDataset,
    config: &QgtcConfig,
    batcher: &PartitionBatcher,
    partition_ms: f64,
    partition_shards: usize,
) -> EpochReport {
    let epoch_start = Instant::now();
    let ctx = EpochContext::new(dataset, config);
    let mut state = EpochState::default();
    let total = batcher.num_batches();
    let depth = config.prefetch_batches.max(1);

    if total <= 1 {
        for index in 0..total {
            let prepared = prepare_batch(batcher, dataset, config, index);
            execute_raw(&ctx, &prepared, &mut state);
        }
        return finish_report(
            config,
            state,
            partition_ms,
            partition_shards,
            epoch_start,
            FaultStats::default(),
        );
    }

    // At most `depth` batches can be staged or in flight, so more shards than
    // staging buffers would only block on the window — and a shard blocked on a
    // full window still pins its pool worker, which would starve the compute
    // stage's own parallel kernels. Cap the shards at half the pool (rounded up)
    // so the consumer's nested dispatches always find free workers.
    let shards = depth
        .min(rayon::current_num_threads().div_ceil(2))
        .min(total)
        .max(1);
    let queue = StagingQueue::new(total, depth);
    std::thread::scope(|scope| {
        let queue = &queue;
        scope.spawn(move || {
            // Close the queue when the producers drain the ticket supply — or when
            // one of them panics — so the compute stage never waits forever.
            let _close = CloseOnDrop(queue);
            (0..shards).into_par_iter().for_each(|_| {
                while let Some(index) = queue.claim() {
                    // The pool catches panics at item granularity, so an unwind
                    // here would otherwise strand ticket `index` undelivered while
                    // sibling shards keep waiting on the frozen window: close the
                    // queue first (unblocking both stages), then let the panic
                    // propagate through the pool's normal re-raise path.
                    let prepared = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        prepare_batch(batcher, dataset, config, index)
                    }))
                    .unwrap_or_else(|payload| {
                        queue.close();
                        std::panic::resume_unwind(payload);
                    });
                    queue.deposit(index, prepared);
                }
            });
        });

        // Compute stage: strictly in epoch order, on this thread. The guard closes
        // the queue if `execute_batch` panics, unblocking the producer shards so
        // the scope can join them and propagate the panic.
        let _close = CloseOnDrop(queue);
        for index in 0..total {
            // The raw path has no typed-error producers, so a failed take can only
            // be the close-without-deposit panic inside `take` itself.
            let prepared = queue
                .take(index)
                .unwrap_or_else(|err| panic!("raw streamed take: {err}"));
            execute_raw(&ctx, &prepared, &mut state);
        }
    });
    finish_report(
        config,
        state,
        partition_ms,
        partition_shards,
        epoch_start,
        FaultStats::default(),
    )
}

/// The supervised threaded streamed-executor body: producer shards run
/// [`supervise_prepare`] (sealing every payload) and fail the queue typed on an
/// unrecoverable batch; the consumer drains in order through
/// [`supervise_delivered`] (checksum validation + repair) and
/// [`supervise_dispatch`] (retry / backend degradation) before executing.
pub(crate) fn try_streamed_epoch_over_plan(
    dataset: &LoadedDataset,
    config: &QgtcConfig,
    batcher: &PartitionBatcher,
    partition_ms: f64,
    partition_shards: usize,
    injector: Option<&FaultInjector>,
) -> Result<EpochReport, QgtcError> {
    let total = batcher.num_batches();
    if total <= 1 {
        // Nothing to overlap; the sealed serial body is the same schedule.
        return try_serial_epoch_over_plan(
            dataset,
            config,
            batcher,
            partition_ms,
            partition_shards,
            injector,
            true,
        );
    }
    let epoch_start = Instant::now();
    let ctx = EpochContext::new(dataset, config);
    let mut state = EpochState::default();
    let depth = config.prefetch_batches.max(1);

    // Same shard cap as the raw body: more shards than staging buffers would only
    // block on the window while pinning pool workers the consumer needs.
    let shards = depth
        .min(rayon::current_num_threads().div_ceil(2))
        .min(total)
        .max(1);
    let queue = StagingQueue::new(total, depth);
    let mut outcome: Result<(), QgtcError> = Ok(());
    std::thread::scope(|scope| {
        let queue = &queue;
        scope.spawn(move || {
            let _close = CloseOnDrop(queue);
            (0..shards).into_par_iter().for_each(|_| {
                while let Some(index) = queue.claim() {
                    // As in the raw body, a panic inside prepare must close the
                    // queue before propagating; a *typed* failure (retry budget
                    // exhausted) instead travels through the queue's error
                    // channel so the consumer returns it instead of panicking.
                    let produced = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        supervise_prepare(batcher, dataset, config, injector, index, true)
                    }))
                    .unwrap_or_else(|payload| {
                        queue.close();
                        std::panic::resume_unwind(payload);
                    });
                    match produced {
                        Ok(prepared) => queue.deposit(index, prepared),
                        Err(err) => {
                            queue.fail(err);
                            return;
                        }
                    }
                }
            });
        });

        let _close = CloseOnDrop(queue);
        for index in 0..total {
            let result = queue.take(index).and_then(|prepared| {
                let prepared =
                    supervise_delivered(prepared, batcher, dataset, config, injector, index, true)?;
                supervise_dispatch(&ctx, injector, index)?;
                execute_batch(&ctx, &prepared, &mut state)?;
                Ok(())
            });
            if let Err(err) = result {
                outcome = Err(err);
                break;
            }
        }
    });
    outcome?;
    let fault_stats = fault_stats_from(injector, &ctx);
    Ok(finish_report(
        config,
        state,
        partition_ms,
        partition_shards,
        epoch_start,
        fault_stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelKind;
    use crate::pipeline::{build_plan, run_epoch};
    use qgtc_graph::DatasetProfile;

    fn tiny_dataset() -> LoadedDataset {
        DatasetProfile::PROTEINS.materialize(0.03, 7)
    }

    #[test]
    fn streamed_matches_serial_counters_exactly() {
        let dataset = tiny_dataset();
        for config in [
            QgtcConfig::qgtc(ModelKind::ClusterGcn, 2).with_partitions(16, 4),
            QgtcConfig::qgtc(ModelKind::BatchedGin, 4).with_partitions(16, 4),
            QgtcConfig::dgl_baseline(ModelKind::ClusterGcn).with_partitions(16, 4),
        ] {
            let serial = run_epoch(&dataset, &config);
            // Call the threaded body directly so the queue is exercised even when
            // the test host has a single core (where the public entry degenerates).
            let (batcher, _) = build_plan(&dataset, &config);
            let streamed = streamed_epoch_over_plan(&dataset, &config, &batcher, 0.0, 0);
            assert_eq!(serial.cost, streamed.cost);
            assert_eq!(serial.batch_costs, streamed.batch_costs);
            assert_eq!(serial.num_batches, streamed.num_batches);
            assert_eq!(serial.num_nodes, streamed.num_nodes);
            assert_eq!(serial.modeled_ms, streamed.modeled_ms);
            assert_eq!(serial.pipeline, streamed.pipeline);
            // The public entry must agree regardless of which host path it picks.
            let public = run_epoch_streamed(&dataset, &config);
            assert_eq!(serial.cost, public.cost);
            assert_eq!(serial.batch_costs, public.batch_costs);
        }
    }

    #[test]
    fn deep_prefetch_and_odd_shard_counts_stay_deterministic() {
        let dataset = tiny_dataset();
        let base = QgtcConfig::qgtc(ModelKind::ClusterGcn, 3).with_partitions(16, 2);
        let reference = run_epoch(&dataset, &base);
        for depth in [2, 3, 7, 64] {
            let config = base.clone().with_prefetch(depth);
            let (batcher, _) = build_plan(&dataset, &config);
            let streamed = streamed_epoch_over_plan(&dataset, &config, &batcher, 0.0, 0);
            assert_eq!(reference.cost, streamed.cost, "depth {depth}");
            assert_eq!(reference.batch_costs, streamed.batch_costs, "depth {depth}");
        }
    }

    #[test]
    fn depth_one_degenerates_to_serial() {
        let dataset = tiny_dataset();
        let config = QgtcConfig::qgtc(ModelKind::ClusterGcn, 2)
            .with_partitions(16, 4)
            .with_prefetch(1);
        let serial = run_epoch(&dataset, &config);
        let streamed = run_epoch_streamed(&dataset, &config);
        assert_eq!(serial.cost, streamed.cost);
        // With one staging buffer the pipelined model is the serial sum exactly.
        assert_eq!(streamed.pipeline.staging_buffers, 1);
        assert_eq!(streamed.pipeline.overlapped_s, streamed.pipeline.serial_s);
    }

    fn empty_subgraph() -> qgtc_graph::DenseSubgraph {
        qgtc_graph::DenseSubgraph::extract(&qgtc_graph::CsrGraph::from_parts(vec![0], vec![]), &[])
    }

    #[test]
    fn staging_queue_hands_out_bounded_in_order_tickets() {
        let queue = StagingQueue::new(5, 2);
        assert_eq!(queue.claim(), Some(0));
        assert_eq!(queue.claim(), Some(1));
        // Window full: a third ticket must wait for a consume; simulate with a
        // producing/consuming thread to avoid deadlocking the test.
        std::thread::scope(|scope| {
            let q = &queue;
            scope.spawn(move || {
                for index in 0..2 {
                    let sub = empty_subgraph();
                    q.deposit(
                        index,
                        PreparedBatch::dense(index, sub, qgtc_tensor::Matrix::zeros(0, 4)),
                    );
                }
            });
            let first = queue.take(0).expect("batch 0 was deposited");
            assert_eq!(first.batch_index, 0);
        });
        // Consuming batch 0 advanced the window: ticket 2 is available now.
        assert_eq!(queue.claim(), Some(2));
        queue.close();
        assert_eq!(queue.claim(), None);
    }

    #[test]
    #[should_panic(expected = "without preparing batch")]
    fn take_after_close_without_deposit_panics_instead_of_hanging() {
        // A producer shard that claims a ticket and dies (the panic path closes
        // the queue before unwinding) must turn the consumer's wait into a panic,
        // not a hang.
        let queue = StagingQueue::new(3, 2);
        assert_eq!(queue.claim(), Some(0));
        queue.close();
        let _ = queue.take(0);
    }

    #[test]
    fn failed_queue_surfaces_the_typed_error_after_draining_deposits() {
        let queue = StagingQueue::new(3, 3);
        assert_eq!(queue.claim(), Some(0));
        assert_eq!(queue.claim(), Some(1));
        let sub = empty_subgraph();
        queue.deposit(
            0,
            PreparedBatch::dense(0, sub, qgtc_tensor::Matrix::zeros(0, 4)),
        );
        queue.fail(QgtcError::PartitionFailed { attempts: 2 });
        // Already-deposited work ahead of the failure still drains...
        assert!(queue.take(0).is_ok());
        // ...then the missing slot yields the producer's typed error, not a panic.
        assert!(matches!(
            queue.take(1),
            Err(QgtcError::PartitionFailed { attempts: 2 })
        ));
        // New tickets stop flowing on a failed queue.
        assert_eq!(queue.claim(), None);
    }

    #[test]
    fn consumer_panic_unblocks_producers_stuck_on_a_full_window() {
        // The reverse shutdown direction of `take_after_close_without_deposit...`:
        // the *consumer* dies while producer shards are blocked on the full
        // staging window. The consumer's close-on-unwind guard must wake the
        // producers so the scope can join them, and the panic must propagate.
        let dataset = tiny_dataset();
        let config = QgtcConfig::qgtc(ModelKind::ClusterGcn, 2)
            .with_partitions(16, 2)
            .with_prefetch(2);
        let (batcher, _) = build_plan(&dataset, &config);
        let total = batcher.num_batches();
        assert!(total > 4, "need more batches than the window holds");
        let queue = StagingQueue::new(total, 2);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            std::thread::scope(|scope| {
                let queue = &queue;
                let batcher = &batcher;
                let dataset = &dataset;
                let config = &config;
                scope.spawn(move || {
                    let _close = CloseOnDrop(queue);
                    while let Some(index) = queue.claim() {
                        queue.deposit(index, prepare_batch(batcher, dataset, config, index));
                    }
                });
                // Wait until the window is genuinely full (both slots deposited,
                // nothing consumed), so the producer is parked on `claim`.
                loop {
                    {
                        let state = queue.state.lock().expect("queue poisoned");
                        if state.slots[0].is_some() && state.slots[1].is_some() {
                            break;
                        }
                    }
                    std::thread::yield_now();
                }
                let _close = CloseOnDrop(queue);
                panic!("consumer died before taking anything");
            });
        }));
        assert!(
            unwound.is_err(),
            "the consumer's panic must propagate through the joined scope"
        );
        // The unwind closed the queue: no producer is left blocked, and no new
        // tickets flow.
        assert_eq!(queue.claim(), None);
    }
}
