//! Streamed epoch execution: the threaded half of the pipeline's one batch
//! loop, where sharded batch construction feeds a bounded, in-order staging
//! queue and the compute stage consumes behind it.
//!
//! Per batch the loop does two very different kinds of host work: *prepare*
//! (materialise the block-diagonal subgraph, gather features, bit-pack the
//! payload — embarrassingly parallel, touches no cost counter) and *execute*
//! (record the transfer, run the forward pass — must happen in epoch order for
//! deterministic accounting). When lookahead can pay off, the streamed entry
//! points split them into a two-stage pipeline, the host-side mirror of the
//! double-buffered transfer/compute overlap the paper's batched dataflow
//! relies on (§5):
//!
//! * **producer shards** run on the rayon worker pool. Each shard claims the next
//!   batch index from a shared ascending ticket, runs the supervised prepare
//!   the inline loop runs, and deposits the [`PreparedBatch`] in the staging
//!   queue. A ticket for batch `i` is only issued once `i < consumed + depth`
//!   (`depth = config.prefetch_batches`), so at most `depth` batches are ever
//!   staged or in flight — the bounded-channel discipline that caps memory at
//!   `depth` dense subgraphs;
//! * the **compute stage** (the calling thread) takes batches strictly in epoch
//!   order and runs the supervised take, the supervised dispatch and
//!   `execute_batch`, exactly as the inline loop does.
//!
//! Because prepare is pure and execute runs in the same order with the same
//! inputs, the streamed epoch's [`CostSnapshot`](qgtc_tcsim::cost::CostSnapshot)s
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

use qgtc_graph::{LoadedDataset, SubgraphScratch};
use qgtc_kernels::packing::PreparedBatch;
use qgtc_partition::PartitionBatcher;
use rayon::prelude::*;

use super::{run_epoch_on, EpochReport, Executor};
use crate::config::QgtcConfig;
use crate::fault::QgtcError;

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

/// The threaded half of the batch loop: producer shards on the rayon pool run
/// `produce` for ascending batch tickets into a bounded, in-order
/// [`StagingQueue`] of `depth` slots, while the calling thread takes every
/// batch in epoch order and hands it to `consume`.  Each shard owns one
/// [`SubgraphScratch`] for its whole run.
///
/// A typed error from `produce` fails the queue, so the consumer returns it
/// once it reaches the missing batch; a typed error from `consume` stops the
/// loop.  Either side closes the queue when it finishes or unwinds, so
/// neither can strand the other.
pub(super) fn stage_on_producers(
    total: usize,
    depth: usize,
    produce: impl Fn(usize, &mut SubgraphScratch) -> Result<PreparedBatch, QgtcError> + Sync,
    mut consume: impl FnMut(usize, PreparedBatch) -> Result<(), QgtcError>,
) -> Result<(), QgtcError> {
    let depth = depth.max(1);
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
    let produce = &produce;
    std::thread::scope(|scope| {
        let queue = &queue;
        scope.spawn(move || {
            // Close the queue when the producers drain the ticket supply — or when
            // one of them panics — so the compute stage never waits forever.
            let _close = CloseOnDrop(queue);
            (0..shards).into_par_iter().for_each(|_| {
                let mut scratch = SubgraphScratch::default();
                while let Some(index) = queue.claim() {
                    // The pool catches panics at item granularity, so an unwind
                    // here would otherwise strand ticket `index` undelivered while
                    // sibling shards keep waiting on the frozen window: close the
                    // queue first (unblocking both stages), then let the panic
                    // propagate through the pool's normal re-raise path.  A
                    // *typed* failure instead travels through the queue's error
                    // channel so the consumer returns it.
                    let produced = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        produce(index, &mut scratch)
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

        // Compute stage: strictly in epoch order, on this thread. The guard closes
        // the queue when this stage returns or panics, unblocking the producer
        // shards so the scope can join them.
        let _close = CloseOnDrop(queue);
        (0..total).try_for_each(|index| consume(index, queue.take(index)?))
    })
}

/// Run one inference epoch of `dataset` under `config` on the streamed executor.
///
/// Produces the exact cost counters of [`super::run_epoch`] (same totals, same
/// per-batch deltas — see the module docs for why) while preparing up to
/// `config.prefetch_batches` batches ahead on the rayon pool. Prepare runs
/// inline when no lookahead is possible (`prefetch_batches == 1` or a single
/// batch) or profitable (a single-core pool: two stages time-slicing one CPU
/// pay queue overhead without any overlap). The modeled transfer/compute
/// overlap in the report is unaffected by where prepare runs — it is a
/// function of the per-batch counters and `config.staging_depth()` alone.
pub fn run_epoch_streamed(dataset: &LoadedDataset, config: &QgtcConfig) -> EpochReport {
    try_run_epoch_streamed(dataset, config)
        .unwrap_or_else(|err| panic!("run_epoch_streamed: {err}"))
}

/// Fallible form of [`run_epoch_streamed`]: the streamed epoch under the fault
/// supervisor. Producer shards run the supervised prepare stage and surface an
/// unrecoverable failure through the queue's typed-error channel instead of a
/// panic; the consumer validates every delivered payload against its sealed
/// checksum (the streamed path seals unconditionally, wherever prepare runs)
/// and repairs or retries per the supervisor's policies.
pub fn try_run_epoch_streamed(
    dataset: &LoadedDataset,
    config: &QgtcConfig,
) -> Result<EpochReport, QgtcError> {
    run_epoch_on(dataset, config, None, Executor::Streamed)
}

/// Run one streamed inference epoch over an already-built batch plan (the
/// streamed analogue of [`super::run_epoch_with_plan`]; `partition_ms` is
/// reported as 0).
pub fn run_epoch_streamed_with_plan(
    dataset: &LoadedDataset,
    config: &QgtcConfig,
    batcher: &PartitionBatcher,
) -> EpochReport {
    run_epoch_on(dataset, config, Some(batcher), Executor::Streamed)
        .unwrap_or_else(|err| panic!("run_epoch_streamed_with_plan: {err}"))
}

/// The streamed schedule with an empty fault plan: no payload checksums, and
/// an active `QGTC_FAULTS` spec is deliberately ignored.  This is the
/// perfsmoke overhead baseline the supervised [`run_epoch_streamed`] is
/// measured against — the two must stay bitwise identical on fault-free runs.
/// Panics on what the supervised entry points return as a typed error.
pub fn run_epoch_streamed_raw(dataset: &LoadedDataset, config: &QgtcConfig) -> EpochReport {
    run_epoch_on(dataset, config, None, Executor::Raw)
        .unwrap_or_else(|err| panic!("run_epoch_streamed_raw: {err}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelKind;
    use crate::fault::{FaultInjector, FaultKind, FaultPlan, FaultSite, FaultSpec};
    use crate::pipeline::{prepare_batch, run_batches, run_epoch, try_build_plan, try_run_epoch};
    use qgtc_graph::DatasetProfile;
    use qgtc_kernels::pool::PackedBufferPool;

    fn tiny_dataset() -> LoadedDataset {
        DatasetProfile::PROTEINS.materialize(0.03, 7)
    }

    /// The one batch loop with prepare forced onto producer shards, so the
    /// queue is exercised even on a one-core host (where the public entry
    /// points prepare inline).
    fn threaded(
        dataset: &LoadedDataset,
        config: &QgtcConfig,
        injector: Option<&FaultInjector>,
        seal: bool,
    ) -> Result<EpochReport, QgtcError> {
        let (batcher, _) = try_build_plan(dataset, config).expect("plan builds");
        assert!(
            batcher.num_batches() > 1,
            "one batch never reaches the queue"
        );
        run_batches(dataset, config, &batcher, injector, seal, true)
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
            let streamed = threaded(&dataset, &config, None, false).unwrap();
            assert_eq!(serial.cost, streamed.cost);
            assert_eq!(serial.batch_costs, streamed.batch_costs);
            assert_eq!(serial.num_batches, streamed.num_batches);
            assert_eq!(serial.num_nodes, streamed.num_nodes);
            assert_eq!(serial.modeled_ms, streamed.modeled_ms);
            assert_eq!(serial.pipeline, streamed.pipeline);
            // The public entry must agree regardless of where it prepares.
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
            let streamed = threaded(&dataset, &config, None, false).unwrap();
            assert_eq!(reference.cost, streamed.cost, "depth {depth}");
            assert_eq!(reference.batch_costs, streamed.batch_costs, "depth {depth}");
        }
    }

    #[test]
    fn threaded_supervised_recovers_seeded_plans_like_the_inline_loop() {
        let dataset = tiny_dataset();
        let base = QgtcConfig::qgtc(ModelKind::ClusterGcn, 2).with_partitions(16, 4);
        let clean = run_epoch(&dataset, &base);
        for seed in 0..8u64 {
            let plan = FaultPlan::seeded_transient(seed, clean.num_batches, 2);
            let config = base.clone().with_fault_plan(plan.clone());
            let inline = try_run_epoch(&dataset, &config).expect("recoverable plan");
            let injector = FaultInjector::new(plan);
            let streamed =
                threaded(&dataset, &config, Some(&injector), true).expect("recoverable plan");
            assert_eq!(streamed.cost, clean.cost, "seed {seed}");
            assert_eq!(streamed.batch_costs, clean.batch_costs, "seed {seed}");
            assert!(
                inline.fault_stats.injected > 0,
                "seed {seed} injected nothing"
            );
            assert_eq!(streamed.fault_stats, inline.fault_stats, "seed {seed}");
        }
    }

    #[test]
    fn threaded_unrecoverable_prepare_fault_fails_typed_through_the_queue() {
        let dataset = tiny_dataset();
        let plan = FaultPlan::new(vec![FaultSpec {
            site: FaultSite::Prepare,
            kind: FaultKind::Transient,
            batch: 1,
            attempts: u32::MAX,
        }]);
        let config = QgtcConfig::qgtc(ModelKind::ClusterGcn, 2)
            .with_partitions(16, 4)
            .with_fault_plan(plan.clone());
        let injector = FaultInjector::new(plan);
        let err = threaded(&dataset, &config, Some(&injector), true)
            .expect_err("the prepare fault outlives the retry budget");
        assert!(
            matches!(
                err,
                QgtcError::BatchFailed {
                    batch: 1,
                    site: FaultSite::Prepare,
                    kind: FaultKind::Transient,
                    attempts,
                } if attempts as usize == config.max_batch_retries + 1
            ),
            "{err:?}"
        );
    }

    #[test]
    fn raw_and_supervised_threaded_runs_record_identical_costs() {
        let dataset = tiny_dataset();
        let config = QgtcConfig::qgtc(ModelKind::BatchedGin, 3)
            .with_partitions(16, 4)
            .with_prefetch(3);
        let raw = threaded(&dataset, &config, None, false).unwrap();
        let supervised = threaded(&dataset, &config, None, true).unwrap();
        assert_eq!(raw.cost, supervised.cost);
        assert_eq!(raw.batch_costs, supervised.batch_costs);
        assert_eq!(supervised.fault_stats, Default::default());
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
        let (batcher, _) = try_build_plan(&dataset, &config).expect("plan builds");
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
                    let mut scratch = SubgraphScratch::default();
                    while let Some(index) = queue.claim() {
                        let prepared = prepare_batch(
                            batcher,
                            dataset,
                            config,
                            index,
                            &mut PackedBufferPool::new(),
                            &mut scratch,
                        );
                        queue.deposit(index, prepared);
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
