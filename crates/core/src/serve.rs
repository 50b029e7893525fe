//! The serving front end: a long-lived [`QgtcSession`] answering inference
//! requests over one dataset.
//!
//! The epoch pipeline ([`crate::pipeline`]) is a *measurement* harness: it
//! sweeps every batch once and reports latency. A deployed model answers
//! *requests* — "what are the logits of these nodes?" — arriving continuously,
//! and re-running the whole epoch machinery per request would repeat work that
//! is constant for the session's lifetime. `QgtcSession` splits the pipeline at
//! exactly that line:
//!
//! * **once per session** — partition the graph and build the indexable batch
//!   plan, construct the model, and quantize + bit-pack every layer's weights
//!   ([`ServeStats::weight_quantizations`] stays at the layer count forever);
//! * **once per distinct batch, amortised** — materialise → gather → pack a
//!   batch's transfer payload, kept in a **payload cache** keyed by batch index
//!   (LRU, capacity [`ServeOptions::cache_capacity`]); a hit skips the whole
//!   prepare stage ([`ServeStats::cache_hits`]);
//! * **per request** — only the coalescing bookkeeping and the forward passes
//!   of the batches the request actually touches.
//!
//! Requests queue through [`QgtcSession::submit`] and are answered by
//! [`QgtcSession::drain`], which **coalesces** everything pending into
//! partition-aligned micro-batches: however many requests touch batch `b`,
//! batch `b` is prepared and executed once per drain
//! ([`ServeStats::batch_touches`] vs [`ServeStats::batches_executed`] measures
//! the win). Every buffer the prepare path needs is drawn from a
//! [`PackedBufferPool`], so once the pool is warm a drain performs **zero
//! fresh pool-managed allocations** ([`ServeStats::pool`]).
//!
//! Prepare, dispatch and execute run through the epoch loop's `prepare_batch`,
//! fault supervisors and batch step, so an injected or real fault retries,
//! repairs, or degrades the backend exactly as an epoch would.  A batch step
//! depends on its index alone: a dispatch-site backend loss at batch `j`
//! degrades every batch at or above `j`, however often and in whatever order
//! they are served, and one that exhausts the fallback chain fails every such
//! batch.  A batch whose fault cannot be absorbed **degrades instead of
//! killing the session**: its rows come back zero-filled and the affected
//! node ids are listed in [`InferResponse::degraded`], while every other batch
//! of the drain answers normally.
//!
//! Because cache hits skip only the (cost-silent) prepare stage and each
//! executed batch's cost is merged into the session's tracker, a single
//! request covering every node replays the epoch oracle exactly: same
//! transfer and kernel counters, bitwise-identical logits.
//!
//! ```
//! use qgtc_core::serve::QgtcSession;
//! use qgtc_core::graph::DatasetProfile;
//! use qgtc_core::{ModelKind, QgtcConfig};
//!
//! let dataset = DatasetProfile::PROTEINS.materialize(0.02, 7);
//! let config = QgtcConfig::qgtc(ModelKind::ClusterGcn, 2).with_partitions(8, 2);
//! let mut session = QgtcSession::new(&dataset, &config)?;
//!
//! let response = session.infer(&[0, 1, 2])?;
//! assert_eq!(response.logits.rows(), 3);
//! assert!(response.degraded.is_empty());
//!
//! let stats = session.stats();
//! assert_eq!(stats.requests, 1);
//! assert_eq!(stats.weight_quantizations, 3, "once per layer, at session build");
//! # Ok::<(), qgtc_core::QgtcError>(())
//! ```

use std::collections::BTreeMap;
use std::time::Instant;

use qgtc_gnn::models::BatchForwardOutput;
use qgtc_graph::{LoadedDataset, SubgraphScratch};
use qgtc_kernels::packing::PreparedBatch;
use qgtc_kernels::pool::{PackedBufferPool, PoolStats};
use qgtc_partition::PartitionBatcher;
use qgtc_tcsim::cost::{CostSnapshot, CostTracker};
use qgtc_tensor::Matrix;

use crate::config::QgtcConfig;
use crate::fault::{FaultInjector, FaultStats, QgtcError};
use crate::pipeline::{
    execute_batch, prepare_batch, supervise_dispatch, supervise_prepare, supervised_build_plan,
    EpochContext,
};

/// Session-construction knobs (everything else comes from [`QgtcConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    /// Maximum number of prepared batch payloads kept resident in the cache.
    /// `0` disables caching: every payload is torn down into the pool right
    /// after execution (still allocation-free once warm, but every touch pays
    /// the prepare CPU cost again).
    pub cache_capacity: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self { cache_capacity: 64 }
    }
}

impl ServeOptions {
    /// Set the payload-cache capacity (in batches).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }
}

/// Cumulative serving counters; all monotone over the session's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests accepted by [`QgtcSession::submit`].
    pub requests: u64,
    /// Node rows requested across all accepted requests.
    pub nodes_served: u64,
    /// Forward passes actually run (one per distinct batch per drain).
    pub batches_executed: u64,
    /// Distinct (request, batch) pairs — what execution would have cost
    /// without coalescing. `batch_touches > batches_executed` means drains
    /// merged overlapping requests.
    pub batch_touches: u64,
    /// Batch executions whose payload came out of the cache, each skipping a
    /// full prepare stage (materialise → gather → pack).
    pub cache_hits: u64,
    /// Batch executions that had to prepare the payload.
    pub cache_misses: u64,
    /// Payloads evicted (and recycled into the pool) to respect
    /// [`ServeOptions::cache_capacity`].
    pub cache_evictions: u64,
    /// Batches that could not be executed and came back zero-filled
    /// (see [`InferResponse::degraded`]).
    pub degraded_batches: u64,
    /// What the config's fault plan injected and how the supervisors absorbed
    /// it, tallied like an epoch's
    /// [`EpochReport::fault_stats`](crate::EpochReport::fault_stats); all
    /// zero without a plan.  A session serves batches in any order, so it
    /// names no `degraded_backend`.
    pub faults: FaultStats,
    /// Weight-quantization passes since the session was built: the model's
    /// layer count on the low-bit path (stamped once, at construction), 0
    /// otherwise — never `requests × layers`.
    pub weight_quantizations: u64,
    /// The packed-buffer pool's allocation counters. In steady state
    /// `pool.fresh_allocations` stays flat across drains.
    pub pool: PoolStats,
}

/// One answered inference request.
#[derive(Debug, Clone)]
pub struct InferResponse {
    /// The ticket [`QgtcSession::submit`] returned for this request.
    pub ticket: u64,
    /// The requested global node ids, in request order (row `i` of `logits`
    /// belongs to `node_ids[i]`).
    pub node_ids: Vec<usize>,
    /// Per-node class logits, `node_ids.len() × num_classes`.
    pub logits: Matrix<f32>,
    /// Node ids whose batch failed unrecoverably this drain: their logit rows
    /// are zero-filled. Empty on a fully healthy drain.
    pub degraded: Vec<usize>,
}

struct CacheEntry {
    prepared: PreparedBatch,
    last_used: u64,
}

struct PendingRequest {
    ticket: u64,
    node_ids: Vec<usize>,
}

/// A long-lived serving session over one `(dataset, config)` pair.
///
/// See the [module docs](self) for the serving model; the quickstart lives
/// there too.
pub struct QgtcSession<'a> {
    dataset: &'a LoadedDataset,
    config: &'a QgtcConfig,
    options: ServeOptions,
    batcher: PartitionBatcher,
    /// Batch index of each global node (`u32::MAX` = not covered by the plan).
    node_batch: Vec<u32>,
    /// Row of each global node inside its batch's block-diagonal subgraph.
    node_row: Vec<u32>,
    ctx: EpochContext<'a>,
    injector: Option<FaultInjector>,
    cache: Vec<Option<CacheEntry>>,
    cached_count: usize,
    clock: u64,
    pool: PackedBufferPool,
    scratch: SubgraphScratch,
    /// Every executed batch's cost, merged.
    cost: CostTracker,
    stats: ServeStats,
    pending: Vec<PendingRequest>,
    next_ticket: u64,
    num_classes: usize,
}

impl<'a> QgtcSession<'a> {
    /// Build a session with the default [`ServeOptions`].
    ///
    /// This is where everything request-invariant happens exactly once:
    /// partitioning + batch planning (under the partition-site fault
    /// supervisor), model construction, and — on the low-bit QGTC path — the
    /// per-layer weight quantization.
    pub fn new(dataset: &'a LoadedDataset, config: &'a QgtcConfig) -> Result<Self, QgtcError> {
        Self::with_options(dataset, config, ServeOptions::default())
    }

    /// [`QgtcSession::new`] with explicit [`ServeOptions`].
    pub fn with_options(
        dataset: &'a LoadedDataset,
        config: &'a QgtcConfig,
        options: ServeOptions,
    ) -> Result<Self, QgtcError> {
        let injector = FaultInjector::from_config(config);
        let (batcher, _shards) = supervised_build_plan(dataset, config, injector.as_ref())?;
        let num_nodes = dataset.graph.num_nodes();
        // Invert the plan once: node -> (batch, row inside the batch's
        // block-diagonal subgraph), so routing a request is O(nodes requested).
        let mut node_batch = vec![u32::MAX; num_nodes];
        let mut node_row = vec![u32::MAX; num_nodes];
        for batch in batcher.batches() {
            let mut row = 0u32;
            for part in &batch.partitions {
                for &node in part {
                    node_batch[node] = batch.batch_index as u32;
                    node_row[node] = row;
                    row += 1;
                }
            }
        }
        let ctx = EpochContext::new(dataset, config);
        let stats = ServeStats {
            weight_quantizations: ctx.weight_quantize_calls(),
            ..ServeStats::default()
        };
        let cache = (0..batcher.num_batches()).map(|_| None).collect();
        Ok(Self {
            dataset,
            config,
            options,
            batcher,
            node_batch,
            node_row,
            ctx,
            injector,
            cache,
            cached_count: 0,
            clock: 0,
            pool: PackedBufferPool::new(),
            scratch: SubgraphScratch::default(),
            cost: CostTracker::new(),
            stats,
            pending: Vec::new(),
            next_ticket: 0,
            num_classes: dataset.profile.num_classes.max(2),
        })
    }

    /// Enqueue a request without serving it; the returned ticket identifies its
    /// [`InferResponse`] in a later [`QgtcSession::drain`]. Rejects (typed,
    /// without poisoning the queue) any node the partition plan does not cover.
    pub fn submit(&mut self, node_ids: Vec<usize>) -> Result<u64, QgtcError> {
        for &node in &node_ids {
            if node >= self.node_batch.len() || self.node_batch[node] == u32::MAX {
                return Err(QgtcError::UnknownNode { node });
            }
        }
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.stats.requests += 1;
        self.stats.nodes_served += node_ids.len() as u64;
        self.pending.push(PendingRequest { ticket, node_ids });
        Ok(ticket)
    }

    /// Serve one request on its own, immediately: the convenience path for
    /// callers that do not batch their own traffic. Requests already queued by
    /// [`QgtcSession::submit`] are neither served nor answered here; they stay
    /// pending for the caller's next [`QgtcSession::drain`].
    pub fn infer(&mut self, node_ids: &[usize]) -> Result<InferResponse, QgtcError> {
        let mut buffer = self.request_buffer();
        buffer.extend_from_slice(node_ids);
        let queued = std::mem::take(&mut self.pending);
        let served = self.submit(buffer).and_then(|_| self.drain());
        self.pending = queued;
        Ok(served?
            .pop()
            .expect("drain answers its one pending request"))
    }

    /// Serve everything pending: coalesce the queued requests into
    /// partition-aligned micro-batches, execute each distinct batch once (in
    /// ascending batch order), and scatter the logit rows back out per
    /// request. Returns one [`InferResponse`] per pending request, in
    /// submission order.
    ///
    /// Batch-scoped failures degrade (zero-filled rows, listed in
    /// [`InferResponse::degraded`]) rather than erroring: the session stays
    /// serviceable, matching the supervisor's graceful-degradation contract.
    pub fn drain(&mut self) -> Result<Vec<InferResponse>, QgtcError> {
        let pending = std::mem::take(&mut self.pending);
        if pending.is_empty() {
            return Ok(Vec::new());
        }
        // Coalesce: batch -> [(request, response row, batch row)], request-major
        // so distinct-request runs can be counted without allocating.
        let mut routes: BTreeMap<usize, Vec<(usize, usize, usize)>> = BTreeMap::new();
        for (request, req) in pending.iter().enumerate() {
            for (out_row, &node) in req.node_ids.iter().enumerate() {
                let batch = self.node_batch[node] as usize;
                let row = self.node_row[node] as usize;
                routes
                    .entry(batch)
                    .or_default()
                    .push((request, out_row, row));
            }
        }
        // Zero-filled response buffers (pool-backed): degraded rows stay zero.
        let mut buffers: Vec<Vec<f32>> = Vec::with_capacity(pending.len());
        let mut degraded: Vec<Vec<usize>> = Vec::with_capacity(pending.len());
        for req in &pending {
            let mut buffer = self.pool.take_floats();
            buffer.clear();
            buffer.resize(req.node_ids.len() * self.num_classes, 0.0);
            buffers.push(buffer);
            let mut list = self.pool.take_indices();
            list.clear();
            degraded.push(list);
        }
        for (&batch, rows) in &routes {
            let mut last_request = usize::MAX;
            for &(request, _, _) in rows {
                if request != last_request {
                    self.stats.batch_touches += 1;
                    last_request = request;
                }
            }
            match self.execute_serving_batch(batch) {
                Ok(output) => {
                    for &(request, out_row, batch_row) in rows {
                        let start = out_row * self.num_classes;
                        buffers[request][start..start + self.num_classes]
                            .copy_from_slice(output.logits.row(batch_row));
                    }
                    // The logits come from the forward pass, not from the
                    // pool: parking them would grow the free list by one
                    // buffer per executed batch.
                }
                Err(_) => {
                    // The supervisor already retried/repaired what it could;
                    // degrade this batch and keep the session alive.
                    self.stats.degraded_batches += 1;
                    for &(request, out_row, _) in rows {
                        degraded[request].push(pending[request].node_ids[out_row]);
                    }
                }
            }
        }
        let mut responses = Vec::with_capacity(pending.len());
        for ((req, buffer), degraded) in pending.into_iter().zip(buffers).zip(degraded) {
            let rows = req.node_ids.len();
            let logits = Matrix::from_vec(rows, self.num_classes, buffer)
                .expect("buffer sized rows × num_classes above");
            responses.push(InferResponse {
                ticket: req.ticket,
                node_ids: req.node_ids,
                logits,
                degraded,
            });
        }
        Ok(responses)
    }

    /// Execute one batch: payload from the cache when possible, otherwise a
    /// pool-backed supervised prepare; then the supervised dispatch + forward
    /// pass, whose cost is merged into the session's. The payload goes (back)
    /// into the cache either way, so a dispatch failure does not forfeit the
    /// prepare work.
    fn execute_serving_batch(&mut self, index: usize) -> Result<BatchForwardOutput, QgtcError> {
        let prepared = match self.take_cached(index) {
            Some(prepared) => {
                // Payloads are verified at insert time (the supervised take
                // stage), not re-verified per hit: the cache is process-local
                // memory, not a transport.
                self.stats.cache_hits += 1;
                prepared
            }
            None => {
                self.stats.cache_misses += 1;
                let (batcher, dataset, config) = (&self.batcher, self.dataset, self.config);
                let (pool, scratch) = (&mut self.pool, &mut self.scratch);
                // The epoch's prepare, drawing every buffer from the session's
                // pool (so a warm session prepares allocation-free).
                supervise_prepare(self.injector.as_ref(), index, || {
                    prepare_batch(batcher, dataset, config, index, pool, scratch)
                })?
            }
        };
        let result = supervise_dispatch(self.config, self.injector.as_ref(), index)
            .and_then(|backend| execute_batch(&self.ctx, &prepared, backend));
        self.store_cache(index, prepared);
        let (output, cost) = result?.expect("serving batches are non-empty: a node routed here");
        self.cost.merge_snapshot(&cost);
        self.stats.batches_executed += 1;
        Ok(output)
    }

    fn take_cached(&mut self, index: usize) -> Option<PreparedBatch> {
        let entry = self.cache[index].take()?;
        self.cached_count -= 1;
        Some(entry.prepared)
    }

    fn store_cache(&mut self, index: usize, prepared: PreparedBatch) {
        if self.options.cache_capacity == 0 {
            prepared.recycle_into(&mut self.pool);
            return;
        }
        self.clock += 1;
        debug_assert!(self.cache[index].is_none(), "taken at execute time");
        self.cache[index] = Some(CacheEntry {
            prepared,
            last_used: self.clock,
        });
        self.cached_count += 1;
        while self.cached_count > self.options.cache_capacity {
            let victim = self
                .cache
                .iter()
                .enumerate()
                .filter_map(|(i, entry)| entry.as_ref().map(|e| (e.last_used, i)))
                .min()
                .map(|(_, i)| i)
                .expect("cached_count > capacity > 0 entries exist");
            let entry = self.cache[victim].take().expect("victim located above");
            self.cached_count -= 1;
            self.stats.cache_evictions += 1;
            entry.prepared.recycle_into(&mut self.pool);
        }
    }

    /// A (pool-recycled) buffer to build a request's node list in; hand it to
    /// [`QgtcSession::submit`] to keep steady-state submission allocation-free.
    pub fn request_buffer(&mut self) -> Vec<usize> {
        let mut buffer = self.pool.take_indices();
        buffer.clear();
        buffer
    }

    /// Return a response's buffers to the pool once its contents are consumed.
    pub fn recycle_response(&mut self, response: InferResponse) {
        self.pool.put_floats(response.logits.into_data());
        self.pool.put_indices(response.node_ids);
        self.pool.put_indices(response.degraded);
    }

    /// Cumulative serving counters (pool and fault counters refreshed).
    pub fn stats(&self) -> ServeStats {
        let mut stats = self.stats;
        stats.pool = self.pool.stats();
        stats.faults = self
            .injector
            .as_ref()
            .map(FaultInjector::stats)
            .unwrap_or_default();
        stats
    }

    /// Accumulated cost counters across every executed batch — directly
    /// comparable to an [`crate::pipeline::EpochReport`]'s `cost` when the
    /// session has executed the same batches.
    pub fn cost_snapshot(&self) -> CostSnapshot {
        self.cost.snapshot()
    }

    /// Number of batches in the session's (fixed) plan.
    pub fn num_batches(&self) -> usize {
        self.batcher.num_batches()
    }

    /// Requests submitted but not yet drained.
    pub fn pending_requests(&self) -> usize {
        self.pending.len()
    }

    /// Batch payloads currently resident in the cache.
    pub fn cached_batches(&self) -> usize {
        self.cached_count
    }

    /// Spare buffers parked in the session's packed-buffer pool.  Once the
    /// pool is warm this stays flat for callers that recycle their responses
    /// ([`QgtcSession::recycle_response`]).
    pub fn pool_spare_buffers(&self) -> usize {
        self.pool.spare_buffers()
    }
}

/// A deterministic open-loop request source: request `i` arrives at
/// `i × interarrival_ms` on a virtual clock, regardless of how fast the
/// session serves — the standard serving-benchmark arrival model, where
/// latency includes queueing delay when the session falls behind.
#[derive(Debug, Clone, Copy)]
pub struct LoadGenerator {
    /// Seed for the node sampler (SplitMix64 per request index).
    pub seed: u64,
    /// Total requests to issue.
    pub requests: usize,
    /// Nodes per request.
    pub nodes_per_request: usize,
    /// Virtual milliseconds between consecutive arrivals.
    pub interarrival_ms: f64,
}

impl LoadGenerator {
    /// Arrival time of request `index` on the virtual clock.
    pub fn arrival_ms(&self, index: usize) -> f64 {
        index as f64 * self.interarrival_ms
    }

    /// Fill `out` with request `index`'s node ids — pure in `(self, index)`,
    /// so any two runs (and any two probes) draw identical traffic.
    pub fn fill_request(&self, index: usize, num_nodes: usize, out: &mut Vec<usize>) {
        out.clear();
        let mut x = self.seed ^ (index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for _ in 0..self.nodes_per_request {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            out.push((z % num_nodes.max(1) as u64) as usize);
        }
    }
}

/// Latency distribution and throughput of one [`run_open_loop`] run.
#[derive(Debug, Clone, Copy)]
pub struct LatencySummary {
    /// Requests served.
    pub requests: usize,
    /// Median request latency (arrival → response) in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency in milliseconds.
    pub p99_ms: f64,
    /// Served requests per second of virtual time.
    pub throughput_rps: f64,
    /// Virtual time from first arrival to last response, in milliseconds.
    pub wall_ms: f64,
}

/// Drive `session` with `load` on a virtual open-loop clock.
///
/// Arrivals advance on the generator's fixed schedule; service time is the
/// *measured* wall time of each [`QgtcSession::drain`]. A drain serves every
/// request that has arrived by the time it starts, so requests landing while a
/// drain is in flight coalesce into the next one — exactly how a serving
/// thread behind a queue behaves, and the mechanism that makes the coalescing
/// machinery earn its keep under burst pressure.
///
/// An interval that is NaN, infinite or negative, or so large that a later
/// arrival overflows `f64`, leaves no clock to advance:
/// [`QgtcError::InvalidConfig`], before any request is submitted.
pub fn run_open_loop(
    session: &mut QgtcSession<'_>,
    load: &LoadGenerator,
) -> Result<LatencySummary, QgtcError> {
    let last_arrival = load.arrival_ms(load.requests.saturating_sub(1));
    if !(load.interarrival_ms >= 0.0
        && load.interarrival_ms.is_finite()
        && last_arrival.is_finite())
    {
        return Err(QgtcError::InvalidConfig(format!(
            "interarrival_ms must be finite and non-negative, with every arrival finite (got {} \
             over {} requests)",
            load.interarrival_ms, load.requests
        )));
    }
    let num_nodes = session.dataset.graph.num_nodes();
    let mut latencies: Vec<f64> = Vec::with_capacity(load.requests);
    let mut arrivals: Vec<f64> = Vec::new();
    let mut now_ms = 0.0_f64;
    let mut next = 0usize;
    while next < load.requests {
        if load.arrival_ms(next) > now_ms {
            // Idle: jump the clock to the next arrival.
            now_ms = load.arrival_ms(next);
        }
        arrivals.clear();
        while next < load.requests && load.arrival_ms(next) <= now_ms {
            let mut buffer = session.request_buffer();
            load.fill_request(next, num_nodes, &mut buffer);
            session.submit(buffer)?;
            arrivals.push(load.arrival_ms(next));
            next += 1;
        }
        let start = Instant::now();
        let responses = session.drain()?;
        now_ms += start.elapsed().as_secs_f64() * 1e3;
        for response in responses {
            session.recycle_response(response);
        }
        for &arrival in &arrivals {
            latencies.push(now_ms - arrival);
        }
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let percentile = |p: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let index = ((p / 100.0) * (latencies.len() - 1) as f64).round() as usize;
        latencies[index]
    };
    Ok(LatencySummary {
        requests: load.requests,
        p50_ms: percentile(50.0),
        p99_ms: percentile(99.0),
        throughput_rps: if now_ms > 0.0 {
            load.requests as f64 / (now_ms / 1e3)
        } else {
            0.0
        },
        wall_ms: now_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelKind;
    use crate::fault::{FaultKind, FaultPlan, FaultSite, FaultSpec};
    use crate::pipeline::run_epoch;
    use qgtc_graph::DatasetProfile;

    fn tiny_dataset() -> LoadedDataset {
        DatasetProfile::PROTEINS.materialize(0.03, 7)
    }

    fn tiny_config() -> QgtcConfig {
        QgtcConfig::qgtc(ModelKind::ClusterGcn, 2).with_partitions(16, 4)
    }

    fn all_nodes(dataset: &LoadedDataset) -> Vec<usize> {
        (0..dataset.graph.num_nodes()).collect()
    }

    #[test]
    fn unknown_node_is_a_typed_error_and_session_survives() {
        let dataset = tiny_dataset();
        let config = tiny_config();
        let mut session = QgtcSession::new(&dataset, &config).unwrap();
        let bogus = dataset.graph.num_nodes() + 5;
        match session.submit(vec![0, bogus]) {
            Err(QgtcError::UnknownNode { node }) => assert_eq!(node, bogus),
            other => panic!("expected UnknownNode, got {other:?}"),
        }
        assert_eq!(session.pending_requests(), 0, "rejected request not queued");
        let response = session.infer(&[0, 1]).unwrap();
        assert_eq!(response.logits.rows(), 2);
    }

    #[test]
    fn infer_leaves_earlier_submissions_for_the_next_drain() {
        let dataset = tiny_dataset();
        let config = tiny_config();
        let mut session = QgtcSession::new(&dataset, &config).unwrap();
        let queued = [1usize, 7, 30];
        let ticket = session.submit(queued.to_vec()).unwrap();
        let own = session.infer(&[2, 5]).unwrap();
        assert_eq!(own.node_ids, vec![2, 5]);
        assert_eq!(session.pending_requests(), 1, "the submission stays queued");
        let drained = session.drain().unwrap();
        assert_eq!(drained.len(), 1, "the drain answers the earlier submission");
        assert_eq!(drained[0].ticket, ticket);
        let alone = session.infer(&queued).unwrap();
        assert_eq!(drained[0].logits, alone.logits, "bitwise equal answers");
    }

    #[test]
    fn full_sweep_request_replays_the_epoch_oracle_cost() {
        let dataset = tiny_dataset();
        let config = tiny_config();
        let mut session = QgtcSession::new(&dataset, &config).unwrap();
        let response = session.infer(&all_nodes(&dataset)).unwrap();
        assert!(response.degraded.is_empty());
        let report = run_epoch(&dataset, &config);
        assert_eq!(
            session.cost_snapshot(),
            report.cost,
            "one request over every node must record exactly one epoch of work"
        );
        assert_eq!(
            session.stats().batches_executed as usize,
            report.num_batches
        );
        assert_eq!(
            session.stats().weight_quantizations,
            report.weight_quantizations
        );
    }

    #[test]
    fn cache_hits_are_bitwise_identical_to_misses_and_skip_prepares() {
        let dataset = tiny_dataset();
        let config = tiny_config();
        let mut session = QgtcSession::new(&dataset, &config).unwrap();
        let nodes = [0usize, 3, 11, 20];
        let miss = session.infer(&nodes).unwrap();
        let cold = session.stats();
        assert_eq!(cold.cache_hits, 0, "first touch cannot hit");
        let hit = session.infer(&nodes).unwrap();
        let warm = session.stats();
        assert!(
            warm.cache_hits > 0,
            "second touch must hit the payload cache"
        );
        assert_eq!(
            warm.cache_misses, cold.cache_misses,
            "no new prepares on the hit path"
        );
        assert_eq!(
            miss.logits, hit.logits,
            "hit and miss answers are bitwise equal"
        );
    }

    #[test]
    fn steady_state_serving_allocates_nothing_fresh_from_the_pool() {
        let dataset = tiny_dataset();
        let config = tiny_config();
        let mut session = QgtcSession::new(&dataset, &config).unwrap();
        let nodes = all_nodes(&dataset);
        // Warm-up: populate the cache and size every pool buffer.
        for _ in 0..2 {
            let response = session.infer(&nodes).unwrap();
            session.recycle_response(response);
        }
        let warm = session.stats().pool.fresh_allocations;
        for _ in 0..3 {
            let response = session.infer(&nodes).unwrap();
            session.recycle_response(response);
        }
        assert_eq!(
            session.stats().pool.fresh_allocations,
            warm,
            "warm serving must run entirely on recycled buffers"
        );
        assert!(session.stats().pool.reuses > 0);
    }

    #[test]
    fn coalescing_executes_shared_batches_once() {
        let dataset = tiny_dataset();
        let config = tiny_config();
        let mut session = QgtcSession::new(&dataset, &config).unwrap();
        // Three requests over the same nodes: one batch set, three touches each.
        for _ in 0..3 {
            session.submit(vec![0, 1, 2]).unwrap();
        }
        let responses = session.drain().unwrap();
        assert_eq!(responses.len(), 3);
        assert_eq!(responses[0].logits, responses[1].logits);
        assert_eq!(responses[1].logits, responses[2].logits);
        let stats = session.stats();
        assert_eq!(
            stats.batch_touches,
            3 * stats.batches_executed,
            "every batch was wanted thrice but executed once"
        );
    }

    #[test]
    fn capacity_zero_disables_caching_but_still_serves() {
        let dataset = tiny_dataset();
        let config = tiny_config();
        let mut session = QgtcSession::with_options(
            &dataset,
            &config,
            ServeOptions::default().with_cache_capacity(0),
        )
        .unwrap();
        let first = session.infer(&[0, 1]).unwrap();
        let second = session.infer(&[0, 1]).unwrap();
        assert_eq!(first.logits, second.logits);
        let stats = session.stats();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(session.cached_batches(), 0);
    }

    #[test]
    fn eviction_respects_capacity_and_recycles() {
        let dataset = tiny_dataset();
        let config = tiny_config();
        let mut session = QgtcSession::with_options(
            &dataset,
            &config,
            ServeOptions::default().with_cache_capacity(1),
        )
        .unwrap();
        assert!(session.num_batches() > 1, "need >1 batch to force eviction");
        let response = session.infer(&all_nodes(&dataset)).unwrap();
        session.recycle_response(response);
        let stats = session.stats();
        assert!(stats.cache_evictions > 0);
        assert_eq!(session.cached_batches(), 1);
    }

    #[test]
    fn unrecoverable_batch_fault_degrades_without_killing_the_session() {
        let dataset = tiny_dataset();
        // Batch 0 fails its prepare more times than the retry budget allows.
        let config = tiny_config().with_fault_plan(FaultPlan::new(vec![FaultSpec {
            site: FaultSite::Prepare,
            kind: FaultKind::Transient,
            batch: 0,
            attempts: u32::MAX,
        }]));
        let mut session = QgtcSession::new(&dataset, &config).unwrap();
        let response = session.infer(&all_nodes(&dataset)).unwrap();
        assert!(
            !response.degraded.is_empty(),
            "batch 0's nodes must be reported degraded"
        );
        for &node in &response.degraded {
            let row = response
                .node_ids
                .iter()
                .position(|&n| n == node)
                .expect("degraded node was requested");
            assert!(
                response.logits.row(row).iter().all(|&v| v == 0.0),
                "degraded rows are zero-filled"
            );
        }
        let stats = session.stats();
        assert_eq!(stats.degraded_batches, 1);
        // Healthy batches still answered: a node outside batch 0 is served.
        let healthy = (0..dataset.graph.num_nodes())
            .find(|&n| !response.degraded.contains(&n))
            .expect("some batch is healthy");
        let follow_up = session.infer(&[healthy]).unwrap();
        assert!(follow_up.degraded.is_empty());
    }

    #[test]
    fn open_loop_rejects_an_interval_its_clock_cannot_advance_by() {
        let dataset = tiny_dataset();
        let config = tiny_config();
        let mut session = QgtcSession::new(&dataset, &config).unwrap();
        // NaN and +inf put request 0 at NaN (0 × inf), which neither branch of
        // the loop advances past; f64::MAX puts request 2 past f64's range.
        for interarrival_ms in [f64::NAN, f64::INFINITY, -1.0, f64::MAX] {
            let load = LoadGenerator {
                seed: 1,
                requests: 3,
                nodes_per_request: 2,
                interarrival_ms,
            };
            match run_open_loop(&mut session, &load) {
                Err(QgtcError::InvalidConfig(message)) => {
                    assert!(message.contains("interarrival_ms"), "{message}")
                }
                other => panic!("{interarrival_ms}: expected InvalidConfig, got {other:?}"),
            }
        }
        assert_eq!(session.stats().requests, 0, "nothing was submitted");
    }

    #[test]
    fn load_generator_is_deterministic_and_open_loop_reports_latency() {
        let dataset = tiny_dataset();
        let config = tiny_config();
        let load = LoadGenerator {
            seed: 42,
            requests: 12,
            nodes_per_request: 6,
            interarrival_ms: 0.05,
        };
        let mut a = Vec::new();
        let mut b = Vec::new();
        load.fill_request(3, dataset.graph.num_nodes(), &mut a);
        load.fill_request(3, dataset.graph.num_nodes(), &mut b);
        assert_eq!(a, b, "traffic is a pure function of (seed, index)");
        assert!(a.iter().all(|&n| n < dataset.graph.num_nodes()));

        let mut session = QgtcSession::new(&dataset, &config).unwrap();
        let summary = run_open_loop(&mut session, &load).unwrap();
        assert_eq!(summary.requests, 12);
        assert!(summary.p50_ms <= summary.p99_ms);
        assert!(summary.p99_ms > 0.0);
        assert!(summary.throughput_rps > 0.0);
        assert_eq!(session.stats().requests, 12);
        assert_eq!(session.pending_requests(), 0);
    }
}
