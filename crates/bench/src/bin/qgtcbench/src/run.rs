//! One workload, one process: set up, check correctness, measure.
//!
//! The untraced run reports the end-to-end metrics; the traced run
//! (`--trace`) is a separate, shorter pass that records spans around each
//! layer's public call and reports the per-layer metrics computed from
//! them. Both runs pass the same correctness gate first.

use std::time::Instant;

use qgtc_core::gnn::models::{QuantizationSetting, QuantizedWeightSet};
use qgtc_core::gnn::{BatchedGinModel, ClusterGcnModel, GnnModel};
use qgtc_core::graph::LoadedDataset;
use qgtc_core::kernels::backend::BackendChoice;
use qgtc_core::kernels::bmm::{qgtc_aggregate_prepared, resolve_adjacency_path, AdjacencyPath};
use qgtc_core::kernels::packing::{PreparedBatch, TransferStrategy};
use qgtc_core::partition::{partition_quality, PartitionBatcher};
use qgtc_core::serve::QgtcSession;
use qgtc_core::tcsim::cost::CostTracker;
use qgtc_core::tensor::Matrix;
use qgtc_core::{try_build_plan, try_run_epoch_with_plan, EpochReport, ModelKind, QgtcConfig};

use crate::host;
use crate::stats::{median, min_samples, nearest_rank, samples_beyond, sorted};
use crate::trace::{Clock, Recorder, Span};
use crate::workload::{dataset_seed, Mode, ServeSpec, TrafficGen, Workload};

/// The replayed stages that make up a batch's share of an epoch.
const STAGES: [&str; 4] = [
    "graph.materialise",
    "graph.gather",
    "packing.pack",
    "gnn.forward",
];
/// Setup builds per untraced run; `setup_s` is their median.
const SETUP_BUILDS: usize = 7;
/// The percentile of the latency that carries a regression bound. On a
/// shared host, neighbours slow the CPU in bursts; the fastest tenth of a
/// run's epochs or requests falls in the quiet moments every run has, so it
/// moves with the code and hardly with the neighbours (a quartile spread of
/// 3–7% over ten seeded runs, where the median's reached 14% and p90's 25%).
const FAST_PCT: f64 = 10.0;
/// The tail percentile reported next to it and limited by the rate search:
/// the highest standard percentile that keeps ten samples beyond it at the
/// smallest sample count a run may end with (100).
const TAIL_PCT: f64 = 90.0;
/// Share of a serving run's `--seconds` spent in rounds at the nominal rate;
/// the rate search is a fixed number of rounds on top.
const NOMINAL_SHARE: f64 = 0.5;
/// The epoch loop, short of its minimum sample count, keeps going, but
/// never past this multiple of its time budget.
const MAX_OVERRUN: f64 = 4.0;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// What one run measured and whether its outputs were right.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Exactly the declared metrics of the run's mode.
    pub metrics: Vec<Metric>,
    /// Context printed next to the metrics: modeled times, sample counts,
    /// the rate-search steps.
    pub extras: Vec<Metric>,
    /// Chrome trace-event JSON of a traced run.
    pub trace_json: Option<String>,
}

/// Checks and units of work of a run, and how many of them failed.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Everything setup builds that outlives it.
struct Ctx {
    w: Workload,
    config: QgtcConfig,
    dataset: LoadedDataset,
    plan: PartitionBatcher,
    model: GnnModel,
    weights: QuantizedWeightSet,
    setting: QuantizationSetting,
    num_classes: usize,
}

/// Setup, returning what it built and `setup_s`: materialise the dataset,
/// then build the plan (epoch workloads) or a session (serving workloads).
/// A serving workload's own plan (for its traffic and the gate), the model
/// and the weights are built outside the timed part, each under its span.
fn setup(w: &Workload, seed: u64, rec: &mut Recorder) -> Result<(Ctx, f64), String> {
    let config = w.config();
    let root = rec.open("setup", None);
    let (dataset, mut setup_ms) = rec.time("setup.dataset", root, || {
        w.profile.materialize(w.scale, dataset_seed(seed))
    });
    if matches!(w.mode, Mode::Serve(_)) {
        let (session, ms) = rec.time("serve.session", root, || {
            QgtcSession::new(&dataset, &config)
        });
        drop(session.map_err(err)?);
        setup_ms += ms;
    }
    let (plan, ms) = rec.time("partition.plan", root, || try_build_plan(&dataset, &config));
    let (plan, _) = plan.map_err(err)?;
    if w.mode == Mode::Epoch {
        setup_ms += ms;
    }
    rec.close(root);
    // The model exactly as the pipeline builds it.
    let feature_dim = dataset.features.cols();
    let num_classes = dataset.profile.num_classes.max(2);
    let model = match w.model {
        ModelKind::ClusterGcn => {
            GnnModel::ClusterGcn(ClusterGcnModel::new(feature_dim, num_classes, config.seed))
        }
        ModelKind::BatchedGin => {
            GnnModel::BatchedGin(BatchedGinModel::new(feature_dim, num_classes, config.seed))
        }
    };
    let (weights, _) = rec.time("gnn.weights", None, || model.prepare_weights(w.bits.min(8)));
    let ctx = Ctx {
        w: w.clone(),
        setting: QuantizationSetting::from_bits(w.bits),
        config,
        dataset,
        plan,
        model,
        weights,
        num_classes,
    };
    Ok((ctx, setup_ms / 1e3))
}

/// The setup builds `setup_s` is the median of. The first is the run's own;
/// the rest are spread over the measurement, between units of work, so that
/// the median samples the host over the whole run (a shared host's speed
/// changes from second to second) rather than during its first second.
struct SetupTimes<'a> {
    w: &'a Workload,
    seed: u64,
    times: Vec<f64>,
    every_s: f64,
    last: Instant,
}

impl<'a> SetupTimes<'a> {
    fn new(w: &'a Workload, seed: u64, first_s: f64, seconds: f64) -> Self {
        Self {
            w,
            seed,
            times: vec![first_s],
            every_s: seconds / SETUP_BUILDS as f64,
            last: Instant::now(),
        }
    }

    fn build(&mut self) -> Result<(), String> {
        let (_, setup_s) = setup(self.w, self.seed, &mut Recorder::new(false))?;
        self.times.push(setup_s);
        self.last = Instant::now();
        Ok(())
    }

    /// Build once more if a build is due.
    fn tick(&mut self) -> Result<(), String> {
        if self.times.len() < SETUP_BUILDS && self.last.elapsed().as_secs_f64() >= self.every_s {
            self.build()?;
        }
        Ok(())
    }

    /// Make the builds the measurement left over; the median.
    fn finish(mut self) -> Result<f64, String> {
        while self.times.len() < SETUP_BUILDS {
            self.build()?;
        }
        Ok(median(&self.times))
    }
}

/// Per-node reference logits: the portable-backend `forward_quantized_batch`
/// of each batch, scattered to node order.
struct Oracle {
    logits: Vec<f32>,
    classes: usize,
}

impl Oracle {
    fn build(ctx: &Ctx) -> Self {
        let mut kernel = ctx.config.kernel;
        kernel.backend = BackendChoice::Portable;
        let classes = ctx.num_classes;
        let mut logits = vec![f32::NAN; ctx.dataset.graph.num_nodes() * classes];
        for batch in ctx.plan.batches() {
            let sub = batch.to_dense_block_diagonal(&ctx.dataset.graph);
            let features = sub.gather_features(&ctx.dataset.features);
            let tracker = CostTracker::new();
            let out = match &ctx.model {
                GnnModel::ClusterGcn(m) => {
                    m.forward_quantized_batch(&sub, &features, ctx.setting, &kernel, &tracker)
                }
                GnnModel::BatchedGin(m) => {
                    m.forward_quantized_batch(&sub, &features, ctx.setting, &kernel, &tracker)
                }
            };
            for (row, &node) in sub.nodes.iter().enumerate() {
                logits[node * classes..(node + 1) * classes].copy_from_slice(out.logits.row(row));
            }
        }
        Self { logits, classes }
    }

    /// Bitwise equality of `logits` row `r` with node `nodes[r]`'s reference.
    fn matches(&self, nodes: &[usize], logits: &Matrix<f32>) -> bool {
        logits.rows() == nodes.len()
            && logits.cols() == self.classes
            && nodes.iter().enumerate().all(|(r, &node)| {
                let reference = &self.logits[node * self.classes..(node + 1) * self.classes];
                logits
                    .row(r)
                    .iter()
                    .zip(reference)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
            })
    }
}

/// Computed sums over one stage replay of every plan batch (times come from
/// the spans).
#[derive(Debug, Default)]
struct Replay {
    batches: usize,
    rows: usize,
    dense_bytes: f64,
    payload_bytes: f64,
    compression: f64,
    words_total: u64,
    words_skipped: u64,
    bitops: f64,
    bytes_moved: f64,
}

/// Replay every batch stage by stage through the layers' public calls:
/// materialise → gather → pack → forward, then the layer-1 aggregation on
/// the payload with a fresh tracker. Forward logits are checked against the
/// oracle.
fn replay(ctx: &Ctx, oracle: &Oracle, rec: &mut Recorder, tally: &mut Tally) -> Replay {
    let mut out = Replay::default();
    let root = rec.open("replay", None);
    let bits = ctx.w.bits.min(8);
    for batch in ctx.plan.batches() {
        let parent = rec.open("replay.batch", root);
        let (sub, _) = rec.time(STAGES[0], parent, || {
            batch.to_dense_block_diagonal(&ctx.dataset.graph)
        });
        let (features, _) = rec.time(STAGES[1], parent, || {
            sub.gather_features(&ctx.dataset.features)
        });
        let (n, d) = (sub.num_nodes(), features.cols());
        let nodes = sub.nodes.clone();
        let (prepared, _) = rec.time(STAGES[2], parent, || {
            let mut p = PreparedBatch::pack_quantized(batch.batch_index, sub, features, bits);
            // The pipeline's prepare-time condensation rule.
            if let Some(payload) = p.payload.as_mut() {
                let path = ctx.config.kernel.adjacency_path;
                if resolve_adjacency_path(path, &payload.packed_adjacency)
                    == AdjacencyPath::Condensed
                {
                    payload.ensure_condensed();
                }
            }
            p
        });
        let (output, _) = rec.time(STAGES[3], parent, || {
            ctx.model.forward_prepared_quantized(
                &prepared,
                ctx.setting,
                Some(&ctx.weights),
                &ctx.config.kernel,
                &CostTracker::new(),
            )
        });
        tally.check(oracle.matches(&nodes, &output.logits));
        if let Some(payload) = prepared.payload.as_ref() {
            let tracker = CostTracker::new();
            rec.time("bmm.aggregate", parent, || {
                qgtc_aggregate_prepared(
                    &payload.packed_adjacency,
                    payload.condensed_adjacency.as_ref(),
                    &payload.packed_features,
                    &ctx.config.kernel,
                    &tracker,
                )
            });
            let cost = tracker.snapshot();
            out.words_total += cost.fused_words_total;
            out.words_skipped += cost.fused_words_skipped;
            out.bytes_moved += (cost.dram_read_bytes + cost.dram_write_bytes) as f64;
            out.payload_bytes += payload.transfer_bytes(TransferStrategy::PackedCompound) as f64;
            out.compression += payload.compression_vs_dense();
            // Dense work of the 1-bit × b-bit GEMM: an AND and a popcount per
            // bit pair, before any zero-word skipping.
            out.bitops += 2.0 * (n * n * d) as f64 * f64::from(payload.packed_features.bits());
        }
        rec.close(parent);
        out.batches += 1;
        out.rows += n;
        out.dense_bytes += ((n * n + n * d) * 4) as f64;
    }
    rec.close(root);
    out
}

/// The correctness gate, run before any timing: stage-replay logits and a
/// full-sweep `QgtcSession::infer` must both equal the portable oracle
/// bitwise. (Timed epochs are checked against the first epoch's cost
/// snapshot as they run, and served requests against the oracle.)
fn gate(ctx: &Ctx, tally: &mut Tally) -> Result<Oracle, String> {
    let oracle = Oracle::build(ctx);
    replay(ctx, &oracle, &mut Recorder::new(false), tally);
    let mut session = QgtcSession::new(&ctx.dataset, &ctx.config).map_err(err)?;
    let all: Vec<usize> = (0..ctx.dataset.graph.num_nodes()).collect();
    let response = session.infer(&all).map_err(err)?;
    tally.check(response.degraded.is_empty() && oracle.matches(&all, &response.logits));
    Ok(oracle)
}

/// One timed `run_epoch_with_plan` call, checked against the first epoch
/// (which is kept in `first`). Returns its wall time in milliseconds.
fn timed_epoch(
    ctx: &Ctx,
    first: &mut Option<EpochReport>,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Result<f64, String> {
    let (report, ms) = rec.time("pipeline.epoch", None, || {
        try_run_epoch_with_plan(&ctx.dataset, &ctx.config, &ctx.plan)
    });
    let report = report.map_err(err)?;
    tally.check(
        report.num_nodes == ctx.dataset.graph.num_nodes()
            && first.as_ref().is_none_or(|f| f.cost == report.cost),
    );
    first.get_or_insert(report);
    Ok(ms)
}

/// Epochs until `seconds` have passed and the tail has enough samples.
fn epoch_samples(
    ctx: &Ctx,
    seconds: f64,
    first: &mut Option<EpochReport>,
    tally: &mut Tally,
    between: Between<'_>,
) -> Result<Vec<f64>, String> {
    let mut off = Recorder::new(false);
    let min = min_samples(TAIL_PCT) as u64;
    let start = Instant::now();
    let mut samples = Vec::new();
    loop {
        let spent = start.elapsed().as_secs_f64();
        if (spent >= seconds && samples.len() as u64 >= min) || spent >= seconds * MAX_OVERRUN {
            return Ok(samples);
        }
        samples.push(timed_epoch(ctx, first, &mut off, tally)?);
        between()?;
    }
}

/// How requests arrive in [`serve_loop`].
#[derive(Debug, Clone, Copy)]
enum Arrivals {
    /// Open loop: Poisson arrivals at this many requests per second.
    Poisson(f64),
    /// Closed loop: each request is due when the previous one is answered.
    Closed,
}

/// Measurements of serving, on the virtual clock (ms).
#[derive(Debug, Default)]
struct ServeRun {
    latencies: Vec<f64>,
    drains: Vec<f64>,
    /// (virtual time, pending requests) at each drain start of one session.
    depths: Vec<(f64, usize)>,
    first_due: f64,
    last_due: f64,
}

impl ServeRun {
    /// Mean queue depth at drain starts within quarter `q` (0-based) of the
    /// arrival span.
    fn quarter_depth(&self, q: usize) -> f64 {
        let span = self.last_due - self.first_due;
        let lo = self.first_due + span * q as f64 / 4.0;
        let hi = self.first_due + span * (q + 1) as f64 / 4.0;
        let inside: Vec<f64> = self
            .depths
            .iter()
            .filter(|&&(t, _)| t >= lo && (t < hi || q == 3))
            .map(|&(_, depth)| depth as f64)
            .collect();
        mean(&inside)
    }

    /// The backlog did not grow: mean queue depth in the last quarter is at
    /// most 1.5× that of the second, plus one request of slack so that a
    /// single burst at low load (depths of one or two) is not read as a
    /// growing queue.
    fn backlog_stable(&self) -> bool {
        self.quarter_depth(3) <= 1.5 * self.quarter_depth(1) + 1.0
    }

    /// Pool the latencies and drains of another session's run.
    fn absorb(&mut self, other: ServeRun) {
        self.latencies.extend(other.latencies);
        self.drains.extend(other.drains);
    }
}

/// Drive `session` with `requests` requests (indices `first..`) on a
/// virtual clock, from the generating thread. A request is due on its
/// arrival schedule; each submit and drain advances the clock by its
/// measured wall time, so latency runs from the due time to the end of the
/// drain that answers it, queueing included. Every answer is checked
/// against the oracle.
#[allow(clippy::too_many_arguments)]
fn serve_loop(
    session: &mut QgtcSession<'_>,
    oracle: &Oracle,
    fill: &dyn Fn(u64, &mut Vec<usize>),
    arrivals: Arrivals,
    gap_ms: &dyn Fn(u64, f64) -> f64,
    first: u64,
    requests: u64,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Result<ServeRun, String> {
    let mut run = ServeRun::default();
    let end = first + requests;
    let mut now = 0.0f64;
    let mut next = first;
    let mut next_due = match arrivals {
        Arrivals::Poisson(rps) => gap_ms(first, rps),
        Arrivals::Closed => 0.0,
    };
    run.first_due = next_due;
    // (due, submit start, submit end) of the requests in the queue.
    let mut pending: Vec<(f64, f64, f64)> = Vec::new();
    while (run.latencies.len() as u64) < requests {
        now = now.max(next_due);
        while next < end && next_due <= now {
            let mut nodes = session.request_buffer();
            fill(next, &mut nodes);
            let start = Instant::now();
            session.submit(nodes).map_err(err)?;
            let submit_ms = start.elapsed().as_secs_f64() * 1e3;
            pending.push((next_due, now, now + submit_ms));
            now += submit_ms;
            run.last_due = next_due;
            next += 1;
            next_due = match arrivals {
                Arrivals::Poisson(rps) => next_due + gap_ms(next, rps),
                Arrivals::Closed => f64::INFINITY,
            };
        }
        run.depths.push((now, pending.len()));
        let drain_start = now;
        let start = Instant::now();
        let responses = session.drain().map_err(err)?;
        now += start.elapsed().as_secs_f64() * 1e3;
        run.drains.push(now - drain_start);
        // A drain answers every pending request, in submission order.
        tally.check(responses.len() == pending.len());
        for (response, &(due, submit_start, submit_end)) in responses.into_iter().zip(&pending) {
            tally.check(
                response.degraded.is_empty()
                    && oracle.matches(&response.node_ids, &response.logits),
            );
            run.latencies.push(now - due);
            if rec.enabled() {
                let span = |name, start_ms: f64, end_ms: f64, parent| Span {
                    name,
                    clock: Clock::Virtual,
                    start_us: start_ms * 1e3,
                    end_us: end_ms * 1e3,
                    parent,
                    request: Some(response.ticket),
                };
                let root = rec.record(span("serve.request", due, now, None));
                rec.record(span("serve.submit", submit_start, submit_end, root));
                rec.record(span("serve.queue_wait", due, drain_start, root));
                rec.record(span("serve.drain", drain_start, now, root));
            }
            session.recycle_response(response);
        }
        pending.clear();
        if matches!(arrivals, Arrivals::Closed) {
            next_due = now;
        }
    }
    rec.advance_virtual(now * 1e3);
    Ok(run)
}

/// Serving counters summed over one or more rounds, plus the largest RSS
/// growth of a round (later rounds reuse the heap earlier sessions freed,
/// so the largest, not the mean, shows how much a session grows).
#[derive(Debug, Clone, Copy, Default)]
struct SessionDelta {
    rounds: f64,
    requests: f64,
    executed: f64,
    touches: f64,
    hits: f64,
    misses: f64,
    evictions: f64,
    degraded: f64,
    fresh_allocs: f64,
    rss_mb: f64,
}

impl SessionDelta {
    fn sample(session: &QgtcSession<'_>) -> Self {
        let s = session.stats();
        Self {
            rounds: 0.0,
            requests: s.requests as f64,
            executed: s.batches_executed as f64,
            touches: s.batch_touches as f64,
            hits: s.cache_hits as f64,
            misses: s.cache_misses as f64,
            evictions: s.cache_evictions as f64,
            degraded: s.degraded_batches as f64,
            fresh_allocs: s.pool.fresh_allocations as f64,
            rss_mb: host::rss_mb(),
        }
    }

    /// `self - before` added to `acc`, counting one more round.
    fn since(self, before: Self, acc: Self) -> Self {
        Self {
            rounds: acc.rounds + 1.0,
            requests: acc.requests + self.requests - before.requests,
            executed: acc.executed + self.executed - before.executed,
            touches: acc.touches + self.touches - before.touches,
            hits: acc.hits + self.hits - before.hits,
            misses: acc.misses + self.misses - before.misses,
            evictions: acc.evictions + self.evictions - before.evictions,
            degraded: acc.degraded + self.degraded - before.degraded,
            fresh_allocs: acc.fresh_allocs + self.fresh_allocs - before.fresh_allocs,
            rss_mb: acc.rss_mb.max(self.rss_mb - before.rss_mb),
        }
    }
}

/// Called between units of work (epochs, serving rounds, search steps):
/// where the untraced run fits its remaining setup builds.
type Between<'a> = &'a mut dyn FnMut() -> Result<(), String>;

/// What every round of a serving workload shares.
struct Serving<'a> {
    ctx: &'a Ctx,
    spec: ServeSpec,
    oracle: &'a Oracle,
    traffic: TrafficGen,
}

impl Serving<'_> {
    /// Rounds of Poisson traffic at `rps` until `budget_s` of wall time is
    /// spent (at least one). A round is a fresh session, warmed by one
    /// request over every node the traffic can ask for (filling the payload
    /// cache and sizing the buffer pool), that then answers
    /// `round_requests` requests. Round `r` uses request indices
    /// `r·n..(r+1)·n`, so every call replays the same requests from its
    /// first round on (the rate search relies on it).
    fn rounds(
        &self,
        rps: f64,
        budget_s: f64,
        rec: &mut Recorder,
        tally: &mut Tally,
        between: Between<'_>,
    ) -> Result<(ServeRun, SessionDelta), String> {
        let ctx = self.ctx;
        let (mut all, mut delta) = (ServeRun::default(), SessionDelta::default());
        let start = Instant::now();
        let n = self.spec.round_requests;
        let fill = |i, out: &mut Vec<usize>| self.traffic.fill(i, out);
        let gap = |i, rps| self.traffic.gap_ms(i, rps);
        for round in 0.. {
            if round > 0 && start.elapsed().as_secs_f64() >= budget_s {
                break;
            }
            let mut session = QgtcSession::new(&ctx.dataset, &ctx.config).map_err(err)?;
            let warm = session.infer(&self.traffic.warm_nodes()).map_err(err)?;
            session.recycle_response(warm);
            let before = SessionDelta::sample(&session);
            let arrivals = Arrivals::Poisson(rps);
            let first = round * n;
            let run = serve_loop(
                &mut session,
                self.oracle,
                &fill,
                arrivals,
                &gap,
                first,
                n,
                rec,
                tally,
            )?;
            delta = SessionDelta::sample(&session).since(before, delta);
            drop(session);
            if round == 0 {
                all = run;
            } else {
                all.absorb(run);
            }
            between()?;
        }
        Ok((all, delta))
    }

    /// Highest rate meeting the p90 limit without a growing backlog: log
    /// bisection over the spec's bracket, each step one round over the same
    /// requests. When both ends of the final bracket were measured and the
    /// limit lies between their tails, the crossing is interpolated (in log
    /// rate), so the result is not quantised to the bisection grid;
    /// otherwise it is the highest passing rate (the bracket's lower end
    /// when none passes).
    fn search_rate(
        &self,
        tally: &mut Tally,
        extras: &mut Vec<Metric>,
        between: Between<'_>,
    ) -> Result<f64, String> {
        let spec = &self.spec;
        let ((mut lo, mut hi), (mut lo_tail, mut hi_tail)) = (spec.search_rps, (None, None));
        let mut off = Recorder::new(false);
        for step in 0..spec.search_steps {
            let rps = (lo * hi).sqrt();
            let (run, _) = self.rounds(rps, 0.0, &mut off, tally, between)?;
            let tail = pct(&sorted(run.latencies.clone()), TAIL_PCT);
            extras.push(metric(&format!("search.step{step}_rps"), rps, "1/s"));
            extras.push(metric(&format!("search.step{step}_p90_ms"), tail, "ms"));
            if tail <= spec.limit_ms && run.backlog_stable() {
                (lo, lo_tail) = (rps, Some(tail));
            } else {
                (hi, hi_tail) = (rps, Some(tail));
            }
        }
        Ok(match (lo_tail, hi_tail) {
            (Some(tl), Some(th)) if th > spec.limit_ms => {
                lo * (hi / lo).powf((spec.limit_ms - tl) / (th - tl))
            }
            _ => lo,
        })
    }
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

fn pct(sorted_values: &[f64], p: f64) -> f64 {
    nearest_rank(sorted_values, p).unwrap_or(f64::NAN)
}

/// Run workload `w` with `seed` for about `seconds` of measurement.
pub fn run(w: &Workload, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    if traced {
        return run_traced(w, seed, seconds);
    }
    let mut tally = Tally::default();
    let (ctx, first_setup_s) = setup(w, seed, &mut Recorder::new(false))?;
    let mut setups = SetupTimes::new(w, seed, first_setup_s, seconds);
    let oracle = gate(&ctx, &mut tally)?;
    let mut extras = Vec::new();
    let latencies = match w.mode {
        Mode::Epoch => {
            let mut first = None;
            let mut off = Recorder::new(false);
            for _ in 0..w.warmup {
                timed_epoch(&ctx, &mut first, &mut off, &mut tally)?;
            }
            let mut between = || setups.tick();
            let samples = epoch_samples(&ctx, seconds, &mut first, &mut tally, &mut between)?;
            let report = first.expect("warm-up ran an epoch");
            extras.push(metric("modeled_epoch_ms", report.modeled_ms, "ms"));
            extras.push(metric("batches", report.num_batches as f64, "count"));
            let rate = samples.len() as f64 / (samples.iter().sum::<f64>() / 1e3);
            extras.push(metric("epochs_per_s", rate, "1/s"));
            samples
        }
        Mode::Serve(spec) => {
            let serving = Serving {
                ctx: &ctx,
                spec,
                oracle: &oracle,
                traffic: TrafficGen::new(seed, &spec, &ctx.plan),
            };
            let mut off = Recorder::new(false);
            let mut between = || setups.tick();
            let (rps, budget) = (spec.nominal_rps, seconds * NOMINAL_SHARE);
            let (run, delta) = serving.rounds(rps, budget, &mut off, &mut tally, &mut between)?;
            extras.push(metric("nominal_rps", spec.nominal_rps, "1/s"));
            extras.push(metric(
                "req_p99_ms",
                pct(&sorted(run.latencies.clone()), 99.0),
                "ms",
            ));
            extras.push(metric(
                "cache_hit_ratio",
                delta.hits / (delta.hits + delta.misses),
                "ratio",
            ));
            extras.push(metric("nominal_rounds", delta.rounds, "count"));
            let rate = serving.search_rate(&mut tally, &mut extras, &mut between)?;
            extras.push(metric("slo_rps", rate, "1/s"));
            run.latencies
        }
    };
    let lat = sorted(latencies);
    extras.push(metric("p50_ms", pct(&lat, 50.0), "ms"));
    extras.push(metric("p90_ms", pct(&lat, TAIL_PCT), "ms"));
    extras.push(metric("samples", lat.len() as f64, "count"));
    let beyond = samples_beyond(lat.len(), TAIL_PCT) as f64;
    extras.push(metric("samples_beyond_p90", beyond, "count"));
    let failed_ratio = tally.failed as f64 / tally.attempted.max(1) as f64;
    extras.push(metric("failed_ratio", failed_ratio, "ratio"));
    let metrics = vec![
        metric("setup_s", setups.finish()?, "s"),
        metric("p10_ms", pct(&lat, FAST_PCT), "ms"),
        metric("rss_peak_mb", host::rss_peak_mb(), "MB"),
    ];
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        extras,
        trace_json: None,
    })
}

/// The traced pass: one setup, the gate, the primary mode traced and
/// untraced in turn (for `trace.overhead`), and a short pass of the other
/// mode so every layer is measured on every workload. Each traced epoch
/// is followed by a traced stage replay of every batch, so that epochs and
/// replays see the same host; stage times are the median over replay
/// passes. Per-layer numbers are computed from the recorded spans.
fn run_traced(w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut rec = Recorder::new(true);
    let (ctx, _) = setup(w, seed, &mut rec)?;
    rec.set_enabled(false);
    let oracle = gate(&ctx, &mut tally)?;

    let mut first = None;
    let mut replayed = Replay::default();
    let overhead;
    let serve_run;
    let serve_delta;
    match w.mode {
        Mode::Epoch => {
            for _ in 0..w.warmup {
                timed_epoch(&ctx, &mut first, &mut rec, &mut tally)?;
            }
            let (mut on, mut off) = (Vec::new(), Vec::new());
            for _ in 0..w.traced_epochs {
                rec.set_enabled(true);
                on.push(timed_epoch(&ctx, &mut first, &mut rec, &mut tally)?);
                replayed = replay(&ctx, &oracle, &mut rec, &mut tally);
                rec.set_enabled(false);
                off.push(timed_epoch(&ctx, &mut first, &mut rec, &mut tally)?);
            }
            overhead = pct(&sorted(on), FAST_PCT) / pct(&sorted(off), FAST_PCT);
            // The serving layer on an epoch workload: the whole graph as one
            // request, three times in a closed loop (cold, then cached).
            rec.set_enabled(true);
            let mut session = QgtcSession::new(&ctx.dataset, &ctx.config).map_err(err)?;
            let before = SessionDelta::sample(&session);
            let all: Vec<usize> = (0..ctx.dataset.graph.num_nodes()).collect();
            let fill = |_, out: &mut Vec<usize>| out.extend_from_slice(&all);
            let no_gap = |_, _| 0.0;
            serve_run = serve_loop(
                &mut session,
                &oracle,
                &fill,
                Arrivals::Closed,
                &no_gap,
                0,
                3,
                &mut rec,
                &mut tally,
            )?;
            serve_delta = SessionDelta::sample(&session).since(before, SessionDelta::default());
        }
        Mode::Serve(spec) => {
            let serving = Serving {
                ctx: &ctx,
                spec,
                oracle: &oracle,
                traffic: TrafficGen::new(seed, &spec, &ctx.plan),
            };
            let (rps, budget) = (spec.nominal_rps, seconds / 2.0);
            let mut nothing = || Ok(());
            let (untraced, _) = serving.rounds(rps, budget, &mut rec, &mut tally, &mut nothing)?;
            rec.set_enabled(true);
            let (run, delta) = serving.rounds(rps, budget, &mut rec, &mut tally, &mut nothing)?;
            overhead = pct(&sorted(run.latencies.clone()), FAST_PCT)
                / pct(&sorted(untraced.latencies), FAST_PCT);
            serve_run = run;
            serve_delta = delta;
            // The epoch pipeline over the serving plan.
            for _ in 0..w.traced_epochs {
                timed_epoch(&ctx, &mut first, &mut rec, &mut tally)?;
                replayed = replay(&ctx, &oracle, &mut rec, &mut tally);
            }
        }
    }
    let report = first.ok_or("no epoch ran")?;

    // Node → partition ids for the plan's partition quality.
    let mut parts = vec![0usize; ctx.dataset.graph.num_nodes()];
    for batch in ctx.plan.batches() {
        for (&id, part) in batch.partition_ids.iter().zip(&batch.partitions) {
            for &node in part {
                parts[node] = id;
            }
        }
    }
    let quality = partition_quality(&ctx.dataset.graph, &parts, ctx.plan.num_partitions());

    let batches = replayed.batches as f64;
    let total = |name: &str| rec.durations(name).iter().sum::<f64>();
    // Per replay pass, then the median pass.
    let per_batch = |name: &str| median(&rec.per_root(name, "replay")) / batches;
    let epoch_ms = median(&rec.durations("pipeline.epoch"));
    let stage_passes: Vec<Vec<f64>> = STAGES.iter().map(|n| rec.per_root(n, "replay")).collect();
    let stage_sums: Vec<f64> = (0..stage_passes[0].len())
        .map(|p| stage_passes.iter().map(|pass| pass[p]).sum())
        .collect();
    let stage_ms = median(&stage_sums);
    let queue = sorted(rec.durations("serve.queue_wait"));
    let drains = sorted(serve_run.drains.clone());
    let d = serve_delta;
    let metrics = vec![
        metric("partition.plan_ms", total("partition.plan"), "ms"),
        metric(
            "partition.intra_edge_fraction",
            quality.intra_edge_fraction,
            "ratio",
        ),
        metric("graph.materialise_ms", per_batch("graph.materialise"), "ms"),
        metric("graph.gather_ms", per_batch("graph.gather"), "ms"),
        metric("graph.dense_mb", replayed.dense_bytes / batches / 1e6, "MB"),
        metric("packing.pack_ms", per_batch("packing.pack"), "ms"),
        metric(
            "packing.payload_mb",
            replayed.payload_bytes / batches / 1e6,
            "MB",
        ),
        metric(
            "packing.compression",
            replayed.compression / batches,
            "ratio",
        ),
        metric("gnn.forward_ms", per_batch("gnn.forward"), "ms"),
        metric(
            "gnn.forward_ms_per_krow",
            per_batch("gnn.forward") * batches / (replayed.rows as f64 / 1e3),
            "ms",
        ),
        metric("gnn.weights_ms", total("gnn.weights"), "ms"),
        metric("bmm.agg_ms", per_batch("bmm.aggregate"), "ms"),
        metric("bmm.words_total", replayed.words_total as f64, "count"),
        metric(
            "bmm.skip_ratio",
            replayed.words_skipped as f64 / replayed.words_total.max(1) as f64,
            "ratio",
        ),
        metric("bmm.gbitops", replayed.bitops / 1e9, "Gbitop"),
        metric("bmm.mb_moved", replayed.bytes_moved / 1e6, "MB"),
        metric("pipeline.host_wall_ms", report.host_wall_ms, "ms"),
        metric("pipeline.self_ms", epoch_ms - stage_ms, "ms"),
        metric("pipeline.stage_coverage", stage_ms / epoch_ms, "ratio"),
        metric("tcsim.tc_b1_tiles", report.cost.tc_b1_tiles as f64, "count"),
        metric(
            "tcsim.pcie_h2d_mb",
            report.cost.pcie_h2d_bytes as f64 / 1e6,
            "MB",
        ),
        metric("serve.queue_wait_ms_p50", pct(&queue, 50.0), "ms"),
        metric("serve.queue_wait_ms_p99", pct(&queue, 99.0), "ms"),
        metric("serve.drain_ms_p50", pct(&drains, 50.0), "ms"),
        metric("serve.drain_ms_p99", pct(&drains, 99.0), "ms"),
        metric(
            "serve.requests_per_drain",
            d.requests / drains.len().max(1) as f64,
            "ratio",
        ),
        metric(
            "serve.coalesce_ratio",
            d.touches / d.executed.max(1.0),
            "ratio",
        ),
        metric(
            "serve.cache_hit_ratio",
            d.hits / (d.hits + d.misses).max(1.0),
            "ratio",
        ),
        metric(
            "serve.prepares_per_req",
            d.misses / d.requests.max(1.0),
            "ratio",
        ),
        metric(
            "serve.evictions_per_req",
            d.evictions / d.requests.max(1.0),
            "ratio",
        ),
        metric("serve.pool_fresh_allocs", d.fresh_allocs, "count"),
        metric("serve.rss_growth_mb", d.rss_mb, "MB"),
        metric("trace.overhead", overhead, "ratio"),
    ];
    let batch_spans: Vec<usize> = (0..rec.spans.len())
        .filter(|&i| rec.spans[i].name == "replay.batch")
        .collect();
    let batch_self: Vec<f64> = batch_spans.iter().map(|&i| rec.self_ms(i)).collect();
    let estimate = &report.estimate;
    let extras = vec![
        metric("trace.spans", rec.spans.len() as f64, "count"),
        metric("replay.batch_self_ms", mean(&batch_self), "ms"),
        metric("serve.degraded_batches", d.degraded, "count"),
        metric(
            "bmm.skip_dispatches",
            report.cost.adj_skip_dispatches as f64,
            "count",
        ),
        metric(
            "bmm.condensed_dispatches",
            report.cost.adj_condensed_dispatches as f64,
            "count",
        ),
        metric("tcsim.modeled_epoch_ms", report.modeled_ms, "ms"),
        metric("tcsim.compute_ms", estimate.compute_s * 1e3, "ms"),
        metric("tcsim.memory_ms", estimate.memory_s * 1e3, "ms"),
        metric("tcsim.pcie_ms", estimate.pcie_s * 1e3, "ms"),
        metric("tcsim.launch_ms", estimate.launch_s * 1e3, "ms"),
    ];
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        extras,
        trace_json: Some(rec.chrome_json()),
    })
}
