//! Deterministic fault injection and the typed error surface of the epoch pipeline.
//!
//! The ROADMAP's north star is a serving system; a serving system's epoch driver
//! cannot unwind as a panic every time a prepare hiccups or a prepared payload
//! comes out damaged. This module provides the two halves of that story:
//!
//! * **Injection** — a deterministic [`FaultPlan`] (set on the config with
//!   [`crate::config::QgtcConfig::with_fault_plan`]) names exactly which faults fire where:
//!   a [`FaultSite`] (one of the three stages that run: partitioning, batch
//!   prepare, backend GEMM dispatch), a [`FaultKind`] (transient, persistent
//!   backend loss, payload corruption), a batch index, and how many consecutive
//!   attempts the fault survives. Firing is keyed on `(site, batch, attempt)` —
//!   never on arrival order — so a plan behaves identically in an epoch, in a
//!   serving session, and at any thread count.
//! * **Recovery** — the pipeline's supervisor (in [`crate::pipeline`]) consumes
//!   faults through a [`FaultInjector`] under one retry policy: transients are
//!   retried with bounded backoff (3 retries per batch and stage), corruption of
//!   a sealed payload is caught by its checksum and repaired by a pure
//!   re-prepare, and a persistent backend loss at GEMM dispatch degrades its
//!   batch and every batch at or above its index through the
//!   [`fallback_backend`] chain (avx512 → portable). Every outcome is tallied in
//!   [`FaultStats`] on the [`crate::EpochReport`] and on a serving session's
//!   [`crate::ServeStats`].
//!
//! Anything the supervisor cannot absorb surfaces as a [`QgtcError`] from the
//! `try_*` entry points instead of a panic.

use qgtc_bitmat::BitMatrixLayout;
use qgtc_graph::GraphError;
use qgtc_kernels::backend::{resolve_auto, BackendChoice};
use qgtc_partition::PartitionError;
use qgtc_tensor::TensorError;
use std::sync::atomic::{AtomicU64, Ordering};

/// Where in the epoch pipeline a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// The prepare stage (materialise → gather → pack, then, under injection,
    /// seal and verify the payload checksum).
    Prepare,
    /// At backend GEMM dispatch, just before the forward pass of a batch.
    Dispatch,
    /// During graph partitioning, before any batch exists.
    Partition,
}

impl FaultSite {
    /// The spec-grammar name of the site.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::Prepare => "prepare",
            FaultSite::Dispatch => "gemm",
            FaultSite::Partition => "partition",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        match name {
            "prepare" => Some(FaultSite::Prepare),
            "gemm" | "dispatch" => Some(FaultSite::Dispatch),
            "partition" => Some(FaultSite::Partition),
            _ => None,
        }
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What kind of failure a fault simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A failed attempt that succeeds when retried (an allocation hiccup, a
    /// spurious cancellation). Recoverable while retries remain.
    Transient,
    /// The execution resource behind the site is gone and stays gone. At
    /// [`FaultSite::Dispatch`] the loss holds for every batch at or above its
    /// index, which the supervisor degrades through [`fallback_backend`]; at
    /// every other site this is unrecoverable.
    BackendLoss,
    /// At [`FaultSite::Prepare`], bits of the prepared payload flip after
    /// sealing; the prepare stage's checksum verify catches the mismatch and
    /// re-prepares the batch. A batch with no payload (the dense baseline, an
    /// empty batch) and the other sites have no sealed payload to damage, so
    /// there the fault behaves as a transient.
    Corruption,
}

impl FaultKind {
    /// The spec-grammar name of the kind.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Transient => "transient",
            FaultKind::BackendLoss => "backend-loss",
            FaultKind::Corruption => "corrupt",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        match name {
            "transient" => Some(FaultKind::Transient),
            "backend-loss" => Some(FaultKind::BackendLoss),
            "corrupt" | "corruption" => Some(FaultKind::Corruption),
            _ => None,
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One planned fault: fire `kind` at `site` for batch `batch`, on the first
/// `attempts` attempt indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Where the fault fires.
    pub site: FaultSite,
    /// What kind of failure it simulates.
    pub kind: FaultKind,
    /// Which batch it targets (ignored for [`FaultSite::Partition`], which runs
    /// before batches exist).
    pub batch: usize,
    /// For [`FaultKind::Transient`] / [`FaultKind::Corruption`]: the number of
    /// consecutive attempts (0-based attempt indices `0..attempts`) that fail
    /// before the site works again. A spec with `attempts <= 3` (the
    /// supervisor's retry budget) is recoverable by construction. Ignored for
    /// [`FaultKind::BackendLoss`], which by definition never comes back.
    pub attempts: u32,
}

impl FaultSpec {
    /// Whether this spec fires for attempt `attempt` of `batch` at `site`.
    ///
    /// Pure in its arguments — the determinism of the whole harness rests on this
    /// being independent of wall time, thread identity, and arrival order.
    pub fn fires_at(&self, site: FaultSite, batch: usize, attempt: u32) -> bool {
        if site != self.site {
            return false;
        }
        if site != FaultSite::Partition && batch != self.batch {
            return false;
        }
        match self.kind {
            FaultKind::BackendLoss => true,
            FaultKind::Transient | FaultKind::Corruption => attempt < self.attempts,
        }
    }
}

impl std::fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}:{}",
            self.site.name(),
            self.kind.name(),
            self.batch,
            self.attempts
        )
    }
}

/// A deterministic set of faults to inject into one epoch.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// A plan from explicit specs.
    pub fn new(specs: Vec<FaultSpec>) -> Self {
        Self { specs }
    }

    /// The planned faults.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Parse the fault spec grammar: a comma-separated list of
    /// `site:kind[:batch[:attempts]]` entries.
    ///
    /// * `site` — `prepare`, `gemm` (alias `dispatch`), `partition`
    /// * `kind` — `transient`, `backend-loss`, `corrupt` (alias `corruption`)
    /// * `batch` — target batch index, default `0`
    /// * `attempts` — consecutive failing attempts, default `1`
    ///
    /// Example: `prepare:transient:3:2,gemm:backend-loss:5` fails the first two
    /// prepare attempts of batch 3 and permanently loses the GEMM backend at
    /// batch 5.
    pub fn parse(spec: &str) -> Result<Self, QgtcError> {
        let mut specs = Vec::new();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let mut fields = entry.split(':');
            let site_name = fields.next().unwrap_or_default();
            let site = FaultSite::from_name(site_name).ok_or_else(|| {
                QgtcError::InvalidFaultSpec(format!(
                    "unknown fault site {site_name:?} in {entry:?} (expected prepare|gemm|partition)"
                ))
            })?;
            let kind_name = fields.next().ok_or_else(|| {
                QgtcError::InvalidFaultSpec(format!(
                    "missing fault kind in {entry:?} (expected site:kind[:batch[:attempts]])"
                ))
            })?;
            let kind = FaultKind::from_name(kind_name).ok_or_else(|| {
                QgtcError::InvalidFaultSpec(format!(
                    "unknown fault kind {kind_name:?} in {entry:?} (expected transient|backend-loss|corrupt)"
                ))
            })?;
            let batch = match fields.next() {
                None => 0,
                Some(raw) => raw.parse().map_err(|_| {
                    QgtcError::InvalidFaultSpec(format!("bad batch index {raw:?} in {entry:?}"))
                })?,
            };
            let attempts = match fields.next() {
                None => 1,
                Some(raw) => raw.parse().map_err(|_| {
                    QgtcError::InvalidFaultSpec(format!("bad attempt count {raw:?} in {entry:?}"))
                })?,
            };
            if let Some(extra) = fields.next() {
                return Err(QgtcError::InvalidFaultSpec(format!(
                    "trailing field {extra:?} in {entry:?}"
                )));
            }
            specs.push(FaultSpec {
                site,
                kind,
                batch,
                attempts,
            });
        }
        Ok(Self { specs })
    }
}

/// Running tallies of what the fault harness did to one epoch, reported on
/// [`crate::EpochReport::fault_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Faults that fired (every injection, whatever its outcome).
    pub injected: u64,
    /// Retry/backoff cycles run in response to a fault.
    pub retried: u64,
    /// Faults the epoch fully absorbed: the affected batch was re-prepared,
    /// repaired, or retried into a successful delivery.
    pub recovered: u64,
    /// Permanent backend losses absorbed by degrading to a fallback backend.
    pub degraded: u64,
    /// The backend the epoch finished on after degradation, if any.
    pub degraded_backend: Option<&'static str>,
}

/// The shared, thread-safe tally an epoch's supervisors write [`FaultStats`] through
/// while consulting the plan.
///
/// All counters are atomics, so a supervisor may tally from any thread, and
/// the totals are order-independent — which is what keeps `fault_stats` the
/// same at any thread count.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    injected: AtomicU64,
    retried: AtomicU64,
    recovered: AtomicU64,
    degraded: AtomicU64,
}

impl FaultInjector {
    /// An injector over `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            injected: AtomicU64::new(0),
            retried: AtomicU64::new(0),
            recovered: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
        }
    }

    /// The injector for one epoch or session: one over the config's plan, or
    /// none when the plan is empty.
    pub fn from_config(config: &crate::config::QgtcConfig) -> Option<Self> {
        (!config.fault_plan.is_empty()).then(|| Self::new(config.fault_plan.clone()))
    }

    /// The fault (if any) planned for attempt `attempt` of `batch` at `site`.
    ///
    /// When several specs fire for the same coordinate, the most severe kind wins
    /// (backend loss > corruption > transient), so overlapping plans stay
    /// deterministic.
    pub fn fault_at(&self, site: FaultSite, batch: usize, attempt: u32) -> Option<FaultKind> {
        let mut worst: Option<FaultKind> = None;
        for spec in &self.plan.specs {
            if spec.fires_at(site, batch, attempt) {
                let rank = |kind: FaultKind| match kind {
                    FaultKind::Transient => 0,
                    FaultKind::Corruption => 1,
                    FaultKind::BackendLoss => 2,
                };
                if worst.is_none_or(|current| rank(spec.kind) > rank(current)) {
                    worst = Some(spec.kind);
                }
            }
        }
        worst
    }

    /// The backend batch `batch` dispatches on: `configured`, stepped down
    /// [`fallback_backend`] once for each batch at or below `batch` that
    /// loses its backend at [`FaultSite::Dispatch`].  Pure in the plan, so a
    /// loss holds by batch index, not by arrival order.  Fails with
    /// [`QgtcError::BackendLost`], naming the loss that found no fallback,
    /// when the chain runs out.
    pub(crate) fn backend_at(
        &self,
        configured: BackendChoice,
        batch: usize,
    ) -> Result<BackendChoice, QgtcError> {
        (0..=batch)
            .filter(|&j| self.fault_at(FaultSite::Dispatch, j, 0) == Some(FaultKind::BackendLoss))
            .try_fold(configured, |backend, lost_at| {
                fallback_backend(backend).ok_or(QgtcError::BackendLost {
                    backend: backend.name(),
                    batch: lost_at,
                })
            })
    }

    /// A deterministic per-(batch, attempt) seed for the corruption hook.
    pub fn corruption_seed(&self, batch: usize, attempt: u32) -> u64 {
        (batch as u64) << 32 | u64::from(attempt)
    }

    /// Count one fired fault.
    pub fn count_injected(&self) {
        self.injected.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one retry/backoff cycle.
    pub fn count_retried(&self) {
        self.retried.fetch_add(1, Ordering::Relaxed);
    }

    /// Count `n` faults as fully absorbed.
    pub fn count_recovered(&self, n: u64) {
        self.recovered.fetch_add(n, Ordering::Relaxed);
    }

    /// Count one backend degradation.
    pub fn count_degraded(&self) {
        self.degraded.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the tallies (with no degraded-backend attribution — the epoch
    /// loop fills that in with its last batch's backend).
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            injected: self.injected.load(Ordering::Relaxed),
            retried: self.retried.load(Ordering::Relaxed),
            recovered: self.recovered.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            degraded_backend: None,
        }
    }
}

/// The next backend in the degradation chain after losing `lost`, or `None` when
/// the chain is exhausted.
///
/// `Auto` is resolved first (via the same rules as normal dispatch), then the
/// chain is avx512 → portable → none.  Both bodies are bitwise identical to
/// the serial oracle (the conformance suite), so degrading changes throughput
/// but never epoch output, and the portable body runs on every host.
pub fn fallback_backend(lost: BackendChoice) -> Option<BackendChoice> {
    match lost {
        BackendChoice::Auto => fallback_backend(resolve_auto()),
        BackendChoice::Avx512 => Some(BackendChoice::Portable),
        BackendChoice::Portable => None,
    }
}

/// The typed error surface of the `try_*` pipeline entry points.
#[derive(Debug, Clone, PartialEq)]
pub enum QgtcError {
    /// A [`crate::config::QgtcConfig`] invariant does not hold, or a batch
    /// plan given to an epoch lists a node more than once.
    InvalidConfig(String),
    /// A fault spec string failed to parse ([`FaultPlan::parse`]).
    InvalidFaultSpec(String),
    /// A malformed input graph.
    Graph(GraphError),
    /// An invalid-argument failure in the partitioning layer.
    Partition(PartitionError),
    /// Partitioning kept failing past the retry budget (or lost its execution
    /// resource entirely).
    PartitionFailed {
        /// Failed attempts before giving up.
        attempts: u32,
    },
    /// A batch could not be delivered within the retry budget.
    BatchFailed {
        /// The epoch position of the failed batch.
        batch: usize,
        /// The pipeline stage that kept failing.
        site: FaultSite,
        /// The kind of the last failure.
        kind: FaultKind,
        /// Failed attempts before giving up.
        attempts: u32,
    },
    /// A GEMM backend was lost with no fallback left to degrade to.
    BackendLost {
        /// The backend that was lost.
        backend: &'static str,
        /// The batch at which the loss surfaced.
        batch: usize,
    },
    /// A node id outside what its caller covers: a serving request's node
    /// the session's partition plan does not map (out of range or
    /// unmapped), or a node of a batch plan given to an epoch past the
    /// dataset's last node.
    UnknownNode {
        /// The offending global node id.
        node: usize,
    },
    /// The dataset's features hold a NaN or infinite value, which would
    /// calibrate its batch into meaningless codes.  Names the first one in
    /// node-major order.
    NonFiniteFeature {
        /// Global node id of the row holding the value.
        node: usize,
        /// Feature column of the value.
        column: usize,
    },
    /// The dataset's features are finite but span a range wider than `f32`
    /// can represent, so a batch holding both extremes has no finite
    /// quantization scale.
    FeatureRangeOverflow {
        /// Smallest feature value.
        min: f32,
        /// Largest feature value.
        max: f32,
    },
    /// A batch's layer activations overflowed `f32`, so an epilogue could
    /// not re-quantize them.  The serving session degrades the batch; an
    /// epoch fails with this error.
    NonFiniteActivations {
        /// The epoch position of the failed batch.
        batch: usize,
        /// The calibration failure.
        source: TensorError,
    },
    /// A bit-tensor product whose bitwidths and inner dimension could
    /// overflow the kernel's `i64` accumulators
    /// (`a_bits + b_bits + ⌈log2 k⌉ > 63`).
    AccumulatorOverflow {
        /// Bitwidth of the left operand.
        a_bits: u32,
        /// Bitwidth of the right operand.
        b_bits: u32,
        /// The inner (reduction) dimension.
        k: usize,
    },
    /// A bit-tensor product asked for output codes outside `1..=32` bits.
    InvalidBitwidth {
        /// The requested bitwidth.
        bits: u32,
    },
    /// Bit-tensor operands the kernel cannot multiply: the left one must be
    /// row-packed, the right one column-packed, and the left's column count
    /// must equal the right's row count.
    OperandMismatch {
        /// `(rows, cols)` of the left operand.
        a_shape: (usize, usize),
        /// Packing layout of the left operand.
        a_layout: BitMatrixLayout,
        /// `(rows, cols)` of the right operand.
        b_shape: (usize, usize),
        /// Packing layout of the right operand.
        b_layout: BitMatrixLayout,
    },
}

impl std::fmt::Display for QgtcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QgtcError::InvalidConfig(message) => write!(f, "invalid config: {message}"),
            QgtcError::InvalidFaultSpec(message) => write!(f, "invalid fault spec: {message}"),
            QgtcError::Graph(err) => write!(f, "malformed graph: {err}"),
            QgtcError::Partition(err) => write!(f, "{err}"),
            QgtcError::PartitionFailed { attempts } => write!(
                f,
                "partitioning failed after {attempts} attempt(s) and cannot be retried further"
            ),
            QgtcError::BatchFailed {
                batch,
                site,
                kind,
                attempts,
            } => write!(
                f,
                "batch {batch} failed at the {site} stage ({kind}) after {attempts} attempt(s)"
            ),
            QgtcError::BackendLost { backend, batch } => write!(
                f,
                "GEMM backend '{backend}' lost at batch {batch} with no fallback remaining"
            ),
            QgtcError::UnknownNode { node } => write!(
                f,
                "node {node} is outside the dataset or its partition plan"
            ),
            QgtcError::NonFiniteFeature { node, column } => write!(
                f,
                "feature column {column} of node {node} is NaN or infinite"
            ),
            QgtcError::FeatureRangeOverflow { min, max } => write!(
                f,
                "feature range [{min}, {max}] is wider than f32 can represent"
            ),
            QgtcError::NonFiniteActivations { batch, source } => {
                write!(f, "batch {batch}: activations overflowed f32: {source}")
            }
            QgtcError::AccumulatorOverflow { a_bits, b_bits, k } => write!(
                f,
                "a {a_bits}-bit by {b_bits}-bit product over K = {k} can overflow the i64 \
                 accumulators ({a_bits} + {b_bits} + ceil(log2 {k}) > 63)"
            ),
            QgtcError::InvalidBitwidth { bits } => {
                write!(f, "{bits}-bit codes are outside the supported 1..=32 bits")
            }
            QgtcError::OperandMismatch {
                a_shape: (a_rows, a_cols),
                a_layout,
                b_shape: (b_rows, b_cols),
                b_layout,
            } => write!(
                f,
                "cannot multiply a {a_rows}x{a_cols} {a_layout:?} bit tensor by a \
                 {b_rows}x{b_cols} {b_layout:?} one (need a RowPacked left operand, a \
                 ColPacked right operand and equal inner dimensions)"
            ),
        }
    }
}

impl std::error::Error for QgtcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QgtcError::Graph(err) => Some(err),
            QgtcError::Partition(err) => Some(err),
            QgtcError::NonFiniteActivations { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<GraphError> for QgtcError {
    fn from(err: GraphError) -> Self {
        QgtcError::Graph(err)
    }
}

impl From<PartitionError> for QgtcError {
    fn from(err: PartitionError) -> Self {
        QgtcError::Partition(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_grammar_round_trips() {
        let plan = FaultPlan::parse("prepare:transient:3:2, gemm:backend-loss:5 ,prepare:corrupt")
            .expect("valid spec");
        assert_eq!(
            plan.specs(),
            &[
                FaultSpec {
                    site: FaultSite::Prepare,
                    kind: FaultKind::Transient,
                    batch: 3,
                    attempts: 2
                },
                FaultSpec {
                    site: FaultSite::Dispatch,
                    kind: FaultKind::BackendLoss,
                    batch: 5,
                    attempts: 1
                },
                FaultSpec {
                    site: FaultSite::Prepare,
                    kind: FaultKind::Corruption,
                    batch: 0,
                    attempts: 1
                },
            ]
        );
        // Display of each spec re-parses to itself.
        let rendered: Vec<String> = plan.specs().iter().map(|s| s.to_string()).collect();
        let reparsed = FaultPlan::parse(&rendered.join(",")).expect("round trip");
        assert_eq!(reparsed, plan);
    }

    #[test]
    fn spec_grammar_rejects_malformed_entries() {
        for bad in [
            "warp:transient",
            "prepare",
            "prepare:melted",
            "prepare:transient:x",
            "prepare:transient:1:y",
            "prepare:transient:1:2:3",
            // Sites name the three stages that run, and nothing between them.
            "deposit:transient",
            "take:corrupt",
        ] {
            let err = FaultPlan::parse(bad).expect_err(bad);
            assert!(
                matches!(err, QgtcError::InvalidFaultSpec(_)),
                "{bad}: {err:?}"
            );
        }
        assert!(FaultPlan::parse("").expect("empty is a no-op").is_empty());
        assert!(FaultPlan::parse(" , ").expect("blanks skipped").is_empty());
    }

    #[test]
    fn firing_is_keyed_on_site_batch_attempt() {
        let spec = FaultSpec {
            site: FaultSite::Prepare,
            kind: FaultKind::Transient,
            batch: 2,
            attempts: 2,
        };
        assert!(spec.fires_at(FaultSite::Prepare, 2, 0));
        assert!(spec.fires_at(FaultSite::Prepare, 2, 1));
        assert!(
            !spec.fires_at(FaultSite::Prepare, 2, 2),
            "attempts exhausted"
        );
        assert!(!spec.fires_at(FaultSite::Prepare, 3, 0), "wrong batch");
        assert!(!spec.fires_at(FaultSite::Dispatch, 2, 0), "wrong site");

        let loss = FaultSpec {
            site: FaultSite::Dispatch,
            kind: FaultKind::BackendLoss,
            batch: 1,
            attempts: 1,
        };
        assert!(
            loss.fires_at(FaultSite::Dispatch, 1, 99),
            "loss is persistent"
        );

        let partition = FaultSpec {
            site: FaultSite::Partition,
            kind: FaultKind::Transient,
            batch: 7,
            attempts: 1,
        };
        assert!(
            partition.fires_at(FaultSite::Partition, 0, 0),
            "partition faults ignore the batch field"
        );
    }

    #[test]
    fn injector_resolves_overlaps_by_severity() {
        let injector = FaultInjector::new(FaultPlan::new(vec![
            FaultSpec {
                site: FaultSite::Prepare,
                kind: FaultKind::Transient,
                batch: 0,
                attempts: 1,
            },
            FaultSpec {
                site: FaultSite::Prepare,
                kind: FaultKind::BackendLoss,
                batch: 0,
                attempts: 1,
            },
        ]));
        assert_eq!(
            injector.fault_at(FaultSite::Prepare, 0, 0),
            Some(FaultKind::BackendLoss)
        );
        assert_eq!(injector.fault_at(FaultSite::Prepare, 1, 0), None);
    }

    #[test]
    fn a_dispatch_loss_holds_for_every_batch_at_or_above_its_index() {
        let plan =
            "gemm:backend-loss:3,gemm:backend-loss:1,gemm:backend-loss:1,prepare:backend-loss";
        let injector = FaultInjector::new(FaultPlan::parse(plan).expect("valid"));
        let backend = |batch| injector.backend_at(BackendChoice::Avx512, batch);
        assert_eq!(backend(0), Ok(BackendChoice::Avx512));
        // Two specs on one batch are one loss.
        assert_eq!(backend(1), Ok(BackendChoice::Portable));
        assert_eq!(backend(2), Ok(BackendChoice::Portable));
        let exhausted = QgtcError::BackendLost {
            backend: "portable",
            batch: 3,
        };
        assert_eq!(backend(3), Err(exhausted.clone()));
        assert_eq!(backend(9), Err(exhausted));
    }

    #[test]
    fn fallback_chain_ends_at_portable() {
        assert_eq!(
            fallback_backend(BackendChoice::Avx512),
            Some(BackendChoice::Portable)
        );
        assert_eq!(fallback_backend(BackendChoice::Portable), None);
        // Auto resolves to a concrete backend first; whatever it resolves to,
        // the chain from Auto is never Auto itself.
        assert_ne!(
            fallback_backend(BackendChoice::Auto),
            Some(BackendChoice::Auto)
        );
    }

    #[test]
    fn error_display_names_the_failure() {
        let err = QgtcError::BatchFailed {
            batch: 4,
            site: FaultSite::Prepare,
            kind: FaultKind::Transient,
            attempts: 4,
        };
        assert_eq!(
            err.to_string(),
            "batch 4 failed at the prepare stage (transient) after 4 attempt(s)"
        );
        let lost = QgtcError::BackendLost {
            backend: "portable",
            batch: 2,
        };
        assert!(lost.to_string().contains("no fallback remaining"));
        let partition: QgtcError = PartitionError::ZeroParts.into();
        assert_eq!(
            partition.to_string(),
            "num_parts must be at least 1 (got 0)"
        );
    }
}
