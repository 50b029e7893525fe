//! Swappable kernel backends behind one `GemmBackend` trait.
//!
//! QGTC's premise is that one logical any-bitwidth GEMM can be realised by
//! very different hardware bodies — the paper's CUDA tensor-core `bmm`, a
//! scalar popcount loop, AVX-512 `VPOPCNTDQ`, or a modeled tensor core.  This
//! module makes that seam explicit: [`GemmBackend`] is the contract every
//! body must satisfy (fused GEMM, zero-word skip, neighbour aggregation and
//! epilogue application), and the differential conformance suite
//! (`tests/backend_conformance.rs`) proptests every registered backend
//! bitwise against [`PortableBackend`], the semantic oracle.  Adding a real
//! GPU or wider-SIMD backend later is "implement the trait, pass the suite,
//! register it in the perfsmoke race".
//!
//! Three backends ship today:
//!
//! * [`PortableBackend`] — the scalar `u64::count_ones` micro-kernel body;
//!   always available, and the oracle every other backend is judged against;
//! * [`Avx512Backend`] — the `VPOPCNTDQ` body, runtime-detected; bitwise
//!   identical to portable by construction (its tail loop *is* the portable
//!   body);
//! * [`ModeledTcBackend`] — the same arithmetic, but each call also charges
//!   the analytic tensor-core tile walk into a backend-owned
//!   [`CostTracker`], so modeled GPU cost accounting is a first-class
//!   backend rather than a side channel threaded through callers.
//!
//! Callers pick a backend with [`BackendChoice`] (stored on
//! [`KernelConfig`] and surfaced as
//! `QgtcConfig::backend`): `Auto` resolves to the fastest available compute
//! body — AVX-512 when the host has it, portable otherwise — and can be
//! overridden with the `QGTC_BACKEND` environment variable (`portable`,
//! `avx512`, `modeled-tc`).  An unavailable override falls back to the auto
//! order; the modeled backend is never auto-selected because its census walk
//! adds pure overhead when nobody reads the tracker.

use crate::bmm::{record_condensed_walk, record_tile_walk, KernelConfig, ACC_TILE_BYTES};
use crate::fusion::{EpilogueOutput, FusedEpilogue};
use qgtc_bitmat::condense::{aggregate_adj_features_condensed, CondensedAdjacency};
use qgtc_bitmat::fused::{
    any_bit_gemm_fused_tiled, any_bit_gemm_fused_with_body, any_bit_gemm_fused_with_scheme,
    avx512_popcount_available, FusedGemmStats, PopcountBody, TilingScheme,
};
use qgtc_bitmat::StackedBitMatrix;
use qgtc_tcsim::cost::{CostSnapshot, CostTracker};
use qgtc_tcsim::wmma::tile_counts;
use qgtc_tcsim::{DeviceModel, PanelStagingEstimate};
use qgtc_tensor::{Matrix, TensorError};
use std::sync::{Mutex, OnceLock};

/// Which [`GemmBackend`] a kernel call should run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// Resolve at call time: the `QGTC_BACKEND` environment override if set
    /// and available, else AVX-512 if the host supports it, else portable.
    #[default]
    Auto,
    /// The scalar popcount body — the conformance oracle, always available.
    Portable,
    /// The AVX-512 `VPOPCNTDQ` body (panics on use if the host lacks it).
    Avx512,
    /// The cost-accounting backend wrapping `tcsim::DeviceModel`.
    ModeledTc,
}

impl BackendChoice {
    /// Parse a backend name as accepted by the `QGTC_BACKEND` environment
    /// variable.  Returns `None` for unknown names.
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "auto" => Some(BackendChoice::Auto),
            "portable" => Some(BackendChoice::Portable),
            "avx512" => Some(BackendChoice::Avx512),
            "modeled-tc" | "modeled_tc" | "modeledtc" => Some(BackendChoice::ModeledTc),
            _ => None,
        }
    }

    /// Canonical name, matching what [`BackendChoice::from_name`] parses.
    pub fn name(self) -> &'static str {
        match self {
            BackendChoice::Auto => "auto",
            BackendChoice::Portable => "portable",
            BackendChoice::Avx512 => "avx512",
            BackendChoice::ModeledTc => "modeled-tc",
        }
    }
}

/// One realisation of the QGTC kernel surface.
///
/// The required method is [`GemmBackend::any_bit_gemm_with_stats`]; every
/// other entry point has a default body delegating to it, so a backend only
/// overrides what it does differently.  The contract, enforced by the
/// differential conformance suite, is bitwise: for any valid operand pair
/// every backend must return exactly the portable oracle's accumulators and
/// word statistics, skip on or off.
pub trait GemmBackend: Send + Sync {
    /// Stable display name (used by the conformance suite and the race).
    fn name(&self) -> &'static str;

    /// Whether this backend can run on this host.
    fn is_available(&self) -> bool {
        true
    }

    /// Fused any-bitwidth GEMM with optional zero-word skipping, returning
    /// the product and the kernel's word accounting.
    fn any_bit_gemm_with_stats(
        &self,
        a: &StackedBitMatrix,
        b: &StackedBitMatrix,
        skip_zero_words: bool,
    ) -> (Matrix<i64>, FusedGemmStats);

    /// Fused any-bitwidth GEMM `C = A · B` (no skipping).
    fn any_bit_gemm(&self, a: &StackedBitMatrix, b: &StackedBitMatrix) -> Matrix<i64> {
        self.any_bit_gemm_with_stats(a, b, false).0
    }

    /// Fused GEMM under an explicit [`TilingScheme`] — the panel-staged,
    /// K-loop double-buffered loop for non-baseline schemes, the legacy
    /// kernel for the baseline.  The contract is scheme-blind: any scheme on
    /// any backend must be bitwise identical to the portable oracle, with
    /// identical [`FusedGemmStats`].
    ///
    /// The default routes the baseline scheme through
    /// [`GemmBackend::any_bit_gemm_with_stats`] (so a backend's legacy path
    /// stays its own) and staged schemes through the fastest staged body on
    /// the host; backends that pin a body or charge staging costs override.
    fn any_bit_gemm_tiled(
        &self,
        a: &StackedBitMatrix,
        b: &StackedBitMatrix,
        skip_zero_words: bool,
        scheme: TilingScheme,
    ) -> (Matrix<i64>, FusedGemmStats) {
        if scheme.is_baseline() {
            self.any_bit_gemm_with_stats(a, b, skip_zero_words)
        } else {
            any_bit_gemm_fused_tiled(a, b, skip_zero_words, scheme)
        }
    }

    /// Fused GEMM with zero-word skipping; bitwise identical to
    /// [`GemmBackend::any_bit_gemm`].
    fn any_bit_gemm_skip(
        &self,
        a: &StackedBitMatrix,
        b: &StackedBitMatrix,
    ) -> (Matrix<i64>, FusedGemmStats) {
        self.any_bit_gemm_with_stats(a, b, true)
    }

    /// Neighbour aggregation `X_new = A · X` with a 1-bit adjacency.
    fn aggregate_adj_features(
        &self,
        adjacency: &StackedBitMatrix,
        features: &StackedBitMatrix,
    ) -> Matrix<i64> {
        assert_eq!(adjacency.bits(), 1, "adjacency stack must be 1-bit");
        self.any_bit_gemm(adjacency, features)
    }

    /// [`GemmBackend::aggregate_adj_features`] with zero-word skipping.
    fn aggregate_adj_features_skip(
        &self,
        adjacency: &StackedBitMatrix,
        features: &StackedBitMatrix,
    ) -> (Matrix<i64>, FusedGemmStats) {
        assert_eq!(adjacency.bits(), 1, "adjacency stack must be 1-bit");
        self.any_bit_gemm_skip(adjacency, features)
    }

    /// Condensed neighbour aggregation: run fully dense over the
    /// sparse-to-dense translated adjacency of
    /// [`qgtc_bitmat::condense::CondensedAdjacency`].  Bitwise identical to
    /// [`GemmBackend::aggregate_adj_features_skip`] on the source adjacency;
    /// the stats reuse the skip path's frame (`total_words` = source K loop,
    /// `visited_words` = condensed words consumed).  The default runs the
    /// fastest body on the host; body-pinning and cost-charging backends
    /// override.
    fn aggregate_condensed(
        &self,
        condensed: &CondensedAdjacency,
        features: &StackedBitMatrix,
    ) -> (Matrix<i64>, FusedGemmStats) {
        aggregate_adj_features_condensed(condensed, features, PopcountBody::detect())
    }

    /// Apply a fused epilogue to an integer accumulator.  Backends that fuse
    /// the epilogue differently (or charge it differently) override this;
    /// the default is the host implementation in [`crate::fusion`].  Fails
    /// only when re-quantizing activations with no finite range.
    fn apply_epilogue(
        &self,
        epilogue: &FusedEpilogue,
        accumulator: &Matrix<i64>,
        tracker: &CostTracker,
    ) -> Result<EpilogueOutput, TensorError> {
        epilogue.apply(accumulator, tracker)
    }

    /// Apply the activation/BN/requantize stages of a fused epilogue to an
    /// already-dense activation matrix (the layer-transition entry).
    fn apply_epilogue_dense(
        &self,
        epilogue: &FusedEpilogue,
        dense: Matrix<f32>,
        tracker: &CostTracker,
    ) -> Result<EpilogueOutput, TensorError> {
        epilogue.apply_dense(dense, tracker)
    }
}

/// The scalar popcount body — the oracle every backend must match bitwise.
#[derive(Debug, Default, Clone, Copy)]
pub struct PortableBackend;

impl GemmBackend for PortableBackend {
    fn name(&self) -> &'static str {
        "portable"
    }

    fn any_bit_gemm_with_stats(
        &self,
        a: &StackedBitMatrix,
        b: &StackedBitMatrix,
        skip_zero_words: bool,
    ) -> (Matrix<i64>, FusedGemmStats) {
        any_bit_gemm_fused_with_body(a, b, skip_zero_words, PopcountBody::Portable)
    }

    fn any_bit_gemm_tiled(
        &self,
        a: &StackedBitMatrix,
        b: &StackedBitMatrix,
        skip_zero_words: bool,
        scheme: TilingScheme,
    ) -> (Matrix<i64>, FusedGemmStats) {
        // The oracle stays scalar under every scheme, so the conformance
        // suite's portable reference exercises the staged loop itself.
        any_bit_gemm_fused_with_scheme(a, b, skip_zero_words, PopcountBody::Portable, scheme)
    }

    fn aggregate_condensed(
        &self,
        condensed: &CondensedAdjacency,
        features: &StackedBitMatrix,
    ) -> (Matrix<i64>, FusedGemmStats) {
        aggregate_adj_features_condensed(condensed, features, PopcountBody::Portable)
    }
}

/// The AVX-512 `VPOPCNTDQ` body.  Only available on x86-64 hosts with
/// `avx512f` + `avx512vpopcntdq`; explicitly selecting it elsewhere panics
/// with a named error on first use.
#[derive(Debug, Default, Clone, Copy)]
pub struct Avx512Backend;

impl GemmBackend for Avx512Backend {
    fn name(&self) -> &'static str {
        "avx512"
    }

    fn is_available(&self) -> bool {
        avx512_popcount_available()
    }

    fn any_bit_gemm_with_stats(
        &self,
        a: &StackedBitMatrix,
        b: &StackedBitMatrix,
        skip_zero_words: bool,
    ) -> (Matrix<i64>, FusedGemmStats) {
        any_bit_gemm_fused_with_body(a, b, skip_zero_words, PopcountBody::Avx512)
    }

    fn any_bit_gemm_tiled(
        &self,
        a: &StackedBitMatrix,
        b: &StackedBitMatrix,
        skip_zero_words: bool,
        scheme: TilingScheme,
    ) -> (Matrix<i64>, FusedGemmStats) {
        any_bit_gemm_fused_with_scheme(a, b, skip_zero_words, PopcountBody::Avx512, scheme)
    }

    fn aggregate_condensed(
        &self,
        condensed: &CondensedAdjacency,
        features: &StackedBitMatrix,
    ) -> (Matrix<i64>, FusedGemmStats) {
        aggregate_adj_features_condensed(condensed, features, PopcountBody::Avx512)
    }
}

/// The modeled tensor-core backend: same bitwise arithmetic as the host
/// bodies (run on the fastest available one), but every call also charges
/// the analytic tile walk of the paper's GPU kernel — launch, census-derived
/// traffic, `b1` MMA counts, fused word statistics — into a backend-owned
/// [`CostTracker`], and [`ModeledTcBackend::modeled_total_s`] converts the
/// accumulated work into modeled GPU seconds through the wrapped
/// [`DeviceModel`].
#[derive(Debug)]
pub struct ModeledTcBackend {
    device: DeviceModel,
    tracker: CostTracker,
    staging: Mutex<PanelStagingEstimate>,
}

impl ModeledTcBackend {
    /// A modeled backend over the given device.
    pub fn new(device: DeviceModel) -> Self {
        Self {
            device,
            tracker: CostTracker::new(),
            staging: Mutex::new(PanelStagingEstimate::empty()),
        }
    }

    /// A modeled backend over the paper's RTX 3090 target.
    pub fn rtx3090() -> Self {
        Self::new(DeviceModel::rtx3090())
    }

    /// The wrapped device model.
    pub fn device(&self) -> &DeviceModel {
        &self.device
    }

    /// Snapshot of all work charged to this backend so far.
    pub fn snapshot(&self) -> CostSnapshot {
        self.tracker.snapshot()
    }

    /// Reset the accumulated cost accounting.
    pub fn reset(&self) {
        self.tracker.reset();
        *self.staging.lock().unwrap() = PanelStagingEstimate::empty();
    }

    /// Accumulated in-kernel panel-staging schedule of every tiled call so
    /// far: the modeled-GPU double-buffer story matching
    /// [`DeviceModel::estimate_panel_staging`].  Empty until a non-baseline
    /// scheme runs.
    pub fn staging_estimate(&self) -> PanelStagingEstimate {
        *self.staging.lock().unwrap()
    }

    /// Charge the staged walk of one `(a, b, scheme)` GEMM into the staging
    /// schedule and the tracker's shared-memory lane.
    ///
    /// The schedule mirrors the host kernel exactly: each row-block work item
    /// walks the output-column tiles, staging `ceil(pairs / k_panel)` K
    /// panels per tile — `t · tile_cols · panel_words` widened words copied
    /// DRAM→shared, consumed by the `s·t`-plane popcount MMAs over the
    /// staged words — with panel `p + 1`'s copy overlapped against panel
    /// `p`'s consumption (depth-2 double buffer).
    fn charge_panel_staging(
        &self,
        a: &StackedBitMatrix,
        b: &StackedBitMatrix,
        scheme: TilingScheme,
    ) -> PanelStagingEstimate {
        let (m, n) = (a.rows(), b.cols());
        let s = a.bits() as u64;
        let t = b.bits() as u64;
        let pairs = a.plane(0).words_per_lane() / 2;
        if m == 0 || n == 0 || pairs == 0 {
            return PanelStagingEstimate::empty();
        }
        let k_panel = match scheme.k_panel_words {
            0 => pairs,
            kp => kp.min(pairs),
        };
        // One row block's walk: per column tile, the full K-panel sequence.
        let mut panels: Vec<(u64, u64)> = Vec::new();
        let mut walk = |rows_here: usize| {
            panels.clear();
            let mut col = 0;
            while col < n {
                let tile_cols = scheme.col_block.min(n - col) as u64;
                let mut p_start = 0;
                while p_start < pairs {
                    let p_len = k_panel.min(pairs - p_start) as u64;
                    let staged_bytes = t * tile_cols * p_len * 8;
                    // 2 ops per MAC over the 64 K-bits of each widened word,
                    // per (A plane, B plane) pair.
                    let b1_ops = 2 * rows_here as u64 * tile_cols * s * t * p_len * 64;
                    panels.push((staged_bytes, b1_ops));
                    p_start += k_panel;
                }
                col += scheme.col_block;
            }
            self.device.estimate_panel_staging(&panels)
        };
        let full_blocks = m / scheme.row_block;
        let tail_rows = m % scheme.row_block;
        let mut total = PanelStagingEstimate::empty();
        if full_blocks > 0 {
            let per_block = walk(scheme.row_block);
            for _ in 0..full_blocks {
                total.accumulate(&per_block);
            }
        }
        if tail_rows > 0 {
            total.accumulate(&walk(tail_rows));
        }
        // Shared-memory traffic of the staging copies: every row-block walk
        // stages the whole widened B image once.
        self.tracker
            .record_shared(t * n as u64 * pairs as u64 * 8 * m.div_ceil(scheme.row_block) as u64);
        let mut accumulated = self.staging.lock().unwrap();
        accumulated.accumulate(&total);
        total
    }

    /// Modeled GPU seconds for everything charged so far.
    pub fn modeled_total_s(&self) -> f64 {
        self.device.estimate(&self.snapshot()).total_ms() / 1e3
    }

    /// The tile-walk configuration a call with the given skip toggle charges.
    fn walk_config(skip_zero_words: bool) -> KernelConfig {
        KernelConfig {
            zero_tile_jumping: skip_zero_words,
            ..KernelConfig::default()
        }
    }
}

impl GemmBackend for ModeledTcBackend {
    fn name(&self) -> &'static str {
        "modeled-tc"
    }

    fn any_bit_gemm_with_stats(
        &self,
        a: &StackedBitMatrix,
        b: &StackedBitMatrix,
        skip_zero_words: bool,
    ) -> (Matrix<i64>, FusedGemmStats) {
        let (m_tiles, n_tiles, _) = tile_counts(a.rows(), b.cols(), a.cols());
        self.tracker
            .record_kernel_launch((m_tiles * n_tiles) as u64);
        record_tile_walk(
            a,
            b,
            &Self::walk_config(skip_zero_words),
            &self.tracker,
            n_tiles as u64,
        );
        let (out, stats) =
            any_bit_gemm_fused_with_body(a, b, skip_zero_words, PopcountBody::detect());
        self.tracker
            .record_fused_words(stats.total_words, stats.skipped_words());
        self.tracker
            .record_dram_write((m_tiles * n_tiles) as u64 * ACC_TILE_BYTES);
        (out, stats)
    }

    fn any_bit_gemm_tiled(
        &self,
        a: &StackedBitMatrix,
        b: &StackedBitMatrix,
        skip_zero_words: bool,
        scheme: TilingScheme,
    ) -> (Matrix<i64>, FusedGemmStats) {
        if scheme.is_baseline() {
            return self.any_bit_gemm_with_stats(a, b, skip_zero_words);
        }
        // Same launch and analytic tile-walk charging as the unstaged call —
        // the zero-tile census is scheme-independent by construction — plus
        // the staged-panel double-buffer schedule.
        let (m_tiles, n_tiles, _) = tile_counts(a.rows(), b.cols(), a.cols());
        self.tracker
            .record_kernel_launch((m_tiles * n_tiles) as u64);
        record_tile_walk(
            a,
            b,
            &Self::walk_config(skip_zero_words),
            &self.tracker,
            n_tiles as u64,
        );
        let (out, stats) = any_bit_gemm_fused_with_scheme(
            a,
            b,
            skip_zero_words,
            PopcountBody::detect_staged(),
            scheme,
        );
        self.tracker
            .record_fused_words(stats.total_words, stats.skipped_words());
        self.tracker
            .record_dram_write((m_tiles * n_tiles) as u64 * ACC_TILE_BYTES);
        self.charge_panel_staging(a, b, scheme);
        (out, stats)
    }

    fn aggregate_condensed(
        &self,
        condensed: &CondensedAdjacency,
        features: &StackedBitMatrix,
    ) -> (Matrix<i64>, FusedGemmStats) {
        // Charge the condensed-tile walk into the backend-owned tracker so
        // the modeled-GPU story covers this kernel too: one launch whose grid
        // is (windows × output tile columns), dense MMAs over the condensed
        // grid, no zero checks, no skips.
        let (m_tiles, n_tiles, _) =
            tile_counts(condensed.rows(), features.cols(), condensed.cols());
        self.tracker
            .record_kernel_launch((condensed.windows().len() * n_tiles) as u64);
        record_condensed_walk(
            condensed,
            features.bits() as u64,
            &self.tracker,
            n_tiles as u64,
        );
        let (out, stats) =
            aggregate_adj_features_condensed(condensed, features, PopcountBody::detect());
        self.tracker
            .record_fused_words(stats.total_words, stats.skipped_words());
        self.tracker
            .record_dram_write((m_tiles * n_tiles) as u64 * ACC_TILE_BYTES);
        (out, stats)
    }
}

static PORTABLE: PortableBackend = PortableBackend;
static AVX512: Avx512Backend = Avx512Backend;

fn modeled_tc() -> &'static ModeledTcBackend {
    static MODELED: OnceLock<ModeledTcBackend> = OnceLock::new();
    MODELED.get_or_init(ModeledTcBackend::rtx3090)
}

/// The `QGTC_BACKEND` environment override, read once per process.
fn env_override() -> Option<BackendChoice> {
    static OVERRIDE: OnceLock<Option<BackendChoice>> = OnceLock::new();
    *OVERRIDE.get_or_init(|| {
        std::env::var("QGTC_BACKEND")
            .ok()
            .and_then(|raw| BackendChoice::from_name(&raw))
    })
}

/// What [`BackendChoice::Auto`] resolves to on this host: the `QGTC_BACKEND`
/// override when it names an available backend, else AVX-512 when the host
/// has it, else portable.  The modeled backend must be asked for by name —
/// its census walk is pure overhead when nobody reads the tracker.
pub fn resolve_auto() -> BackendChoice {
    if let Some(choice) = env_override() {
        if choice != BackendChoice::Auto && select_backend(choice).is_available() {
            return choice;
        }
    }
    if AVX512.is_available() {
        BackendChoice::Avx512
    } else {
        BackendChoice::Portable
    }
}

/// The popcount-body name a [`BackendChoice`]'s *staged* execution runs on —
/// the lookup key into the `TUNE_gemm.json` autotuner table.  The named
/// compute backends pin their own body; the modeled backend (and `Auto`,
/// transitively) uses the fastest staged body on the host.
pub fn staged_body_name(choice: BackendChoice) -> &'static str {
    match choice {
        BackendChoice::Auto => staged_body_name(resolve_auto()),
        BackendChoice::Portable => PopcountBody::Portable.name(),
        BackendChoice::Avx512 => PopcountBody::Avx512.name(),
        BackendChoice::ModeledTc => PopcountBody::detect_staged().name(),
    }
}

/// The backend a [`BackendChoice`] denotes on this host.
pub fn select_backend(choice: BackendChoice) -> &'static dyn GemmBackend {
    match choice {
        BackendChoice::Auto => select_backend(resolve_auto()),
        BackendChoice::Portable => &PORTABLE,
        BackendChoice::Avx512 => &AVX512,
        BackendChoice::ModeledTc => modeled_tc(),
    }
}

/// Every backend the workspace knows about, available on this host or not —
/// the population the conformance suite and the perfsmoke race draw from.
pub fn registered_backends() -> [&'static dyn GemmBackend; 3] {
    [&PORTABLE, &AVX512, modeled_tc()]
}

/// The registered backends that can run on this host.
pub fn available_backends() -> Vec<&'static dyn GemmBackend> {
    registered_backends()
        .into_iter()
        .filter(|b| b.is_available())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgtc_bitmat::BitMatrixLayout;
    use qgtc_tensor::rng::random_uniform_matrix;

    fn random_codes(rows: usize, cols: usize, bits: u32, seed: u64) -> Matrix<u32> {
        let max = (1u64 << bits) as f32;
        random_uniform_matrix(rows, cols, 0.0, max, seed)
            .map(|&v| (v as u32).min((1u32 << bits) - 1))
    }

    fn operands(m: usize, k: usize, n: usize, seed: u64) -> (StackedBitMatrix, StackedBitMatrix) {
        let a_codes = random_codes(m, k, 3, seed);
        let b_codes = random_codes(k, n, 2, seed ^ 0xBEEF);
        (
            StackedBitMatrix::from_codes(&a_codes, 3, BitMatrixLayout::RowPacked),
            StackedBitMatrix::from_codes(&b_codes, 2, BitMatrixLayout::ColPacked),
        )
    }

    #[test]
    fn choice_names_round_trip() {
        for choice in [
            BackendChoice::Auto,
            BackendChoice::Portable,
            BackendChoice::Avx512,
            BackendChoice::ModeledTc,
        ] {
            assert_eq!(BackendChoice::from_name(choice.name()), Some(choice));
        }
        assert_eq!(
            BackendChoice::from_name("MODELED_TC"),
            Some(BackendChoice::ModeledTc)
        );
        assert_eq!(BackendChoice::from_name("cuda"), None);
    }

    #[test]
    fn auto_resolves_to_an_available_compute_backend() {
        let resolved = resolve_auto();
        assert_ne!(resolved, BackendChoice::Auto);
        assert!(select_backend(resolved).is_available());
        if env_override().is_none() {
            // Without an override, auto never picks the modeled backend.
            assert_ne!(resolved, BackendChoice::ModeledTc);
            assert_eq!(
                resolved,
                if avx512_popcount_available() {
                    BackendChoice::Avx512
                } else {
                    BackendChoice::Portable
                }
            );
        }
    }

    #[test]
    fn registered_backends_cover_every_named_choice() {
        let names: Vec<&str> = registered_backends().iter().map(|b| b.name()).collect();
        assert_eq!(names, vec!["portable", "avx512", "modeled-tc"]);
        assert!(available_backends().iter().any(|b| b.name() == "portable"));
    }

    #[test]
    fn available_backends_match_the_portable_oracle() {
        let (a, b) = operands(9, 200, 7, 42);
        let (oracle, oracle_stats) = PORTABLE.any_bit_gemm_with_stats(&a, &b, true);
        for backend in available_backends() {
            let (out, stats) = backend.any_bit_gemm_with_stats(&a, &b, true);
            assert_eq!(out, oracle, "{} skip result", backend.name());
            assert_eq!(stats, oracle_stats, "{} skip stats", backend.name());
            assert_eq!(backend.any_bit_gemm(&a, &b), oracle, "{}", backend.name());
        }
    }

    #[test]
    fn modeled_backend_accumulates_cost_and_time() {
        let modeled = ModeledTcBackend::rtx3090();
        let (a, b) = operands(16, 256, 16, 7);
        let before = modeled.snapshot();
        let _ = modeled.any_bit_gemm(&a, &b);
        let after = modeled.snapshot();
        assert_eq!(after.kernel_launches, before.kernel_launches + 1);
        assert!(after.tc_b1_tiles > before.tc_b1_tiles);
        assert!(after.dram_write_bytes > before.dram_write_bytes);
        assert!(modeled.modeled_total_s() > 0.0);
        modeled.reset();
        assert_eq!(modeled.snapshot().kernel_launches, 0);
    }

    #[test]
    fn epilogue_entry_points_delegate_to_the_host_implementation() {
        let tracker = CostTracker::new();
        let acc = Matrix::from_vec(2, 2, vec![1i64, -2, 3, 4]).unwrap();
        let ep = FusedEpilogue::dequantize_only(0.5);
        let via_backend = select_backend(BackendChoice::Portable)
            .apply_epilogue(&ep, &acc, &tracker)
            .unwrap()
            .into_dense()
            .unwrap();
        let direct = ep
            .apply(&acc, &CostTracker::new())
            .unwrap()
            .into_dense()
            .unwrap();
        assert_eq!(via_backend, direct);
    }

    #[test]
    fn tiled_entry_matches_the_oracle_on_every_backend_and_scheme() {
        let (a, b) = operands(17, 300, 9, 99);
        for skip in [false, true] {
            let oracle = PORTABLE.any_bit_gemm_with_stats(&a, &b, skip);
            for scheme in ["8x4x0", "4x8x4", "1x1x1", "16x8x8", "32x4x1024"] {
                let scheme = TilingScheme::parse(scheme).unwrap();
                for backend in available_backends() {
                    let got = backend.any_bit_gemm_tiled(&a, &b, skip, scheme);
                    assert_eq!(
                        got,
                        oracle,
                        "{} scheme {scheme} skip {skip}",
                        backend.name()
                    );
                }
            }
        }
    }

    #[test]
    fn staged_body_names_key_the_tune_table() {
        assert_eq!(staged_body_name(BackendChoice::Portable), "portable");
        assert_eq!(staged_body_name(BackendChoice::Avx512), "avx512");
        for choice in [BackendChoice::Auto, BackendChoice::ModeledTc] {
            let name = staged_body_name(choice);
            assert!(
                ["portable", "avx2", "avx512"].contains(&name),
                "{choice:?} -> {name}"
            );
        }
    }

    #[test]
    fn modeled_backend_charges_staging_for_staged_schemes_only() {
        let modeled = ModeledTcBackend::rtx3090();
        let (a, b) = operands(16, 256, 16, 7);
        let _ = modeled.any_bit_gemm_tiled(&a, &b, true, TilingScheme::baseline());
        assert_eq!(
            modeled.staging_estimate().num_panels,
            0,
            "the baseline scheme stages nothing"
        );
        let before = modeled.snapshot();
        let scheme = TilingScheme::parse("8x4x2").unwrap();
        let _ = modeled.any_bit_gemm_tiled(&a, &b, true, scheme);
        let est = modeled.staging_estimate();
        // 2 row blocks x 4 column tiles x 2 K panels (pairs = 4, k_panel = 2).
        assert_eq!(est.num_panels, 16);
        assert!(est.overlapped_s <= est.serial_s);
        assert!(est.overlapped_s >= est.stage_s.max(est.compute_s) - 1e-18);
        assert!(est.overlap_speedup() >= 1.0);
        let after = modeled.snapshot();
        assert!(
            after.shared_bytes > before.shared_bytes,
            "staging copies must land in the shared-memory lane"
        );
        assert_eq!(after.kernel_launches, before.kernel_launches + 1);
        modeled.reset();
        assert_eq!(modeled.staging_estimate().num_panels, 0);
    }

    #[test]
    fn explicitly_selecting_unavailable_avx512_panics_on_use() {
        if avx512_popcount_available() {
            return; // nothing to assert on hosts where the backend works
        }
        let (a, b) = operands(2, 8, 2, 1);
        let result =
            std::panic::catch_unwind(|| select_backend(BackendChoice::Avx512).any_bit_gemm(&a, &b));
        assert!(result.is_err(), "unavailable body must refuse to run");
    }
}
