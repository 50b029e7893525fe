//! Which popcount body a kernel call runs on.
//!
//! QGTC computes one any-bitwidth GEMM (Algorithm 1) behind one framework
//! entry, `bitMM2Int`.  On the host that GEMM has two interchangeable
//! popcount bodies, both bitwise identical to the serial oracle
//! `any_bit_gemm_serial` (checked by `tests/backend_conformance.rs`):
//!
//! * [`PopcountBody::Portable`] — the scalar `u64::count_ones` loop, always
//!   available; it runs the legacy kernel;
//! * [`PopcountBody::Avx512`] — `VPOPCNTDQ`, runtime-detected; it runs the
//!   broadcast kernel (`qgtc_bitmat::fused`).
//!
//! Callers pick one with [`BackendChoice`] (stored on [`KernelConfig`] and
//! surfaced as `QgtcConfig::backend`), and [`BackendChoice::body`] resolves
//! it.  `Auto` resolves to AVX-512 when the host has it, else portable.
//! Modeled GPU cost is not a backend: every GEMM runs through
//! [`crate::bmm::qgtc_bmm`], which charges the caller's `CostTracker`.
//!
//! [`KernelConfig`]: crate::bmm::KernelConfig

use qgtc_bitmat::fused::PopcountBody;

/// Which popcount body a kernel call should run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// Resolve at call time: AVX-512 if the host supports it, else portable.
    #[default]
    Auto,
    /// The scalar popcount body, always available.
    Portable,
    /// The AVX-512 `VPOPCNTDQ` body.  On a host that lacks it the pipeline
    /// entry points return `InvalidConfig` and a direct kernel call panics.
    Avx512,
}

impl BackendChoice {
    /// Canonical name; an explicit choice shares its body's name.
    pub fn name(self) -> &'static str {
        match self {
            BackendChoice::Auto => "auto",
            BackendChoice::Portable => "portable",
            BackendChoice::Avx512 => "avx512",
        }
    }

    /// The popcount body this choice runs on; `Auto` resolves through
    /// [`resolve_auto`].
    pub fn body(self) -> PopcountBody {
        match self {
            BackendChoice::Auto => resolve_auto().body(),
            BackendChoice::Portable => PopcountBody::Portable,
            BackendChoice::Avx512 => PopcountBody::Avx512,
        }
    }
}

/// What [`BackendChoice::Auto`] resolves to on this host: AVX-512 when the
/// host has it, else portable.
pub fn resolve_auto() -> BackendChoice {
    match PopcountBody::detect() {
        PopcountBody::Avx512 => BackendChoice::Avx512,
        PopcountBody::Portable => BackendChoice::Portable,
    }
}

/// The name of the popcount body a [`BackendChoice`] runs on, as host
/// fingerprints and benchmark reports record it.
pub fn staged_body_name(choice: BackendChoice) -> &'static str {
    choice.body().name()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgtc_bitmat::fused::avx512_popcount_available;

    #[test]
    fn auto_resolves_to_an_available_body() {
        let resolved = resolve_auto();
        assert_eq!(resolved.body(), PopcountBody::detect());
        assert!(BackendChoice::Auto.body().is_available());
        assert_eq!(
            resolved,
            if avx512_popcount_available() {
                BackendChoice::Avx512
            } else {
                BackendChoice::Portable
            }
        );
    }

    #[test]
    fn choices_name_the_body_they_run_on() {
        assert_eq!(staged_body_name(BackendChoice::Portable), "portable");
        assert_eq!(staged_body_name(BackendChoice::Avx512), "avx512");
        assert_eq!(
            staged_body_name(BackendChoice::Auto),
            BackendChoice::Auto.body().name()
        );
    }
}
