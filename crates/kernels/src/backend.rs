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
//! it.  `Auto` resolves to the `QGTC_BACKEND` environment override when it
//! names an available body, else AVX-512 when the host has it, else portable.
//! Modeled GPU cost is not a backend: every GEMM runs through
//! [`crate::bmm::qgtc_bmm`], which charges the caller's `CostTracker`.
//!
//! [`KernelConfig`]: crate::bmm::KernelConfig

use qgtc_bitmat::fused::PopcountBody;
use std::sync::OnceLock;

/// Which popcount body a kernel call should run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// Resolve at call time: the `QGTC_BACKEND` environment override if set
    /// and available, else AVX-512 if the host supports it, else portable.
    #[default]
    Auto,
    /// The scalar popcount body, always available.
    Portable,
    /// The AVX-512 `VPOPCNTDQ` body (panics on use if the host lacks it).
    Avx512,
}

impl BackendChoice {
    /// Parse a backend name as accepted by the `QGTC_BACKEND` environment
    /// variable.  Returns `None` for unknown names.
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "auto" => Some(BackendChoice::Auto),
            "portable" => Some(BackendChoice::Portable),
            "avx512" => Some(BackendChoice::Avx512),
            _ => None,
        }
    }

    /// Canonical name, matching what [`BackendChoice::from_name`] parses.
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

/// Parse a `QGTC_BACKEND` value (`None` when the variable is unset).  An
/// unknown name is an error that lists the valid ones.
fn parse_backend_env(raw: Option<&str>) -> Result<Option<BackendChoice>, String> {
    raw.map(|name| {
        BackendChoice::from_name(name)
            .ok_or_else(|| format!("QGTC_BACKEND={name:?} is not a backend (auto|portable|avx512)"))
    })
    .transpose()
}

/// The `QGTC_BACKEND` environment override, read and parsed once per process.
pub fn env_backend() -> &'static Result<Option<BackendChoice>, String> {
    static OVERRIDE: OnceLock<Result<Option<BackendChoice>, String>> = OnceLock::new();
    OVERRIDE.get_or_init(|| parse_backend_env(std::env::var("QGTC_BACKEND").ok().as_deref()))
}

/// What [`BackendChoice::Auto`] resolves to on this host: the `QGTC_BACKEND`
/// override when it names an available body, else AVX-512 when the host has
/// it, else portable.
///
/// # Panics
///
/// Panics when `QGTC_BACKEND` holds an unknown name.  The pipeline entry
/// points reject that earlier with a typed error (`QgtcConfig::validate`).
pub fn resolve_auto() -> BackendChoice {
    match env_backend() {
        Ok(Some(choice)) if *choice != BackendChoice::Auto && choice.body().is_available() => {
            *choice
        }
        Ok(_) => match PopcountBody::detect() {
            PopcountBody::Avx512 => BackendChoice::Avx512,
            PopcountBody::Portable => BackendChoice::Portable,
        },
        Err(err) => panic!("{err}"),
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
    fn choice_names_round_trip() {
        for choice in [
            BackendChoice::Auto,
            BackendChoice::Portable,
            BackendChoice::Avx512,
        ] {
            assert_eq!(BackendChoice::from_name(choice.name()), Some(choice));
        }
        assert_eq!(
            BackendChoice::from_name("AVX512"),
            Some(BackendChoice::Avx512)
        );
        assert_eq!(BackendChoice::from_name("cuda"), None);
    }

    #[test]
    fn backend_env_parser_names_the_valid_values_on_a_typo() {
        assert_eq!(parse_backend_env(None), Ok(None));
        assert_eq!(
            parse_backend_env(Some("portable")),
            Ok(Some(BackendChoice::Portable))
        );
        assert_eq!(
            parse_backend_env(Some("Auto")),
            Ok(Some(BackendChoice::Auto))
        );
        for typo in ["modeled-tc", "avx2", "", "portable "] {
            let err = parse_backend_env(Some(typo)).unwrap_err();
            assert!(err.contains(&format!("{typo:?}")), "{err}");
            assert!(err.contains("auto|portable|avx512"), "{err}");
        }
    }

    #[test]
    fn auto_resolves_to_an_available_body() {
        if !matches!(env_backend(), Ok(None)) {
            return; // the override is exercised by the parser test
        }
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
