//! Deterministic random-number helpers.
//!
//! All workload generators in the reproduction (synthetic graphs, random embeddings,
//! random weights) must be reproducible from a single seed so that the experiment
//! binaries print the same tables run-to-run.  We use a tiny SplitMix64 generator for
//! internal helpers plus thin wrappers around `rand` for distributions.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::matrix::Matrix;

/// SplitMix64: a tiny, fast, well-distributed 64-bit PRNG.
///
/// Used where we need determinism without pulling a full `StdRng` through an API (for
/// example inside `const`-friendly helpers and tests).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform value in `[0, bound)`. `bound` must be non-zero.
    #[inline]
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next_u64() % bound
    }
}

/// Create a seeded `StdRng` (the strong generator used for synthetic datasets).
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Random `f32` matrix with entries uniform in `[lo, hi)`.
pub fn random_uniform_matrix(rows: usize, cols: usize, lo: f32, hi: f32, seed: u64) -> Matrix<f32> {
    let mut rng = seeded_rng(seed);
    let data = (0..rows * cols).map(|_| rng.gen_range(lo..hi)).collect();
    Matrix::from_vec(rows, cols, data).expect("length is rows*cols by construction")
}

/// Xavier/Glorot-style initialisation for a weight matrix of shape `fan_in x fan_out`.
pub fn xavier_init(fan_in: usize, fan_out: usize, seed: u64) -> Matrix<f32> {
    let limit = (6.0f32 / (fan_in + fan_out).max(1) as f32).sqrt();
    random_uniform_matrix(fan_in, fan_out, -limit, limit, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_f64_in_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn splitmix_bounded() {
        let mut r = SplitMix64::new(9);
        for _ in 0..1000 {
            assert!(r.next_bounded(17) < 17);
        }
    }

    #[test]
    fn uniform_matrix_respects_bounds_and_seed() {
        let a = random_uniform_matrix(10, 10, -2.0, 3.0, 5);
        assert!(a.data().iter().all(|&v| (-2.0..3.0).contains(&v)));
        let b = random_uniform_matrix(10, 10, -2.0, 3.0, 5);
        assert_eq!(a, b);
        let c = random_uniform_matrix(10, 10, -2.0, 3.0, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn xavier_limits_scale_with_fan() {
        let small = xavier_init(10, 10, 1);
        let (mn, mx) = small.min_max();
        let limit = (6.0f32 / 20.0).sqrt();
        assert!(mn >= -limit && mx <= limit);
    }
}
