//! Word-packing helpers and Tensor-Core padding rules.
//!
//! The 1-bit Tensor Core tile is `M(8) x N(8) x K(128)`: the reduction dimension K
//! must be a multiple of 128 bits and the M/N dimensions multiples of 8.  QGTC
//! therefore pads operands with `PAD8` and `PAD128` before packing 32 consecutive
//! bits into one little-endian `u32` word (§4.2, Figure 4).  These helpers implement
//! the padding arithmetic and the bit<->word conversions shared by both packed
//! layouts.

/// Number of bits per packed word.
pub const WORD_BITS: usize = 32;

/// M/N-dimension granularity of the 1-bit Tensor Core tile.
pub const TILE_MN: usize = 8;

/// K-dimension granularity of the 1-bit Tensor Core tile (in bits).
pub const TILE_K: usize = 128;

/// Number of `u32` words along the K dimension of one Tensor Core tile.
pub const TILE_K_WORDS: usize = TILE_K / WORD_BITS;

/// Round `x` up to a multiple of 8 (paper: `PAD8`).
#[inline]
pub const fn pad8(x: usize) -> usize {
    x.div_ceil(TILE_MN) * TILE_MN
}

/// Round `x` up to a multiple of 128 (paper: `PAD128`).
#[inline]
pub const fn pad128(x: usize) -> usize {
    x.div_ceil(TILE_K) * TILE_K
}

/// Number of `u32` words needed to hold `bits` bits after PAD128 padding.
#[inline]
pub const fn padded_words(bits: usize) -> usize {
    pad128(bits) / WORD_BITS
}

/// Pack a slice of bit values (`0`/`1`, stored one per `u8`) into little-endian words:
/// bit `i` of the input lands in word `i / 32`, bit position `i % 32`.
pub fn pack_bits_le(bits: &[u8]) -> Vec<u32> {
    let num_words = bits.len().div_ceil(WORD_BITS);
    let mut words = vec![0u32; num_words];
    pack_bits_le_into(bits, &mut words);
    words
}

/// [`pack_bits_le`] into a caller-provided word slice — the allocation-free
/// form behind the packed-buffer pool's recycling constructors.  The slice
/// must hold at least `bits.len().div_ceil(32)` words and be pre-zeroed
/// (bits are OR-ed in, never cleared).
pub fn pack_bits_le_into(bits: &[u8], words: &mut [u32]) {
    debug_assert!(
        words.len() >= bits.len().div_ceil(WORD_BITS),
        "pack_bits_le_into: {} words cannot hold {} bits",
        words.len(),
        bits.len()
    );
    for (i, &b) in bits.iter().enumerate() {
        debug_assert!(b <= 1, "pack_bits_le expects 0/1 values, got {b}");
        if b != 0 {
            words[i / WORD_BITS] |= 1u32 << (i % WORD_BITS);
        }
    }
}

/// Unpack little-endian words back into one bit per `u8`, producing exactly `len` bits.
pub fn unpack_bits_le(words: &[u32], len: usize) -> Vec<u8> {
    assert!(
        len <= words.len() * WORD_BITS,
        "cannot unpack {len} bits from {} words",
        words.len()
    );
    (0..len)
        .map(|i| ((words[i / WORD_BITS] >> (i % WORD_BITS)) & 1) as u8)
        .collect()
}

/// Population count over a packed word slice.
#[inline]
pub fn popcount_words(words: &[u32]) -> u32 {
    words.iter().map(|w| w.count_ones()).sum()
}

/// AND + popcount between two equally long packed word slices — the binary dot
/// product `popcnt(a & b)` of Equation 7 in the paper.
#[inline]
pub fn and_popcount(a: &[u32], b: &[u32]) -> u32 {
    debug_assert_eq!(a.len(), b.len(), "and_popcount length mismatch");
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x & y).count_ones())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padding_rules() {
        assert_eq!(pad8(0), 0);
        assert_eq!(pad8(1), 8);
        assert_eq!(pad8(8), 8);
        assert_eq!(pad8(9), 16);
        assert_eq!(pad128(0), 0);
        assert_eq!(pad128(1), 128);
        assert_eq!(pad128(128), 128);
        assert_eq!(pad128(129), 256);
        assert_eq!(padded_words(1), 4);
        assert_eq!(padded_words(128), 4);
        assert_eq!(padded_words(200), 8);
    }

    #[test]
    fn pack_unpack_round_trip() {
        let bits: Vec<u8> = (0..70).map(|i| (i % 3 == 0) as u8).collect();
        let words = pack_bits_le(&bits);
        assert_eq!(words.len(), 3);
        assert_eq!(unpack_bits_le(&words, 70), bits);
    }

    #[test]
    fn pack_is_little_endian() {
        // Bit 0 set -> word 0 LSB; bit 33 set -> word 1, bit 1.
        let mut bits = vec![0u8; 40];
        bits[0] = 1;
        bits[33] = 1;
        let words = pack_bits_le(&bits);
        assert_eq!(words[0], 1);
        assert_eq!(words[1], 2);
    }

    #[test]
    #[should_panic(expected = "cannot unpack")]
    fn unpack_rejects_overrun() {
        let _ = unpack_bits_le(&[0u32], 33);
    }

    #[test]
    fn popcount_helpers() {
        assert_eq!(popcount_words(&[0b1011, 0b1]), 4);
        assert_eq!(
            and_popcount(&[0b1100, 0xFFFF_FFFF], &[0b0110, 0x0000_00FF]),
            9
        );
    }

    #[test]
    fn and_popcount_is_binary_dot_product() {
        let a_bits: Vec<u8> = vec![1, 0, 1, 1, 0, 0, 1, 0];
        let b_bits: Vec<u8> = vec![1, 1, 0, 1, 0, 1, 1, 0];
        let expected: u32 = a_bits
            .iter()
            .zip(b_bits.iter())
            .map(|(&x, &y)| (x & y) as u32)
            .sum();
        let a = pack_bits_le(&a_bits);
        let b = pack_bits_le(&b_bits);
        assert_eq!(and_popcount(&a, &b), expected);
    }
}
