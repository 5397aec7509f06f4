//! One fixed, deterministic hasher for the simulator's integer-keyed maps.
//!
//! Almost every map the run loop touches is keyed by a line, page or
//! 2 MB-aligned address, a packet id or a uop id. std's default SipHash
//! with a per-process random seed is built to resist adversarial keys,
//! which a simulator never sees, and pays for that on every lookup.
//! [`FastHasher`] instead multiplies the key by a 64-bit odd constant into
//! a 128-bit product and folds it (high half XOR low half).
//!
//! The fold matters. A plain multiply (Fx-style) keeps the key's trailing
//! zero bits: every line address times an odd constant still ends in six
//! zero bits, so the low bits std's `HashMap` uses as the bucket index
//! take only a few values and aligned keys pile into a few buckets. The
//! high half of the product depends on every key bit, and XOR-ing it in
//! spreads aligned keys about as evenly as a random hash would.
//!
//! The order in which a map iterates is now the same in every process.
//! No simulated result depends on it: the std hasher already iterated in
//! a different random order in every process, and results reproduce byte
//! for byte.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// ⌊2⁶⁴ / φ⌋ (odd): the multiplier of Fibonacci hashing.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Folded-multiply hasher for integer keys (see the module docs).
#[derive(Default)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        let m = u128::from(self.0 ^ x) * u128::from(K);
        self.0 = (m >> 64) as u64 ^ m as u64;
    }

    /// Other key types arrive as bytes, taken eight at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed with [`FastHasher`]; build with `FastMap::default()`.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` hashed with [`FastHasher`]; build with `FastSet::default()`.
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(x: T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(x)
    }

    /// Distinct values of the low 16 bits (the bucket index of a table
    /// with 65,536 buckets) over 65,536 keys `i * stride`.
    fn low16_fill(h: impl Fn(u64) -> u64, stride: u64) -> usize {
        let mut seen = vec![false; 1 << 16];
        for i in 0..1u64 << 16 {
            seen[(h(i * stride) & 0xffff) as usize] = true;
        }
        seen.iter().filter(|&&b| b).count()
    }

    #[test]
    fn aligned_keys_fill_the_low_bits() {
        for stride in [64, 4096, 2 << 20] {
            let fill = low16_fill(hash_of::<u64>, stride);
            assert!(fill >= 1 << 15, "stride {stride}: {fill} of 65536 low-16-bit values");
        }
    }

    #[test]
    fn multiply_only_hash_fails_the_fill_test() {
        // The check above is not vacuous: without the fold, line-aligned
        // keys reach only 1,024 of the 65,536 low-16-bit values.
        let fill = low16_fill(|x| x.wrapping_mul(K), 64);
        assert!(fill < 1 << 15, "{fill}");
    }

    #[test]
    fn hash_is_fixed_and_order_sensitive() {
        assert_eq!(hash_of(0x1234_5678u64), hash_of(0x1234_5678u64));
        assert_ne!(hash_of((1usize, 2u64)), hash_of((2usize, 1u64)));
        assert_ne!(hash_of("ab"), hash_of("ba"));
    }
}
