//! The one hasher for exact keys in this crate.
//!
//! Every map here is keyed by exact values that an analysis built:
//! canonical row directions and sign-canonical rows. A lookup
//! confirms each match by full-key equality, and no output depends on
//! iteration order, so the hash only has to spread keys, not resist an
//! adversary. The keys come from the analysis's own rows, so a crafted
//! program can at worst slow down its own analysis. std's SipHash costs
//! several times more per word than the rotate–xor–multiply step below
//! (the FxHash scheme), and the random seed of std's maps buys nothing
//! here.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Deterministic multiplicative word hasher: one rotate, xor and
/// multiply per word written.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct WordHasher(u64);

/// A [`HashMap`] keyed through [`WordHasher`].
pub(crate) type ExactMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

impl WordHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    /// One step per byte; only heap `BigInt` limbs take this path.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(v: &T) -> u64 {
        BuildHasherDefault::<WordHasher>::default().hash_one(v)
    }

    #[test]
    fn deterministic_and_spreads_small_keys() {
        assert_eq!(hash(&vec![1i64, -2, 3]), hash(&vec![1i64, -2, 3]));
        assert_ne!(hash(&vec![1i64, -2, 3]), hash(&vec![-2i64, 1, 3]));
        // Consecutive keys land in distinct buckets of a 64-slot table
        // (the multiplier is odd).
        let buckets: std::collections::BTreeSet<u64> = (0u64..64).map(|i| hash(&i) & 63).collect();
        assert_eq!(buckets.len(), 64);
    }
}
