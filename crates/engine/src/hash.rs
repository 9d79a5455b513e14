//! Deterministic fixed-function hashing for simulator-internal maps.
//!
//! std's default `HashMap` hasher is SipHash keyed per process — HashDoS
//! hardening that buys nothing for a simulator hashing its own keys. Three
//! maps use these aliases: [`FastSet`] holds each `CacheArray`'s
//! coherence-invalidated lines (touched on every fill and every coherence
//! invalidation), and [`FastMap`] holds the resume journal's rows and
//! `PhysMem`'s page index (looked up whenever a data access or a fetch
//! leaves the page it last touched). They swap in a multiply-fold hasher
//! in the FxHash family: one rotate-xor-multiply per 8-byte word, no
//! per-process key, so map behaviour is identical across runs and the hash
//! of a line address costs less than the cache lookup next to it.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-fold hasher (FxHash-style): `h = rotl(h, 5) ^ w) * SEED` per
/// word. Not HashDoS-resistant by design — keys here are simulator line
/// addresses, not attacker input.
#[derive(Debug, Default, Clone)]
pub struct FastHasher {
    hash: u64,
}

/// Odd multiplier from the FxHash lineage (truncated golden-ratio word).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FastHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for w in &mut chunks {
            self.fold(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut w = [0u8; 8];
            w[..rem.len()].copy_from_slice(rem);
            self.fold(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.fold(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.fold(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.fold(u64::from(n));
    }
}

/// `BuildHasher` for [`FastHasher`] (no per-process state).
pub type BuildFastHasher = BuildHasherDefault<FastHasher>;

/// `HashMap` keyed by the deterministic [`FastHasher`].
pub type FastMap<K, V> = std::collections::HashMap<K, V, BuildFastHasher>;

/// `HashSet` keyed by the deterministic [`FastHasher`].
pub type FastSet<T> = std::collections::HashSet<T, BuildFastHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = FastHasher::default();
        let mut b = FastHasher::default();
        a.write_u64(0xdead_beef);
        b.write_u64(0xdead_beef);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn distinguishes_nearby_addresses() {
        let h = |n: u64| {
            let mut h = FastHasher::default();
            h.write_u64(n);
            h.finish()
        };
        // Line addresses differ in low bits; the hash must spread them.
        assert_ne!(h(0x1000), h(0x1020));
        assert_ne!(h(0x1000) & 0xfff, h(0x1020) & 0xfff);
    }

    #[test]
    fn byte_stream_matches_word_writes_for_whole_words() {
        let mut a = FastHasher::default();
        a.write(&0x0123_4567_89ab_cdefu64.to_le_bytes());
        let mut b = FastHasher::default();
        b.write_u64(0x0123_4567_89ab_cdef);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FastMap<u64, u32> = FastMap::default();
        m.insert(0x40, 1);
        assert_eq!(m.get(&0x40), Some(&1));
        let mut s: FastSet<u64> = FastSet::default();
        s.insert(0x40);
        assert!(s.contains(&0x40));
    }
}
