//! Fast, deterministic hashing for simulator-internal containers, the
//! workspace's stable [`fnv1a`] digest, and its one SplitMix64
//! finalizer, [`mix64`].
//!
//! `std`'s default `RandomState` (SipHash-1-3 with per-instance random
//! keys) is a DoS defence the simulator does not need: every key hashed
//! on the hot path is an internal `LineAddr`/`NodeId` pair, not
//! attacker-controlled input, and the per-lookup cost shows up directly
//! in events/sec. This module provides the Firefox/rustc "Fx" hash — a
//! single multiply-xor round per word — with a **fixed** (deterministic)
//! state, so hashes are identical across runs and processes.
//!
//! Determinism caveat: iteration order of a hash map is still
//! arbitrary-but-reproducible; containers whose iteration order can
//! influence simulation results must keep using `BTreeMap`/sorted
//! iteration (see the directory's line table). The aliases here are for
//! membership/lookup-only tables.

use std::hash::{BuildHasherDefault, Hasher};

/// The rustc-Fx multiply constant (64-bit golden-ratio-ish odd number).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One-multiply-per-word hasher with fixed initial state.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// Deterministic build-hasher for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` with the fast deterministic hasher (lookup-only tables;
/// see module docs for the iteration-order caveat).
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// `HashSet` with the fast deterministic hasher.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// FNV-1a-style digest over a byte slice: the workspace's one stable
/// digest. Result fingerprints, config and program digests, snapshot
/// checksums, and traffic-trace fingerprints all use it, so a mismatch in
/// any of them is comparable with the others across machines.
///
/// The multiplier is `0x1000_0000_01b3` (2^44 + 0x1b3), not the
/// published 64-bit FNV prime `0x100_0000_01b3`. Every committed
/// fingerprint golden was produced with it, so it stays: changing it
/// would change every digest.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.update(bytes);
    h.finish()
}

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit bijection. The
/// seeded event tie-break, the watchdog's progress signature, the RNG
/// seeding and the traffic-trace fingerprint all use it, so their
/// goldens pin it.
#[inline]
#[must_use]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Streaming [`fnv1a`]: bytes fed in pieces digest as their
/// concatenation would. As a [`std::fmt::Write`] sink it digests a
/// `Debug` rendering without materializing the string.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Feeds `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    /// The digest of everything fed so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_digests_are_pinned() {
        // Pinned so the multiplier cannot drift: every fingerprint
        // golden in the workspace depends on these exact values.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf74_d84c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0xf8ac_2471_f739_67e8);
    }

    #[test]
    fn streamed_fnv1a_matches_the_one_shot_digest() {
        use std::fmt::Write;
        let mut h = Fnv1a::default();
        write!(h, "{:?}", (b"foo", 42, "bar")).unwrap();
        assert_eq!(
            h.finish(),
            fnv1a(format!("{:?}", (b"foo", 42, "bar")).as_bytes())
        );
    }

    #[test]
    fn hashing_is_deterministic() {
        let h = |n: u64| {
            let mut h = FxHasher::default();
            h.write_u64(n);
            h.finish()
        };
        assert_eq!(h(42), h(42));
        assert_ne!(h(42), h(43));
        // Fixed across processes: pin one value so accidental
        // state-seeding regressions show up.
        assert_eq!(h(0), 0);
    }

    #[test]
    fn maps_and_sets_work() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        let mut s: FxHashSet<u64> = FxHashSet::default();
        assert!(s.insert(7));
        assert!(!s.insert(7));
        assert!(s.contains(&7));
    }

    #[test]
    fn byte_slices_hash_consistently() {
        let mut a = FxHasher::default();
        a.write(b"hello world, this is over eight bytes");
        let mut b = FxHasher::default();
        b.write(b"hello world, this is over eight bytes");
        assert_eq!(a.finish(), b.finish());
    }
}
