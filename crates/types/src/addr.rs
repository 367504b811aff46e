//! Byte addresses, cache-line addresses, and per-word bit masks.
//!
//! The paper's processors track speculative state at word granularity:
//! each cache line carries one speculatively-read (SR) and one
//! speculatively-modified (SM) bit **per word** (§3.1, Fig. 1b). A
//! [`WordMask`] is the wire representation of those per-word flags — it
//! rides along `Mark` and `Invalidate` messages so the directory can do
//! fine-grained conflict detection.

use std::fmt;

use crate::ids::DirId;

/// A byte address in the global physical address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// Byte offset `n` past this address.
    #[must_use]
    pub fn offset(self, n: u64) -> Addr {
        Addr(self.0 + n)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// A cache-line address: a byte address with the intra-line offset
/// stripped (i.e. `byte_addr / line_bytes`).
///
/// All coherence state — directory sharer lists, marked/owned bits,
/// invalidations — is keyed by `LineAddr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L0x{:x}", self.0)
    }
}

/// Per-word flag bits for one cache line, used for word-granularity
/// speculative tracking and conflict detection.
///
/// Bit *i* corresponds to word *i* of the line. With the paper's default
/// geometry (32-byte lines, 4-byte words) eight bits are live; the mask
/// supports lines of up to 64 words (256-byte lines with 32-bit words).
///
/// # Example
///
/// ```
/// use tcc_types::WordMask;
/// let mut m = WordMask::EMPTY;
/// m.set(0);
/// m.set(3);
/// assert!(m.get(3) && !m.get(2));
/// assert!(m.intersects(WordMask::single(3)));
/// assert_eq!(m.count(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct WordMask(pub u64);

impl WordMask {
    /// A mask with no words selected.
    pub const EMPTY: WordMask = WordMask(0);
    /// A mask with every representable word selected.
    pub const ALL: WordMask = WordMask(u64::MAX);

    /// A mask with exactly one word selected.
    ///
    /// # Panics
    ///
    /// Panics if `word >= 64`.
    #[must_use]
    pub fn single(word: usize) -> WordMask {
        assert!(word < 64, "word index {word} out of range");
        WordMask(1 << word)
    }

    /// Selects word `word`.
    ///
    /// # Panics
    ///
    /// Panics if `word >= 64`.
    pub fn set(&mut self, word: usize) {
        assert!(word < 64, "word index {word} out of range");
        self.0 |= 1 << word;
    }

    /// Whether word `word` is selected. Out-of-range indices read as unset.
    #[must_use]
    pub fn get(self, word: usize) -> bool {
        word < 64 && self.0 & (1 << word) != 0
    }

    /// Whether any word is selected in both masks.
    #[must_use]
    pub fn intersects(self, other: WordMask) -> bool {
        self.0 & other.0 != 0
    }

    /// Union of two masks.
    #[must_use]
    pub fn union(self, other: WordMask) -> WordMask {
        WordMask(self.0 | other.0)
    }

    /// True if no word is selected.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of selected words.
    #[must_use]
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Iterates over the selected word indices in ascending order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        (0..64).filter(move |&i| self.0 & (1u64 << i) != 0)
    }
}

impl fmt::Binary for WordMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

/// The geometry tying byte addresses to lines, words, and home
/// directories.
///
/// Home assignment interleaves *lines* across directories
/// (`home = line mod n_dirs`) unless the workload explicitly places pages,
/// which the workload layer models by constructing addresses whose line
/// number is congruent to the desired home. The paper uses first-touch
/// page placement; our workload generators encode placement directly into
/// the addresses they emit (see `tcc-workloads`), so the interleaved
/// mapping here acts as the physical-address → home function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LineGeometry {
    line_bytes: u32,
    word_bytes: u32,
}

impl LineGeometry {
    /// Creates a geometry with `line_bytes`-byte cache lines and
    /// `word_bytes`-byte words.
    ///
    /// # Panics
    ///
    /// Panics unless both sizes are powers of two, `word_bytes` divides
    /// `line_bytes`, and the line holds at most 64 words (the capacity of
    /// a [`WordMask`]).
    #[must_use]
    pub fn new(line_bytes: u32, word_bytes: u32) -> LineGeometry {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            word_bytes.is_power_of_two(),
            "word size must be a power of two"
        );
        assert!(word_bytes <= line_bytes, "word larger than line");
        assert!(
            line_bytes / word_bytes <= 64,
            "at most 64 words per line are supported"
        );
        LineGeometry {
            line_bytes,
            word_bytes,
        }
    }

    /// Bytes per cache line.
    #[must_use]
    pub fn line_bytes(self) -> u32 {
        self.line_bytes
    }

    /// Bytes per word.
    #[must_use]
    pub fn word_bytes(self) -> u32 {
        self.word_bytes
    }

    /// Words per cache line.
    #[must_use]
    pub fn words_per_line(self) -> u32 {
        self.line_bytes / self.word_bytes
    }

    /// The cache line containing byte address `a`.
    #[must_use]
    pub fn line_of(self, a: Addr) -> LineAddr {
        LineAddr(a.0 / u64::from(self.line_bytes))
    }

    /// The first byte address of line `l`.
    #[must_use]
    pub fn base_of(self, l: LineAddr) -> Addr {
        Addr(l.0 * u64::from(self.line_bytes))
    }

    /// The word index of byte address `a` within its line.
    #[must_use]
    pub fn word_index(self, a: Addr) -> usize {
        ((a.0 % u64::from(self.line_bytes)) / u64::from(self.word_bytes)) as usize
    }

    /// The home directory of line `l` in a machine with `n_dirs`
    /// directories (line-interleaved).
    ///
    /// # Panics
    ///
    /// Panics if `n_dirs` is zero.
    #[must_use]
    pub fn home_of(self, l: LineAddr, n_dirs: usize) -> DirId {
        assert!(n_dirs > 0, "machine must have at least one directory");
        DirId((l.0 % n_dirs as u64) as u16)
    }

    /// Builds a byte address for word `word` of line `line`.
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range for this geometry.
    #[must_use]
    pub fn make_addr(self, line: LineAddr, word: usize) -> Addr {
        assert!(
            (word as u32) < self.words_per_line(),
            "word {word} out of range for {}-byte lines",
            self.line_bytes
        );
        Addr(line.0 * u64::from(self.line_bytes) + word as u64 * u64::from(self.word_bytes))
    }
}

impl Default for LineGeometry {
    /// The paper's default: 32-byte lines, 32-bit (4-byte) words.
    fn default() -> LineGeometry {
        LineGeometry::new(32, 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_roundtrip() {
        let g = LineGeometry::default();
        assert_eq!(g.words_per_line(), 8);
        let a = Addr(0x104c);
        let l = g.line_of(a);
        assert_eq!(l, LineAddr(0x104c / 32));
        assert_eq!(g.word_index(a), (0x104c % 32) / 4);
        assert_eq!(g.make_addr(l, g.word_index(a)), Addr(0x104c));
        assert_eq!(g.base_of(l), Addr(0x1040));
    }

    #[test]
    fn homes_interleave_lines() {
        let g = LineGeometry::default();
        for n in [1usize, 2, 4, 32, 64] {
            for line in 0..200u64 {
                let d = g.home_of(LineAddr(line), n);
                assert_eq!(u64::from(d.0), line % n as u64);
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn geometry_rejects_non_power_of_two() {
        let _ = LineGeometry::new(48, 4);
    }

    #[test]
    #[should_panic(expected = "64 words")]
    fn geometry_rejects_too_many_words() {
        let _ = LineGeometry::new(512, 4);
    }

    #[test]
    fn word_mask_ops() {
        let mut m = WordMask::EMPTY;
        assert!(m.is_empty());
        m.set(2);
        m.set(5);
        assert_eq!(m.count(), 2);
        assert!(m.get(2) && m.get(5) && !m.get(3));
        assert!(!m.get(200));
        assert!(m.intersects(WordMask::single(5)));
        assert!(!m.intersects(WordMask::single(4)));
        assert_eq!(m.union(WordMask::single(4)).count(), 3);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![2, 5]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn word_mask_set_rejects_large_index() {
        let mut m = WordMask::EMPTY;
        m.set(64);
    }

    mod props {
        use super::*;
        use crate::rng::SmallRng;

        const CASES: usize = 512;

        /// Union is commutative, intersects is symmetric, and count is
        /// additive for disjoint masks.
        #[test]
        fn word_mask_algebra() {
            let mut rng = SmallRng::seed_from_u64(0xadd7_0001);
            for _ in 0..CASES {
                let (a, b) = (rng.gen::<u64>(), rng.gen::<u64>());
                let (ma, mb) = (WordMask(a), WordMask(b));
                assert_eq!(ma.union(mb), mb.union(ma));
                assert_eq!(ma.intersects(mb), mb.intersects(ma));
                assert_eq!(ma.union(mb).count(), (a | b).count_ones());
                let disjoint = WordMask(a & !b);
                assert_eq!(disjoint.union(mb).count(), disjoint.count() + mb.count());
            }
        }

        /// iter() yields exactly the set bits, in ascending order.
        #[test]
        fn word_mask_iter_matches_bits() {
            let mut rng = SmallRng::seed_from_u64(0xadd7_0002);
            for _ in 0..CASES {
                let m = WordMask(rng.gen::<u64>());
                let idxs: Vec<usize> = m.iter().collect();
                assert_eq!(idxs.len() as u32, m.count());
                assert!(idxs.windows(2).all(|w| w[0] < w[1]));
                for &i in &idxs {
                    assert!(m.get(i));
                }
            }
        }

        /// Address <-> (line, word) round-trips under any power-of-two
        /// geometry.
        #[test]
        fn geometry_roundtrip_any() {
            let mut rng = SmallRng::seed_from_u64(0xadd7_0003);
            for _ in 0..CASES {
                let line = rng.gen_range(0u64..1_000_000);
                let word = rng.gen_range(0usize..8);
                let g = LineGeometry::new(32, 4);
                let a = g.make_addr(LineAddr(line), word);
                assert_eq!(g.line_of(a), LineAddr(line));
                assert_eq!(g.word_index(a), word);
            }
        }

        /// Home assignment is stable and in range.
        #[test]
        fn homes_in_range() {
            let mut rng = SmallRng::seed_from_u64(0xadd7_0004);
            for _ in 0..CASES {
                let line = rng.gen::<u64>();
                let n = rng.gen_range(1usize..128);
                let g = LineGeometry::default();
                let h = g.home_of(LineAddr(line), n);
                assert!(h.index() < n);
                assert_eq!(h, g.home_of(LineAddr(line), n));
            }
        }
    }

    #[test]
    fn addr_offset_and_display() {
        assert_eq!(Addr(0x10).offset(0x10), Addr(0x20));
        assert_eq!(Addr(255).to_string(), "0xff");
        assert_eq!(LineAddr(255).to_string(), "L0xff");
        assert_eq!(format!("{:b}", WordMask(5)), "101");
    }
}
