//! Small, self-contained, seeded pseudo-random number generator.
//!
//! The simulator only ever needs *deterministic* randomness: workload
//! generators and stress tests derive every stream from an explicit
//! seed so runs are reproducible bit-for-bit. A tiny xoshiro256**
//! generator (seeded through SplitMix64) covers that need without an
//! external dependency, which keeps `cargo build`/`cargo test` fully
//! offline. The API mirrors the subset of `rand::rngs::SmallRng` the
//! codebase used — `seed_from_u64`, `gen`, `gen_range`, `gen_bool` —
//! so call sites read identically.
//!
//! Not cryptographically secure; never use for security purposes.

/// Deterministic xoshiro256** generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    s: [u64; 4],
}

// A checkpoint saves the raw xoshiro256** words: restoring them
// reproduces the identical tail sequence.
crate::snap_fields!(SmallRng { s });

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    crate::hash::mix64(*state)
}

impl SmallRng {
    /// Expand a 64-bit seed into the full generator state.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SmallRng { s }
    }

    /// Next raw 64-bit output (xoshiro256**).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Uniform value of type `T` over its full domain (`[0, 1)` for
    /// floats).
    #[inline]
    pub fn gen<T: Rand>(&mut self) -> T {
        T::rand(self)
    }

    /// Uniform value in the given (half-open or inclusive) range.
    /// Panics on an empty range, matching `rand`'s contract. The
    /// element type drives inference, so `gen_range(1..200)` adapts to
    /// the expected output type like `rand`'s did.
    #[inline]
    pub fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: std::ops::RangeBounds<T>,
    {
        T::sample_range(self, &range)
    }

    /// Bernoulli trial: `true` with probability `p`.
    ///
    /// `p` outside `[0, 1]` saturates (p >= 1 is always true).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }

    /// Uniform f64 in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform u64 in `[0, span)` via 128-bit multiply-shift.
    #[inline]
    fn below(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }
}

/// Types that can be sampled uniformly over their whole domain.
pub trait Rand {
    fn rand(rng: &mut SmallRng) -> Self;
}

impl Rand for u64 {
    #[inline]
    fn rand(rng: &mut SmallRng) -> Self {
        rng.next_u64()
    }
}

impl Rand for u32 {
    #[inline]
    fn rand(rng: &mut SmallRng) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Rand for usize {
    #[inline]
    fn rand(rng: &mut SmallRng) -> Self {
        rng.next_u64() as usize
    }
}

impl Rand for bool {
    #[inline]
    fn rand(rng: &mut SmallRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Rand for f64 {
    #[inline]
    fn rand(rng: &mut SmallRng) -> Self {
        rng.unit_f64()
    }
}

/// Element types [`SmallRng::gen_range`] can sample uniformly.
pub trait SampleUniform: Sized + Copy {
    fn sample_range<R: std::ops::RangeBounds<Self>>(rng: &mut SmallRng, range: &R) -> Self;
}

macro_rules! int_uniform_impls {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_range<R: std::ops::RangeBounds<Self>>(
                rng: &mut SmallRng,
                range: &R,
            ) -> Self {
                use std::ops::Bound;
                let lo: $t = match range.start_bound() {
                    Bound::Included(&v) => v,
                    Bound::Excluded(&v) => v.checked_add(1)
                        .expect("gen_range: start overflow"),
                    Bound::Unbounded => <$t>::MIN,
                };
                // Span as a modular u64 difference; correct for signed
                // types because `as u64` sign-extends.
                let (span, full) = match range.end_bound() {
                    Bound::Included(&v) => {
                        assert!(lo <= v, "gen_range: empty range");
                        let s = (v as u64).wrapping_sub(lo as u64).wrapping_add(1);
                        (s, s == 0)
                    }
                    Bound::Excluded(&v) => {
                        assert!(lo < v, "gen_range: empty range");
                        ((v as u64).wrapping_sub(lo as u64), false)
                    }
                    Bound::Unbounded => {
                        let s = (<$t>::MAX as u64).wrapping_sub(lo as u64).wrapping_add(1);
                        (s, s == 0)
                    }
                };
                if full {
                    // Entire 64-bit domain.
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}

int_uniform_impls!(u8, u16, u32, u64, usize, i32, i64);

impl SampleUniform for f64 {
    #[inline]
    fn sample_range<R: std::ops::RangeBounds<Self>>(rng: &mut SmallRng, range: &R) -> Self {
        use std::ops::Bound;
        let lo = match range.start_bound() {
            Bound::Included(&v) | Bound::Excluded(&v) => v,
            Bound::Unbounded => panic!("gen_range: unbounded f64 range"),
        };
        let hi = match range.end_bound() {
            Bound::Included(&v) | Bound::Excluded(&v) => v,
            Bound::Unbounded => panic!("gen_range: unbounded f64 range"),
        };
        assert!(lo <= hi, "gen_range: empty range");
        lo + rng.unit_f64() * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn state_round_trip_reproduces_identical_tail() {
        // The checkpoint contract: a generator saved and loaded
        // mid-stream is indistinguishable from never having stopped,
        // across every consumption path (raw words, bounded ints,
        // floats, bools).
        let mut live = SmallRng::seed_from_u64(0xc0ffee);
        for _ in 0..123 {
            let _ = live.next_u64();
        }
        let mut w = crate::snap::SnapWriter::new();
        w.put(&live);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 32, "the four state words");
        let mut resumed: SmallRng = crate::snap::SnapReader::new(&bytes).get().unwrap();
        for i in 0..2048 {
            match i % 4 {
                0 => assert_eq!(live.next_u64(), resumed.next_u64(), "word {i}"),
                1 => assert_eq!(
                    live.gen_range(0u64..97),
                    resumed.gen_range(0u64..97),
                    "range {i}"
                ),
                2 => {
                    let (a, b) = (live.gen::<f64>(), resumed.gen::<f64>());
                    assert!((a - b).abs() == 0.0, "float {i}: {a} != {b}");
                }
                _ => assert_eq!(live.gen_bool(0.3), resumed.gen_bool(0.3), "bool {i}"),
            }
        }
        assert_eq!(live, resumed);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(3u64..17);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(5usize..=9);
            assert!((5..=9).contains(&w));
            let f = rng.gen_range(-2.0..=3.0);
            assert!((-2.0..=3.0).contains(&f));
            let u = rng.gen::<f64>();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn singleton_inclusive_range() {
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(rng.gen_range(4u32..=4), 4);
        }
    }

    #[test]
    fn gen_bool_extremes_and_rate() {
        let mut rng = SmallRng::seed_from_u64(11);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate} too far from 0.25");
    }

    #[test]
    fn range_values_cover_every_bucket() {
        let mut rng = SmallRng::seed_from_u64(13);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
