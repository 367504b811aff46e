//! Shared deterministic samplers for workload and traffic generation.
//!
//! Every generator in the workspace draws from the same two building
//! blocks, so they live here exactly once:
//!
//! * [`Zipf`] — an exact Zipfian(θ) sampler over `0..n`: an explicit
//!   cumulative table, searched through a guide table (no rejection,
//!   no approximation). Used by the STM bench profiles and the
//!   `tcc-traffic` popularity models.
//! * [`stream_rng`] — the per-stream seed-derivation rule (`seed ⊕
//!   (stream+1)·φ64`): independent deterministic substreams from one
//!   run seed, so adding or removing a stream never perturbs the
//!   others.

use tcc_types::rng::SmallRng;

/// The 64-bit golden-ratio constant used to split one seed into
/// independent substreams.
pub const STREAM_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Derives the RNG for substream `stream` of a run seeded with `seed`.
///
/// Streams are keyed `seed ^ (stream+1)·φ64`, the rule every generator
/// in the workspace uses: per-thread scripts, per-shard traffic slices,
/// and per-scenario synthesis all stay independent of how many sibling
/// streams exist.
#[must_use]
pub fn stream_rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ stream.wrapping_add(1).wrapping_mul(STREAM_SALT))
}

/// Zipfian sampler over `0..n` with exponent `theta`, exact (no
/// rejection, no approximation): rank 0 is the hottest key.
///
/// A draw `u ∈ [0, 1)` maps to the first rank whose cumulative
/// probability is `>= u` — an inverse-CDF lookup in `cumulative`. A
/// guide table (Chen & Asau, 1974) answers it in about one comparison
/// instead of a full binary search: with `m` a power of two,
/// `guide[j]` is the first rank whose cumulative value is `>= j/m`,
/// and `guide[m] = n`. For `j = ⌊u·m⌋` we have `j/m <= u < (j+1)/m`,
/// so every rank below `guide[j]` has cumulative value `< u` and rank
/// `guide[j+1]` (if any) has one `>= u`: the answer lies in
/// `[guide[j], guide[j+1]]`, and a binary search of that bucket finds
/// it. Since `m` is a power of two, `u·m` and `j/m` are exact in
/// `f64`, so this is the same rank a binary search over the whole
/// table returns, for every `u`.
///
/// An alias table or a rejection sampler would also draw in O(1), but
/// maps each `u` to a different rank, which would change every
/// generated script and trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    cumulative: Vec<f64>,
    /// `m + 1` entries; see the type docs.
    guide: Vec<u32>,
}

/// Guide-table entries per rank, before rounding up to a power of two.
const GUIDE_PER_RANK: usize = 16;
/// Largest guide table, in entries (256 KiB of `u32`s).
const GUIDE_MAX: usize = 1 << 16;

impl Zipf {
    /// Builds the cumulative and guide tables for `n` ranks with
    /// exponent `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds `u32::MAX`, or if `theta` is
    /// negative (`theta == 0` is the uniform distribution, which is
    /// legal here; callers that consider it degenerate reject it in
    /// their own validation).
    #[must_use]
    pub fn new(n: usize, theta: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty domain");
        assert!(theta >= 0.0, "negative skew is meaningless");
        let n32 = u32::try_from(n).expect("Zipf domain exceeds u32 ranks");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for k in 1..=n {
            total += (k as f64).powf(theta).recip();
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        let m = (n * GUIDE_PER_RANK).next_power_of_two().min(GUIDE_MAX);
        let mut guide = Vec::with_capacity(m + 1);
        let mut rank = 0usize;
        for j in 0..m {
            let edge = j as f64 / m as f64;
            while rank < n && cumulative[rank] < edge {
                rank += 1;
            }
            guide.push(rank as u32);
        }
        guide.push(n32);
        Zipf { cumulative, guide }
    }

    /// Number of ranks in the domain.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// `true` iff the domain is empty (never: `new` rejects `n == 0`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Samples a rank in `0..len()`; rank 0 is the hottest.
    #[must_use]
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        self.rank_of(rng.gen_range(0.0f64..1.0))
    }

    /// The first rank whose cumulative probability is `>= u`, clamped
    /// to the last rank, for `u ∈ [0, 1)`.
    fn rank_of(&self, u: f64) -> usize {
        let m = self.guide.len() - 1;
        let j = (u * m as f64) as usize;
        let (lo, hi) = (self.guide[j] as usize, self.guide[j + 1] as usize);
        let rank = lo + self.cumulative[lo..hi].partition_point(|&c| c < u);
        rank.min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_rngs_are_deterministic_and_independent() {
        let mut a = stream_rng(42, 0);
        let mut a2 = stream_rng(42, 0);
        let mut b = stream_rng(42, 1);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let xs2: Vec<u64> = (0..32).map(|_| a2.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        assert_eq!(xs, xs2, "same (seed, stream) must reproduce");
        assert_ne!(xs, ys, "sibling streams must diverge");
    }

    #[test]
    fn zipf_head_dominates() {
        let z = Zipf::new(256, 0.9);
        let mut rng = stream_rng(7, 0);
        let mut counts = vec![0u64; 256];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        let total: u64 = counts.iter().sum();
        let head: u64 = counts[..8].iter().sum();
        assert!(
            head * 5 > total,
            "8 hottest ranks drew only {head}/{total} — not Zipfian"
        );
        // Rank order is frequency order for a Zipfian CDF.
        assert!(counts[0] > counts[128]);
    }

    #[test]
    fn zipf_theta_zero_is_uniform() {
        let z = Zipf::new(16, 0.0);
        let mut rng = stream_rng(11, 3);
        let mut counts = vec![0u64; 16];
        for _ in 0..32_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            let share = c as f64 / 32_000.0;
            assert!(
                (share - 1.0 / 16.0).abs() < 0.02,
                "uniform share off: {share}"
            );
        }
    }

    #[test]
    fn sampling_stream_resumes_identically_from_saved_state() {
        // Checkpoint semantics for workload generation: saving the
        // xoshiro256** word state mid-stream and loading it back must
        // reproduce the identical sampling tail — both raw words and
        // Zipf draws (which consume the stream through
        // `gen_range(f64)`).
        let z = Zipf::new(64, 0.8);
        let mut live = stream_rng(13, 2);
        for _ in 0..257 {
            let _ = z.sample(&mut live);
        }
        let mut w = tcc_types::snap::SnapWriter::new();
        w.put(&live);
        let bytes = w.into_bytes();
        let mut resumed: SmallRng = tcc_types::snap::SnapReader::new(&bytes).get().unwrap();
        for i in 0..1024 {
            assert_eq!(
                z.sample(&mut live),
                z.sample(&mut resumed),
                "Zipf tail diverged at draw {i}"
            );
        }
        assert_eq!(live, resumed, "word state diverged");
        for i in 0..256 {
            assert_eq!(
                live.next_u64(),
                resumed.next_u64(),
                "raw tail diverged at word {i}"
            );
        }
    }

    /// The rank a binary search of the whole cumulative table returns:
    /// the sampler's definition, before the guide table.
    fn reference_rank(z: &Zipf, u: f64) -> usize {
        z.cumulative.partition_point(|&c| c < u).min(z.len() - 1)
    }

    const EXACTNESS_CASES: [usize; 5] = [1, 7, 256, 1000, 100_000];
    const EXACTNESS_THETAS: [f64; 4] = [0.0, 0.9, 0.99, 2.0];

    #[test]
    fn guide_table_draws_match_a_full_binary_search() {
        for (i, &n) in EXACTNESS_CASES.iter().enumerate() {
            for (k, &theta) in EXACTNESS_THETAS.iter().enumerate() {
                let z = Zipf::new(n, theta);
                let stream = (i * EXACTNESS_THETAS.len() + k) as u64;
                let mut draws = stream_rng(0x5eed, stream);
                let mut us = stream_rng(0x5eed, stream);
                for d in 0..1_000_000 {
                    let u = us.gen_range(0.0f64..1.0);
                    assert_eq!(
                        z.sample(&mut draws),
                        reference_rank(&z, u),
                        "n={n} θ={theta}: draw {d} (u={u}) left the reference"
                    );
                }
            }
        }
    }

    #[test]
    fn guide_table_is_exact_at_every_bucket_edge() {
        for &n in &EXACTNESS_CASES {
            for &theta in &EXACTNESS_THETAS {
                let z = Zipf::new(n, theta);
                let m = z.guide.len() - 1;
                assert!(m.is_power_of_two() && m <= GUIDE_MAX);
                assert_eq!(z.guide[m] as usize, n);
                for j in 0..m {
                    let edge = j as f64 / m as f64;
                    let below = (j > 0).then(|| edge.next_down());
                    for u in std::iter::once(edge).chain(below) {
                        assert_eq!(
                            z.rank_of(u),
                            reference_rank(&z, u),
                            "n={n} θ={theta}: u={u} at edge {j}/{m}"
                        );
                    }
                }
                let last = 1.0f64.next_down();
                assert_eq!(z.rank_of(last), reference_rank(&z, last));
            }
        }
        // 100 000 ranks reach the cap; 256 ranks take 16 entries each.
        assert_eq!(Zipf::new(100_000, 0.9).guide.len(), GUIDE_MAX + 1);
        assert_eq!(Zipf::new(256, 0.9).guide.len(), 4_097);
    }

    #[test]
    fn zipf_samples_stay_in_bounds() {
        let z = Zipf::new(3, 2.0);
        assert_eq!(z.len(), 3);
        assert!(!z.is_empty());
        let mut rng = stream_rng(5, 9);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 3);
        }
    }
}
