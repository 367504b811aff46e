//! The Skip Vector: out-of-order skip buffering for in-order TID service.

use std::fmt;

use tcc_types::snap::{Snap, SnapError, SnapReader, SnapWriter};
use tcc_types::{snap_fields, Tid};

/// Typed refusal for a skip so far past the NSTID that buffering it
/// would grow the vector beyond the outstanding-TID window.
///
/// The TID vendor hands out sequence numbers one at a time to at most
/// `n_procs` concurrently-running transactions, so a *healthy* system
/// can never produce a skip more than the number of outstanding TIDs
/// ahead of the NSTID. A skip beyond [`SkipVector::MAX_WINDOW`] can
/// only come from a corrupt or adversarial stream, and buffering it
/// would resize the bit vector by `(tid − nstid)/64` words — an
/// unbounded, attacker-controlled allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkipRefused {
    /// The TID whose skip was refused.
    pub tid: Tid,
    /// The NSTID at the time of refusal.
    pub now_serving: Tid,
    /// The window bound in force.
    pub window: u64,
}

snap_fields!(SkipRefused {
    tid,
    now_serving,
    window,
});

impl fmt::Display for SkipRefused {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "skip for {} refused: {} ahead of {} exceeds the {}-TID outstanding window",
            self.tid,
            self.tid.since(self.now_serving),
            self.now_serving,
            self.window
        )
    }
}

/// The directory's Skip Vector (Fig. 5 of the paper).
///
/// A directory serves transactions strictly in TID order through its
/// *Now Serving TID* (NSTID) register, but skip messages from
/// higher-TID transactions can arrive at any time. The Skip Vector
/// buffers them: bit *j* (relative to the NSTID) records that TID
/// `NSTID + j` has already skipped. When the directory finishes serving
/// the current TID it shifts the vector past every buffered skip,
/// advancing the NSTID by the length of the run.
///
/// # Example
///
/// ```
/// use tcc_directory::SkipVector;
/// use tcc_types::Tid;
///
/// let mut sv = SkipVector::new();
/// assert_eq!(sv.now_serving(), Tid(0));
/// // TIDs 1 and 2 skip early, while TID 0 is still being served.
/// sv.buffer_skip(Tid(1));
/// sv.buffer_skip(Tid(2));
/// // TID 0 completes: the NSTID shifts straight to 3.
/// sv.complete_current();
/// assert_eq!(sv.now_serving(), Tid(3));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SkipVector {
    now_serving: Tid,
    /// Bit `j` of `bits[j / 64]` ⇔ TID `now_serving + j` has skipped.
    /// Bit 0 (the current TID) is only set transiently inside
    /// [`SkipVector::complete_current`].
    bits: Vec<u64>,
}

impl SkipVector {
    /// Maximum distance (in TIDs) a buffered skip may sit ahead of the
    /// NSTID. Far larger than any reachable outstanding-TID window
    /// (the vendor serves at most one TID per processor concurrently,
    /// and `SharerSet` caps the machine at 128 CPUs), yet it bounds the
    /// bit vector at 16 KiB instead of `(tid − nstid)/8` bytes.
    pub const MAX_WINDOW: u64 = 1 << 17;

    /// A fresh vector serving TID 0.
    #[must_use]
    pub fn new() -> SkipVector {
        SkipVector::default()
    }

    /// The TID currently allowed to commit at this directory.
    #[must_use]
    pub fn now_serving(&self) -> Tid {
        self.now_serving
    }

    /// Records that `tid` has nothing to do at this directory.
    ///
    /// Stale skips (`tid < now_serving`, e.g. duplicates after an abort
    /// race) are ignored. Returns `true` if the NSTID advanced — which
    /// happens when `tid` *is* the currently-served TID.
    ///
    /// # Panics
    ///
    /// Panics in debug builds on a duplicate skip for a future TID
    /// (every transaction skips a directory at most once) or on a skip
    /// past [`SkipVector::MAX_WINDOW`]. Release builds ignore an
    /// out-of-window skip; callers that must surface the refusal use
    /// [`SkipVector::try_buffer_skip`].
    pub fn buffer_skip(&mut self, tid: Tid) -> bool {
        match self.try_buffer_skip(tid) {
            Ok(advanced) => advanced,
            Err(refused) => {
                debug_assert!(false, "{refused}");
                false
            }
        }
    }

    /// [`SkipVector::buffer_skip`] with a typed refusal instead of a
    /// debug panic when `tid` lies beyond the outstanding-TID window.
    /// The vector is left untouched on refusal — a pathological skip
    /// allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`SkipRefused`] when `tid` is more than
    /// [`SkipVector::MAX_WINDOW`] TIDs ahead of the NSTID.
    pub fn try_buffer_skip(&mut self, tid: Tid) -> Result<bool, SkipRefused> {
        if tid < self.now_serving {
            return Ok(false);
        }
        if tid == self.now_serving {
            self.complete_current();
            return Ok(true);
        }
        let j = tid.since(self.now_serving);
        if j > Self::MAX_WINDOW {
            return Err(SkipRefused {
                tid,
                now_serving: self.now_serving,
                window: Self::MAX_WINDOW,
            });
        }
        let j = j as usize;
        let (word, bit) = (j / 64, j % 64);
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        debug_assert!(
            self.bits[word] & (1 << bit) == 0,
            "duplicate skip for future {tid}"
        );
        self.bits[word] |= 1 << bit;
        Ok(false)
    }

    /// Whether a skip is already buffered for `tid` (false for the
    /// current and past TIDs).
    #[must_use]
    pub fn is_buffered(&self, tid: Tid) -> bool {
        if tid <= self.now_serving {
            return false;
        }
        let j = tid.since(self.now_serving) as usize;
        let (word, bit) = (j / 64, j % 64);
        word < self.bits.len() && self.bits[word] & (1 << bit) != 0
    }

    /// Marks the currently-served TID complete (commit finished, abort
    /// processed, or skip received) and shifts past every consecutively
    /// buffered skip. Returns the number of TIDs advanced (≥ 1).
    pub fn complete_current(&mut self) -> u64 {
        // Consume the current TID plus the run of buffered skips at
        // offsets 1, 2, ….
        let mut run = 1usize;
        'scan: for (w, &word) in self.bits.iter().enumerate() {
            for b in 0..64 {
                let j = w * 64 + b;
                if j == 0 {
                    continue; // offset 0 is the completing TID itself
                }
                if j < run {
                    continue;
                }
                if j > run {
                    break 'scan;
                }
                if word & (1 << b) != 0 {
                    run += 1;
                } else {
                    break 'scan;
                }
            }
        }
        self.shift(run);
        self.now_serving = Tid(self.now_serving.0 + run as u64);
        run as u64
    }

    /// Logically shifts the bit vector right by `n` positions.
    fn shift(&mut self, n: usize) {
        let words = n / 64;
        let bits = n % 64;
        if words >= self.bits.len() {
            self.bits.clear();
            return;
        }
        self.bits.drain(..words);
        if bits > 0 {
            let len = self.bits.len();
            for i in 0..len {
                let hi = if i + 1 < len { self.bits[i + 1] } else { 0 };
                self.bits[i] = (self.bits[i] >> bits) | (hi << (64 - bits));
            }
        }
        while self.bits.last() == Some(&0) {
            self.bits.pop();
        }
    }

    /// Number of skips currently buffered for future TIDs.
    #[must_use]
    pub fn buffered(&self) -> u32 {
        self.bits.iter().map(|w| w.count_ones()).sum()
    }
}

/// Saved as `(now_serving, bits)`. Loading refuses a window the live
/// vector would never buffer, so a crafted snapshot cannot allocate
/// past [`SkipVector::MAX_WINDOW`].
impl Snap for SkipVector {
    fn save(&self, w: &mut SnapWriter) {
        w.put(&self.now_serving);
        w.put(&self.bits);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let now_serving = r.get()?;
        let bits: Vec<u64> = r.get()?;
        let max_words = SkipVector::MAX_WINDOW as usize / 64 + 1;
        if bits.len() > max_words {
            return Err(SnapError::invalid(
                "SkipVector.bits",
                format!("{} words exceed the {max_words}-word window", bits.len()),
            ));
        }
        Ok(SkipVector { now_serving, bits })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcc_types::rng::SmallRng;

    #[test]
    fn serves_in_order_from_zero() {
        let mut sv = SkipVector::new();
        assert_eq!(sv.now_serving(), Tid(0));
        assert_eq!(sv.complete_current(), 1);
        assert_eq!(sv.now_serving(), Tid(1));
    }

    #[test]
    fn paper_figure_5_scenario() {
        // Fig. 5: while serving TID 0, skips from 1..=4 arrive, then
        // 5..=8, then 9 and 10; completions jump over the buffered runs.
        let mut sv = SkipVector::new();
        for t in 1..=4 {
            assert!(!sv.buffer_skip(Tid(t)));
        }
        for t in 5..=8 {
            sv.buffer_skip(Tid(t));
        }
        // TID 0 commits: the vector shifts through 1..=8.
        assert_eq!(sv.complete_current(), 9);
        assert_eq!(sv.now_serving(), Tid(9));
        sv.buffer_skip(Tid(10));
        // TID 9 skips (arrives now): advance through 10 as well.
        assert!(sv.buffer_skip(Tid(9)));
        assert_eq!(sv.now_serving(), Tid(11));
    }

    #[test]
    fn skip_for_current_tid_advances_immediately() {
        let mut sv = SkipVector::new();
        assert!(sv.buffer_skip(Tid(0)));
        assert_eq!(sv.now_serving(), Tid(1));
    }

    #[test]
    fn stale_skips_are_ignored() {
        let mut sv = SkipVector::new();
        sv.complete_current();
        sv.complete_current();
        assert_eq!(sv.now_serving(), Tid(2));
        assert!(!sv.buffer_skip(Tid(0)));
        assert_eq!(sv.now_serving(), Tid(2));
    }

    #[test]
    fn gaps_stop_the_shift() {
        let mut sv = SkipVector::new();
        sv.buffer_skip(Tid(1));
        sv.buffer_skip(Tid(3)); // gap at 2
        sv.complete_current();
        assert_eq!(sv.now_serving(), Tid(2));
        assert!(sv.is_buffered(Tid(3)));
        sv.complete_current();
        assert_eq!(sv.now_serving(), Tid(4));
        assert_eq!(sv.buffered(), 0);
    }

    #[test]
    fn long_runs_cross_word_boundaries() {
        let mut sv = SkipVector::new();
        for t in 1..200 {
            sv.buffer_skip(Tid(t));
        }
        assert_eq!(sv.complete_current(), 200);
        assert_eq!(sv.now_serving(), Tid(200));
        assert_eq!(sv.buffered(), 0);
    }

    #[test]
    fn far_future_skips_are_retained_across_shifts() {
        let mut sv = SkipVector::new();
        sv.buffer_skip(Tid(130));
        sv.complete_current(); // 0 -> 1
        for t in 1..130 {
            assert_eq!(sv.now_serving(), Tid(t));
            let advanced = sv.buffer_skip(Tid(t));
            assert!(advanced);
        }
        // TID 130 was buffered long ago; serving 129 jumps past it.
        assert_eq!(sv.now_serving(), Tid(131));
    }

    /// Regression: a skip for a pathologically far-future TID used to
    /// resize `bits` by `(tid − nstid)/64` words — ~36 PiB for
    /// `Tid(u64::MAX/2)`. It must now be refused with a typed error
    /// and allocate nothing.
    #[test]
    fn pathological_far_future_skip_is_refused_without_allocating() {
        let mut sv = SkipVector::new();
        let far = Tid(u64::MAX / 2);
        let refused = sv.try_buffer_skip(far).unwrap_err();
        assert_eq!(refused.tid, far);
        assert_eq!(refused.now_serving, Tid(0));
        assert_eq!(refused.window, SkipVector::MAX_WINDOW);
        assert_eq!(sv.bits.len(), 0, "refused skip must not grow the vector");
        assert_eq!(sv.now_serving(), Tid(0));
        // The boundary itself is still accepted and bounds the vector.
        assert_eq!(sv.try_buffer_skip(Tid(SkipVector::MAX_WINDOW)), Ok(false));
        assert!(sv.bits.len() <= (SkipVector::MAX_WINDOW as usize / 64) + 1);
        // One past the boundary is refused.
        assert!(sv.try_buffer_skip(Tid(SkipVector::MAX_WINDOW + 1)).is_err());
        assert!(!refused.to_string().is_empty());
    }

    /// Feeding a random permutation of skips for TIDs 0..n always
    /// ends with the NSTID at exactly n, regardless of arrival
    /// order — the gap-free guarantee.
    #[test]
    fn prop_any_arrival_order_reaches_n() {
        let mut rng = SmallRng::seed_from_u64(0x5717_0001);
        for _ in 0..256 {
            let n = rng.gen_range(1u64..300);
            let mut order: Vec<u64> = (0..n).collect();
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0usize..=i);
                order.swap(i, j);
            }
            let mut sv = SkipVector::new();
            for t in order {
                sv.buffer_skip(Tid(t));
            }
            assert_eq!(sv.now_serving(), Tid(n));
            assert_eq!(sv.buffered(), 0);
        }
    }

    /// The NSTID never moves backwards and never jumps past a TID
    /// that has not completed.
    #[test]
    fn prop_monotone_and_gapless() {
        let mut rng = SmallRng::seed_from_u64(0x5717_0002);
        for _ in 0..256 {
            let len = rng.gen_range(1usize..64);
            let skips: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..64)).collect();
            let mut sv = SkipVector::new();
            let mut completed = std::collections::HashSet::new();
            for t in skips {
                if completed.contains(&t) || sv.is_buffered(Tid(t)) || Tid(t) < sv.now_serving() {
                    continue;
                }
                let before = sv.now_serving();
                sv.buffer_skip(Tid(t));
                completed.insert(t);
                let after = sv.now_serving();
                assert!(after >= before);
                // Every TID strictly below the NSTID must have completed.
                for u in 0..after.0 {
                    assert!(completed.contains(&u), "TID {u} overtaken");
                }
            }
        }
    }
}
