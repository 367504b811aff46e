//! Commit-progress watchdog.
//!
//! A livelocked or deadlocked protocol run used to announce itself only
//! by exhausting `max_cycles` — an opaque panic after (by default)
//! billions of simulated cycles. The watchdog turns that into an early,
//! structured detection: every [`WatchdogConfig::interval`] cycles the
//! simulator folds its *progress-relevant* state (committed
//! transactions, per-directory NSTIDs, active processor count,
//! transport deliveries — deliberately **not** churn counters like
//! violations or retransmits, which advance even while the system spins
//! in place) into a signature hash and feeds it here. When the
//! signature is unchanged for [`WatchdogConfig::grace`] consecutive
//! samples, the run is declared stalled and the caller assembles a
//! diagnostic snapshot.
//!
//! The watchdog is observation-only: it schedules no events and
//! perturbs nothing, so enabling it cannot change simulation results —
//! only whether a stuck run is reported early.

use tcc_types::snap::{SnapError, SnapReader, SnapWriter};
use tcc_types::Cycle;

/// Watchdog tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Cycles between progress samples.
    pub interval: u64,
    /// Consecutive unchanged samples before declaring a stall. The
    /// detection latency is therefore `interval * grace` cycles.
    pub grace: u32,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        // A tiny chaos scenario finishes in well under 10^5 cycles and
        // a wedged one stops changing its signature almost immediately,
        // so 4 × 250k cycles of true global silence is conclusively a
        // stall while staying far from false positives on slow
        // (memory-bound, backed-off) but live runs.
        WatchdogConfig {
            interval: 250_000,
            grace: 4,
        }
    }
}

/// Tracks a progress-signature stream and flags the absence of change.
#[derive(Debug)]
pub struct ProgressWatchdog {
    cfg: WatchdogConfig,
    next_check: u64,
    last_sig: Option<u64>,
    stale_samples: u32,
}

impl ProgressWatchdog {
    #[must_use]
    pub fn new(cfg: WatchdogConfig) -> Self {
        ProgressWatchdog {
            cfg,
            next_check: cfg.interval,
            last_sig: None,
            stale_samples: 0,
        }
    }

    /// `true` when the clock has crossed the next sampling point and
    /// the caller should compute a signature and call
    /// [`ProgressWatchdog::observe`].
    #[must_use]
    pub fn due(&self, now: Cycle) -> bool {
        now.0 >= self.next_check
    }

    /// Feed the current progress signature. Returns `true` when the
    /// signature has now been unchanged for the configured grace count
    /// — the run is stalled.
    pub fn observe(&mut self, now: Cycle, sig: u64) -> bool {
        self.next_check = now.0 + self.cfg.interval;
        if self.last_sig == Some(sig) {
            self.stale_samples += 1;
        } else {
            self.last_sig = Some(sig);
            self.stale_samples = 0;
        }
        self.stale_samples >= self.cfg.grace
    }

    /// Cycles of global silence required before a stall is declared.
    #[must_use]
    pub fn window(&self) -> u64 {
        self.cfg.interval * u64::from(self.cfg.grace)
    }

    /// Serializes the mutable state: `next_check`, `last_sig`,
    /// `stale_samples`. The progress-signature history must survive a
    /// checkpoint — otherwise a run resumed inside a stall window would
    /// restart the grace count and detect the stall later than the
    /// uninterrupted run. The config is not saved: the resuming caller
    /// rebuilds it from `SystemConfig` (gated by the config digest).
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.next_check);
        w.put(&self.last_sig);
        w.put(&self.stale_samples);
    }

    /// Overwrites the mutable state with what
    /// [`ProgressWatchdog::save_state`] wrote.
    ///
    /// # Errors
    ///
    /// Propagates the decode failure.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.next_check = r.get()?;
        self.last_sig = r.get()?;
        self.stale_samples = r.get()?;
        Ok(())
    }
}

/// Folds an arbitrary stream of progress words into one signature with
/// the workspace's SplitMix64 finalizer, [`tcc_types::hash::mix64`].
/// Order-sensitive, so callers must feed fields in a fixed order.
#[must_use]
pub fn progress_signature(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut acc = 0x9e37_79b9_7f4a_7c15_u64;
    for w in words {
        acc = tcc_types::hash::mix64(acc ^ w.wrapping_mul(0xff51_afd7_ed55_8ccd));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wd(interval: u64, grace: u32) -> ProgressWatchdog {
        ProgressWatchdog::new(WatchdogConfig { interval, grace })
    }

    #[test]
    fn stall_requires_grace_consecutive_unchanged_samples() {
        let mut w = wd(100, 3);
        assert!(!w.due(Cycle(50)));
        assert!(w.due(Cycle(100)));
        assert!(!w.observe(Cycle(100), 7)); // first sight
        assert!(!w.observe(Cycle(200), 7)); // stale 1
        assert!(!w.observe(Cycle(300), 7)); // stale 2
        assert!(w.observe(Cycle(400), 7)); // stale 3 == grace → stall
    }

    #[test]
    fn any_progress_resets_the_stale_count() {
        let mut w = wd(100, 2);
        assert!(!w.observe(Cycle(100), 1));
        assert!(!w.observe(Cycle(200), 1));
        assert!(!w.observe(Cycle(300), 2)); // progress
        assert!(!w.observe(Cycle(400), 2));
        assert!(w.observe(Cycle(500), 2));
        assert_eq!(w.window(), 200);
    }

    #[test]
    fn signature_is_order_and_content_sensitive() {
        let a = progress_signature([1, 2, 3]);
        let b = progress_signature([3, 2, 1]);
        let c = progress_signature([1, 2, 3]);
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_ne!(progress_signature([0, 0]), progress_signature([0, 0, 0]));
    }
}
