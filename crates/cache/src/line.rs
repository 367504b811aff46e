//! Per-line cache metadata.

use tcc_types::{snap_fields, LineValues, Tid, WordMask};

/// The state of one cache line in a TCC processor's hierarchy
/// (Fig. 1b of the paper).
///
/// A line combines non-speculative state (dirty committed data awaiting
/// write-back, ownership registered at the home directory) with the
/// current transaction's speculative footprint (SR/SM word masks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineState {
    /// Words speculatively read by the current transaction.
    pub sr: WordMask,
    /// Words speculatively modified by the current transaction.
    pub sm: WordMask,
    /// The line holds committed data newer than memory (write-back
    /// protocol); this processor is its registered owner.
    pub dirty: bool,
    /// Ownership generation: the TID of this processor's commit that
    /// last wrote the line. Write-backs carry it as their staleness
    /// tag — the directory drops (or mask-limits) write-backs from
    /// superseded generations. Tagging with the processor's *latest*
    /// TID instead would defeat the check: a processor can hold
    /// old-generation data while having acquired a newer TID for an
    /// unrelated transaction.
    pub owner_tid: Option<Tid>,
    /// Simulated contents: last committed writer TID per word, moved
    /// along the real data paths for the serializability checker.
    pub values: LineValues,
}

snap_fields!(LineState {
    sr,
    sm,
    dirty,
    owner_tid,
    values,
});

impl LineState {
    /// A freshly filled, clean, non-speculative line.
    #[must_use]
    pub fn filled(values: LineValues) -> LineState {
        LineState {
            sr: WordMask::EMPTY,
            sm: WordMask::EMPTY,
            dirty: false,
            owner_tid: None,
            values,
        }
    }

    /// Whether the current transaction has touched this line
    /// speculatively (read or written).
    #[must_use]
    pub fn is_speculative(&self) -> bool {
        !self.sr.is_empty() || !self.sm.is_empty()
    }

    /// Whether the line has been speculatively written.
    #[must_use]
    pub fn is_speculatively_modified(&self) -> bool {
        !self.sm.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcc_types::Tid;

    #[test]
    fn filled_lines_start_clean() {
        let l = LineState::filled(LineValues::fresh(8));
        assert!(!l.is_speculative());
        assert!(!l.is_speculatively_modified());
        assert!(!l.dirty);
    }

    #[test]
    fn speculative_flags_reflect_masks() {
        let mut l = LineState::filled(LineValues::fresh(8));
        l.sr.set(1);
        assert!(l.is_speculative());
        assert!(!l.is_speculatively_modified());
        l.sm.set(2);
        assert!(l.is_speculatively_modified());
    }

    #[test]
    fn values_travel_with_the_line() {
        let mut v = LineValues::fresh(8);
        v.apply_write(WordMask::single(4), Tid(9));
        let l = LineState::filled(v);
        assert_eq!(l.values.words[4], Some(Tid(9)));
    }
}
