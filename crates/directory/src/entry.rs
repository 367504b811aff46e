//! Per-line directory entries (Fig. 4 of the paper).

use tcc_types::{snap_fields, LineValues, NodeId, Tid, WordMask};

use crate::sharer_set::SharerSet;

/// The directory's record for one cache line of its memory slice.
///
/// Mirrors Fig. 4: a sharers list, Marked and Owned bits, and the
/// optional TID tag used to drop out-of-order write-backs (§3.3, "Race
/// Elimination"). The entry also holds this line's main-memory contents
/// (writer stamps) for the simulated data path.
#[derive(Debug, Clone, PartialEq)]
pub struct DirEntry {
    /// Processors that may cache this line (speculative readers and the
    /// owner). Cleared lazily: a processor leaves the set only when a
    /// commit sends it an invalidation or when it writes the line back.
    pub sharers: SharerSet,
    /// The last processor to commit the line, which holds data newer
    /// than memory — loads must be forwarded to it. `None` once the
    /// owner writes the line back.
    pub owner: Option<NodeId>,
    /// Pre-commit state: set by a `Mark` message from the transaction
    /// the directory is currently serving, holding the committer and the
    /// buffered word flags. Cleared by `Commit` (gang-upgrade to owned)
    /// or `Abort` (gang-clear).
    pub marked: Option<MarkInfo>,
    /// TID of the commit that created the current ownership; write-backs
    /// tagged with an older TID are stale and dropped.
    pub tid_tag: Option<Tid>,
    /// Words written by the owning commit. Write-backs from superseded
    /// owners may only merge words *outside* this mask (the owner's
    /// cached copy is the sole authority for these words).
    pub owner_words: WordMask,
    /// Main-memory contents of the line (last committed writer per word,
    /// current only when `owner` is `None`).
    pub memory: LineValues,
}

/// The buffered `Mark` for a line involved in an ongoing commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkInfo {
    /// The committing transaction.
    pub tid: Tid,
    /// The committing processor.
    pub by: NodeId,
    /// Word flags sent alongside the `Mark` (fine-grain conflict
    /// detection, §3.3).
    pub words: WordMask,
}

snap_fields!(DirEntry {
    sharers,
    owner,
    marked,
    tid_tag,
    owner_words,
    memory,
});
snap_fields!(MarkInfo { tid, by, words });

impl DirEntry {
    /// A fresh entry: unshared, unowned, memory never written.
    #[must_use]
    pub fn new(words_per_line: usize) -> DirEntry {
        DirEntry {
            sharers: SharerSet::new(),
            owner: None,
            marked: None,
            tid_tag: None,
            owner_words: WordMask::EMPTY,
            memory: LineValues::fresh(words_per_line),
        }
    }

    /// Whether the entry is involved in an ongoing commit (loads to it
    /// must stall).
    #[must_use]
    pub fn is_marked(&self) -> bool {
        self.marked.is_some()
    }

    /// Whether any remote node (≠ the home `self_node`) may cache the
    /// line — the Table 3 "directory working set" criterion.
    #[must_use]
    pub fn has_remote_sharer(&self, self_node: NodeId) -> bool {
        self.sharers.any_other_than(self_node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_entry_is_idle() {
        let e = DirEntry::new(8);
        assert!(!e.is_marked());
        assert!(e.owner.is_none());
        assert!(e.sharers.is_empty());
        assert_eq!(e.memory.words.len(), 8);
        assert!(!e.has_remote_sharer(NodeId(0)));
    }

    #[test]
    fn remote_sharer_detection_excludes_home() {
        let mut e = DirEntry::new(8);
        e.sharers.insert(NodeId(0));
        assert!(!e.has_remote_sharer(NodeId(0)));
        e.sharers.insert(NodeId(1));
        assert!(e.has_remote_sharer(NodeId(0)));
    }
}
