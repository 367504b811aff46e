//! The two-level inclusive speculative cache hierarchy.

use tcc_types::snap::{SnapError, SnapReader, SnapWriter};
use tcc_types::{snap_fields, LineAddr, LineValues, Tid, WordMask};

use crate::array::SetArray;
use crate::config::{CacheConfig, Level};
use crate::line::LineState;

/// Result of a load access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadOutcome {
    /// The word was serviced by the hierarchy.
    Hit {
        /// Level that serviced it (for latency accounting).
        level: Level,
        /// Observed value: the last committed writer of the word, or
        /// `None` if the word was never written. Only meaningful when
        /// `own_speculative` is false.
        value: Option<Tid>,
        /// The word carried this transaction's own SM bit: the load read
        /// its own speculative write (no SR bit is set, and the
        /// observation is not a committed-state read).
        own_speculative: bool,
        /// This is the transaction's first read of this word (its SR
        /// bit was clear): the load is a fresh committed-state
        /// observation worth recording.
        first_read: bool,
    },
    /// The word is not present (cold miss, or its valid bit was cleared
    /// by an invalidation): a `LoadRequest` must be sent to the home
    /// directory, and the access retried after the fill.
    Miss,
}

/// Result of a store access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreOutcome {
    /// The store was absorbed by the hierarchy.
    Hit {
        /// Level that absorbed it.
        level: Level,
        /// §3.1: the first speculative write of a transaction to a line
        /// whose *dirty* bit is set must first write that committed data
        /// back, so an abort cannot destroy it. When present, the caller
        /// must send this `WriteBack` to the home directory.
        pre_writeback: Option<Eviction>,
    },
    /// Write-allocate: the line must be fetched before the store can be
    /// performed.
    Miss,
}

/// A line leaving the hierarchy (capacity eviction or explicit flush).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Eviction {
    /// The departing line.
    pub line: LineAddr,
    /// Its contents at departure.
    pub values: LineValues,
    /// Words of `values` that are valid (a dirty line can have holes
    /// where later commits invalidated words it no longer owns).
    pub valid: WordMask,
    /// True if the line held committed data newer than memory: the
    /// caller must send a `WriteBack` message to the home directory.
    pub dirty: bool,
    /// The ownership generation of the departing data (the TID whose
    /// commit produced it) — the write-back's staleness tag.
    pub generation: Option<Tid>,
}

/// Result of installing a fill.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FillResult {
    /// Dirty lines displaced by the fill; each needs a `WriteBack`.
    pub evictions: Vec<Eviction>,
    /// The fill could not be installed without displacing a line that
    /// carries speculative state (SR/SM): the hardware's buffering is
    /// exhausted. The caller must fall back to the overflow policy
    /// (violate and re-execute serialized, §3.1).
    pub overflow: bool,
}

/// Result of a forced (serialized-mode) fill.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ForcedFillResult {
    /// Dirty non-speculative victim needing a `WriteBack`.
    pub evictions: Vec<Eviction>,
    /// A displaced *speculative* line: `(line, state, valid words)`.
    /// The caller must retain it in its overflow buffer. If the line was
    /// also *dirty* (committed data owned by this processor, read by the
    /// current transaction), `state.dirty` is true and the caller must
    /// flush the committed words home — while staying on the sharers
    /// list, because the buffered SR/SM bits still need invalidations.
    pub spilled: Option<(LineAddr, LineState, WordMask)>,
}

/// Result of processing an invalidation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidateOutcome {
    /// The line was resident.
    pub was_present: bool,
    /// The invalidated words intersect the current transaction's
    /// speculatively-read words: the transaction must violate.
    pub conflict: bool,
    /// The cache still holds transactional interest in the line (SR/SM
    /// bits of the current transaction); reported back to the directory
    /// in the invalidation ack so it can prune inactive sharers.
    pub retained: bool,
}

/// Hit/miss and maintenance counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Loads serviced by L1.
    pub l1_load_hits: u64,
    /// Loads serviced by L2.
    pub l2_load_hits: u64,
    /// Loads that left the hierarchy.
    pub load_misses: u64,
    /// Stores absorbed by L1.
    pub l1_store_hits: u64,
    /// Stores absorbed by L2.
    pub l2_store_hits: u64,
    /// Stores that required a write-allocate fill.
    pub store_misses: u64,
    /// Dirty lines written back on eviction or pre-write.
    pub writebacks: u64,
    /// Fills rejected because a speculative line would be displaced.
    pub overflows: u64,
}

snap_fields!(CacheStats {
    l1_load_hits,
    l2_load_hits,
    load_misses,
    l1_store_hits,
    l2_store_hits,
    store_misses,
    writebacks,
    overflows,
});

/// The private two-level cache hierarchy of one TCC processor.
///
/// The L2 is the authoritative store (inclusive of L1); the L1 is a
/// tag-only presence filter used for latency modelling. Both levels of
/// the paper's hardware track SR/SM state; modelling the state once in
/// the inclusive L2 is behaviourally identical.
///
/// Word validity: invalidations clear per-word valid bits, but words the
/// current transaction has speculatively written remain readable (the
/// committed write they superseded is irrelevant to this transaction
/// unless it also *read* the word, which is the violation case).
#[derive(Debug)]
pub struct HierCache {
    config: CacheConfig,
    l1: SetArray<()>,
    l2: SetArray<Entry>,
    stats: CacheStats,
}

#[derive(Debug, Clone)]
struct Entry {
    state: LineState,
    /// Per-word valid bits; cleared by word-granularity invalidations.
    valid: WordMask,
}

snap_fields!(Entry { state, valid });

impl HierCache {
    /// Creates an empty hierarchy.
    #[must_use]
    pub fn new(config: CacheConfig) -> HierCache {
        let l1 = SetArray::new(config.sets(Level::L1), config.l1_ways as usize);
        let l2 = SetArray::new(config.sets(Level::L2), config.l2_ways as usize);
        HierCache {
            config,
            l1,
            l2,
            stats: CacheStats::default(),
        }
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Access counters.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Whether `line` is resident (any level).
    #[must_use]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.l2.contains(line)
    }

    /// Number of resident lines carrying speculative state.
    #[must_use]
    pub fn speculative_lines(&self) -> usize {
        self.l2
            .iter()
            .filter(|(_, e)| e.state.is_speculative())
            .count()
    }

    fn level_of(&self, line: LineAddr) -> Level {
        if self.l1.contains(line) {
            Level::L1
        } else {
            Level::L2
        }
    }

    /// Promotes `line` into L1 (tag only). L1 victims are silent: their
    /// state remains in the inclusive L2.
    fn promote_to_l1(&mut self, line: LineAddr) {
        if self.l1.contains(line) {
            self.l1.get_mut(line); // refresh LRU
            return;
        }
        // Any L1 way may be replaced: the L2 retains the state.
        let _ = self.l1.insert(line, (), |_| true);
    }

    /// Performs a speculative load of word `word` of `line`.
    ///
    /// On a hit, sets the SR tracking bits (unless the word carries this
    /// transaction's own SM bit) and returns the observed committed
    /// writer. On a miss the caller must fetch the line and retry.
    pub fn load(&mut self, line: LineAddr, word: usize) -> LoadOutcome {
        let track = self.config.track_mask(word);
        let level = self.level_of(line);
        let Some(entry) = self.l2.get_mut(line) else {
            self.stats.load_misses += 1;
            return LoadOutcome::Miss;
        };
        let own = entry.state.sm.get(word);
        if !own && !entry.valid.get(word) {
            // Present but the word was invalidated: upgrade miss.
            self.stats.load_misses += 1;
            return LoadOutcome::Miss;
        }
        let value = entry.state.values.words.get(word).copied().flatten();
        let first_read = !own && !entry.state.sr.get(word);
        if !own {
            entry.state.sr = entry.state.sr.union(track);
        }
        match level {
            Level::L1 => {
                self.stats.l1_load_hits += 1;
                self.l1.get_mut(line); // refresh LRU
            }
            Level::L2 => {
                self.stats.l2_load_hits += 1;
                self.promote_to_l1(line);
            }
        }
        LoadOutcome::Hit {
            level,
            value,
            own_speculative: own,
            first_read,
        }
    }

    /// Performs a speculative store to word `word` of `line`.
    ///
    /// The stored "value" is implicit: at commit time the word's writer
    /// stamp becomes the committing TID (see [`HierCache::commit_tx`]).
    pub fn store(&mut self, line: LineAddr, word: usize) -> StoreOutcome {
        let track = self.config.track_mask(word);
        let level = self.level_of(line);
        let Some(entry) = self.l2.get_mut(line) else {
            self.stats.store_misses += 1;
            return StoreOutcome::Miss;
        };
        // First speculative write to a dirty line: write the committed
        // data back first so an abort cannot destroy it (§3.1).
        let mut pre_writeback = None;
        if entry.state.dirty && entry.state.sm.is_empty() {
            entry.state.dirty = false;
            pre_writeback = Some(Eviction {
                line,
                values: entry.state.values.clone(),
                valid: entry.valid,
                dirty: true,
                generation: entry.state.owner_tid,
            });
            self.stats.writebacks += 1;
        }
        entry.state.sm = entry.state.sm.union(track);
        match level {
            Level::L1 => {
                self.stats.l1_store_hits += 1;
                self.l1.get_mut(line); // refresh LRU
            }
            Level::L2 => {
                self.stats.l2_store_hits += 1;
                self.promote_to_l1(line);
            }
        }
        StoreOutcome::Hit {
            level,
            pre_writeback,
        }
    }

    /// Installs fill data for `line` after a miss.
    ///
    /// If the line is already resident (partial-validity upgrade miss),
    /// the fill merges: words this transaction has speculatively written
    /// keep their speculative identity, all others take the fill values
    /// and become valid.
    ///
    /// `dirty` marks fills that arrive with ownership (not used by the
    /// standard protocol, which fills clean, but exercised by tests and
    /// the write-through baseline).
    pub fn fill(&mut self, line: LineAddr, values: LineValues, dirty: bool) -> FillResult {
        let full = self.config.full_line_mask();
        if let Some(entry) = self.l2.get_mut(line) {
            // Merge into the resident (partially invalid) copy. Only
            // *invalid*, non-speculative words take the fill data:
            // valid words are always at least as new as memory (an
            // invalidation would have cleared them otherwise), and
            // words this processor owns may be strictly newer.
            for w in full.iter() {
                if !entry.state.sm.get(w) && !entry.valid.get(w) {
                    if let (Some(dst), Some(src)) =
                        (entry.state.values.words.get_mut(w), values.words.get(w))
                    {
                        *dst = *src;
                    }
                }
            }
            entry.valid = full;
            entry.state.dirty |= dirty;
            if dirty && entry.state.owner_tid.is_none() {
                entry.state.owner_tid = Some(Tid(0));
            }
            self.promote_to_l1(line);
            return FillResult {
                evictions: Vec::new(),
                overflow: false,
            };
        }
        let entry = Entry {
            state: LineState {
                dirty,
                // A fill that arrives owning the line (test/baseline
                // paths only) gets the oldest generation: any real
                // commit's write-back supersedes it.
                owner_tid: dirty.then_some(Tid(0)),
                ..LineState::filled(values)
            },
            valid: full,
        };
        match self.l2.insert(line, entry, |e| !e.state.is_speculative()) {
            Ok(victim) => {
                let mut evictions = Vec::new();
                if let Some((vline, ventry)) = victim {
                    self.l1.remove(vline); // maintain inclusion
                    if ventry.state.dirty {
                        self.stats.writebacks += 1;
                        evictions.push(Eviction {
                            line: vline,
                            values: ventry.state.values,
                            valid: ventry.valid,
                            dirty: true,
                            generation: ventry.state.owner_tid,
                        });
                    }
                }
                self.promote_to_l1(line);
                FillResult {
                    evictions,
                    overflow: false,
                }
            }
            Err(_) => {
                self.stats.overflows += 1;
                FillResult {
                    evictions: Vec::new(),
                    overflow: true,
                }
            }
        }
    }

    /// Installs a fill even when every way of the target set carries
    /// speculative state, by unconditionally evicting the LRU way.
    ///
    /// This is the serialized-mode (early-TID) overflow path: the
    /// displaced speculative line's state is returned in
    /// [`ForcedFillResult::spilled`] for the processor to keep in its
    /// unbounded victim buffer (a VTM-style virtualization; see
    /// DESIGN.md). Dirty victims still produce write-backs.
    pub fn fill_forced(&mut self, line: LineAddr, values: LineValues) -> ForcedFillResult {
        let full = self.config.full_line_mask();
        self.install_forced(line, LineState::filled(values), full)
    }

    /// Installs an arbitrary line state (e.g. an entry returning from
    /// the overflow victim buffer), evicting unconditionally as
    /// [`HierCache::fill_forced`] does.
    pub fn install_forced(
        &mut self,
        line: LineAddr,
        state: LineState,
        valid: WordMask,
    ) -> ForcedFillResult {
        debug_assert!(!self.l2.contains(line), "install_forced on resident line");
        let entry = Entry { state, valid };
        match self.l2.insert(line, entry, |_| true) {
            Ok(victim) => {
                let mut out = ForcedFillResult::default();
                if let Some((vline, ventry)) = victim {
                    self.l1.remove(vline);
                    if ventry.state.is_speculative() {
                        out.spilled = Some((vline, ventry.state, ventry.valid));
                    } else if ventry.state.dirty {
                        self.stats.writebacks += 1;
                        out.evictions.push(Eviction {
                            line: vline,
                            values: ventry.state.values,
                            valid: ventry.valid,
                            dirty: true,
                            generation: ventry.state.owner_tid,
                        });
                    }
                }
                self.promote_to_l1(line);
                out
            }
            Err(_) => unreachable!("insert with unconditional eviction cannot fail"),
        }
    }

    /// The current transaction's write-set: every line with SM bits and
    /// the words written, in deterministic (line-address) order. This is
    /// what the commit protocol sends as `Mark` messages.
    #[must_use]
    pub fn write_set(&self) -> Vec<(LineAddr, WordMask)> {
        let mut ws: Vec<_> = self
            .l2
            .iter()
            .filter(|(_, e)| e.state.is_speculatively_modified())
            .map(|(l, e)| (l, e.state.sm))
            .collect();
        ws.sort_by_key(|(l, _)| l.0);
        ws
    }

    /// Commits the current transaction locally: speculatively-written
    /// words take writer stamp `tid` and their lines become dirty
    /// (committed data not yet written back); all SR/SM bits clear.
    pub fn commit_tx(&mut self, tid: Tid) {
        for (_, e) in self.l2.iter_mut() {
            if !e.state.sm.is_empty() {
                e.state.values.apply_write(e.state.sm, tid);
                e.state.dirty = true;
                e.state.owner_tid = Some(tid);
                // Speculatively written words are now valid committed data.
                e.valid = e.valid.union(e.state.sm);
            }
            e.state.sr = WordMask::EMPTY;
            e.state.sm = WordMask::EMPTY;
        }
    }

    /// Clears every dirty bit without writing anything back.
    ///
    /// Used by the *write-through* baseline protocol, whose commits push
    /// data to memory immediately: after a write-through commit the
    /// cached copies are clean by construction.
    pub fn clear_dirty_bits(&mut self) {
        for (_, e) in self.l2.iter_mut() {
            e.state.dirty = false;
        }
    }

    /// Aborts the current transaction: speculatively-written lines are
    /// dropped wholesale (their committed data, if any, was written back
    /// before the first speculative write), and all SR bits clear.
    /// Returns the number of lines dropped.
    pub fn abort_tx(&mut self) -> usize {
        let dropped = self
            .l2
            .drain_filter(|_, e| e.state.is_speculatively_modified());
        for (l, e) in &dropped {
            debug_assert!(!e.state.dirty, "speculative line {l} should not be dirty");
            self.l1.remove(*l);
        }
        for (_, e) in self.l2.iter_mut() {
            e.state.sr = WordMask::EMPTY;
        }
        dropped.len()
    }

    /// Processes an invalidation for `words` of `line` caused by a
    /// remote commit.
    ///
    /// The conflict check is word-granular (the invalidation's word
    /// flags against the SR mask — §3.3 fine-grain conflict detection),
    /// but the *data* invalidation is whole-line, as in the paper
    /// ("violate or simply invalidate the line"): every valid bit is
    /// cleared. Words this transaction speculatively wrote stay
    /// readable (write-write overlaps do not violate under lazy
    /// versioning), and the SR mask survives so later re-reads are
    /// still recognized. The line is dropped entirely once it carries
    /// no transactional state.
    pub fn invalidate(&mut self, line: LineAddr, words: WordMask) -> InvalidateOutcome {
        let Some(entry) = self.l2.get_mut(line) else {
            return InvalidateOutcome {
                was_present: false,
                conflict: false,
                retained: false,
            };
        };
        // A *dirty* line can be invalidated when another processor that
        // fetched the line before our commit now commits to it and takes
        // over ownership. The caller must have flushed our still-valid
        // committed words home first (see `prepare_inv_flush`).
        debug_assert!(
            !entry.state.dirty,
            "invalidating a dirty line {line}: call prepare_inv_flush first"
        );
        let conflict = entry.state.sr.intersects(words);
        entry.valid = WordMask::EMPTY;
        let retained = entry.state.is_speculative();
        if !retained {
            self.l2.remove(line);
            self.l1.remove(line);
        }
        InvalidateOutcome {
            was_present: true,
            conflict,
            retained,
        }
    }

    /// Services a directory `DataRequest`: returns the line's contents
    /// and valid-word mask, clearing its dirty bit. If `keep` the line
    /// stays resident as a clean copy; otherwise it is removed (Fig. 2f
    /// write-back semantics). Returns `None` if the line is not
    /// resident (stale request after an eviction already wrote it back).
    pub fn flush(
        &mut self,
        line: LineAddr,
        keep: bool,
    ) -> Option<(LineValues, WordMask, Option<Tid>)> {
        let entry = self.l2.get_mut(line)?;
        entry.state.dirty = false;
        let values = entry.state.values.clone();
        let valid = entry.valid;
        let generation = entry.state.owner_tid;
        if !keep {
            self.l2.remove(line);
            self.l1.remove(line);
        }
        Some((values, valid, generation))
    }

    /// Prepares the flush that must precede invalidating a *dirty*
    /// line: clears the dirty bit and returns the line's contents with
    /// the valid mask *minus* the words being invalidated (those belong
    /// to the new owner and must not be merged into memory). Returns
    /// `None` if the line is absent or clean.
    pub fn prepare_inv_flush(
        &mut self,
        line: LineAddr,
        inv_words: WordMask,
    ) -> Option<(LineValues, WordMask, Option<Tid>)> {
        let entry = self.l2.get_mut(line)?;
        if !entry.state.dirty {
            return None;
        }
        entry.state.dirty = false;
        let valid = WordMask(entry.valid.0 & !inv_words.0);
        Some((entry.state.values.clone(), valid, entry.state.owner_tid))
    }

    /// Serializes the hierarchy's full mutable state — the counters and
    /// both levels' tag arrays (slot order, LRU stamps, tick) — for
    /// checkpointing. The configuration is not written; restore
    /// targets a hierarchy freshly built from the same `CacheConfig`
    /// (gated by the snapshot's config digest).
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.stats);
        self.l1.save_state(w);
        self.l2.save_state(w);
    }

    /// Restores state captured by [`HierCache::save_state`] into this
    /// (identically-configured) hierarchy.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on truncated or structurally invalid
    /// input, including array contents that disagree with this
    /// hierarchy's geometry (see [`SetArray::restore_state`]).
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.stats = r.get()?;
        self.l1.restore_state("HierCache.l1", r)?;
        self.l2.restore_state("HierCache.l2", r)
    }

    /// Whether `line` is resident with its dirty bit set.
    #[must_use]
    pub fn is_dirty(&self, line: LineAddr) -> bool {
        self.l2.peek(line).is_some_and(|e| e.state.dirty)
    }

    /// The SR mask of `line` (empty if not resident).
    #[must_use]
    pub fn sr_mask(&self, line: LineAddr) -> WordMask {
        self.l2.peek(line).map_or(WordMask::EMPTY, |e| e.state.sr)
    }

    /// The SM mask of `line` (empty if not resident).
    #[must_use]
    pub fn sm_mask(&self, line: LineAddr) -> WordMask {
        self.l2.peek(line).map_or(WordMask::EMPTY, |e| e.state.sm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Granularity;
    use tcc_types::LineGeometry;

    /// A tiny hierarchy so eviction paths are easy to trigger:
    /// L1 = 2 sets x 1 way, L2 = 2 sets x 2 ways (4 lines total).
    fn tiny() -> HierCache {
        HierCache::new(CacheConfig {
            l1_bytes: 64,
            l1_ways: 1,
            l1_latency: 1,
            l2_bytes: 128,
            l2_ways: 2,
            l2_latency: 16,
            geometry: LineGeometry::new(32, 4),
            granularity: Granularity::Word,
        })
    }

    fn vals() -> LineValues {
        LineValues::fresh(8)
    }

    #[test]
    fn cold_load_misses_then_hits_after_fill() {
        let mut c = tiny();
        assert_eq!(c.load(LineAddr(0), 0), LoadOutcome::Miss);
        let r = c.fill(LineAddr(0), vals(), false);
        assert!(!r.overflow && r.evictions.is_empty());
        match c.load(LineAddr(0), 0) {
            LoadOutcome::Hit {
                level,
                value,
                own_speculative,
                first_read,
            } => {
                assert_eq!(level, Level::L1);
                assert_eq!(value, None);
                assert!(!own_speculative);
                assert!(first_read);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(c.stats().load_misses, 1);
        assert_eq!(c.stats().l1_load_hits, 1);
    }

    #[test]
    fn l2_hit_when_l1_tag_displaced() {
        let mut c = tiny();
        // Lines 0 and 2 map to L1 set 0 (1 way): the second displaces the
        // first from L1 but both stay in L2 (2 ways in set 0).
        c.fill(LineAddr(0), vals(), false);
        c.fill(LineAddr(2), vals(), false);
        match c.load(LineAddr(0), 0) {
            LoadOutcome::Hit { level, .. } => assert_eq!(level, Level::L2),
            other => panic!("expected L2 hit, got {other:?}"),
        }
    }

    #[test]
    fn loads_set_sr_stores_set_sm() {
        let mut c = tiny();
        c.fill(LineAddr(0), vals(), false);
        c.load(LineAddr(0), 3);
        assert!(c.sr_mask(LineAddr(0)).get(3));
        c.store(LineAddr(0), 5);
        assert!(c.sm_mask(LineAddr(0)).get(5));
        assert_eq!(c.speculative_lines(), 1);
        assert_eq!(c.write_set(), vec![(LineAddr(0), WordMask::single(5))]);
    }

    #[test]
    fn reading_own_write_sets_no_sr() {
        let mut c = tiny();
        c.fill(LineAddr(0), vals(), false);
        c.store(LineAddr(0), 2);
        match c.load(LineAddr(0), 2) {
            LoadOutcome::Hit {
                own_speculative, ..
            } => assert!(own_speculative),
            other => panic!("expected hit, got {other:?}"),
        }
        assert!(
            !c.sr_mask(LineAddr(0)).get(2),
            "own-write read must not set SR"
        );
    }

    #[test]
    fn line_granularity_tracks_whole_line() {
        let mut c = HierCache::new(CacheConfig {
            granularity: Granularity::Line,
            ..tiny().config().clone()
        });
        c.fill(LineAddr(0), vals(), false);
        c.load(LineAddr(0), 1);
        assert_eq!(c.sr_mask(LineAddr(0)).count(), 8);
    }

    #[test]
    fn store_miss_is_write_allocate() {
        let mut c = tiny();
        assert_eq!(c.store(LineAddr(0), 0), StoreOutcome::Miss);
        c.fill(LineAddr(0), vals(), false);
        assert!(matches!(c.store(LineAddr(0), 0), StoreOutcome::Hit { .. }));
        assert_eq!(c.stats().store_misses, 1);
    }

    #[test]
    fn first_speculative_store_to_dirty_line_writes_back() {
        let mut c = tiny();
        c.fill(LineAddr(0), vals(), false);
        c.store(LineAddr(0), 1);
        c.commit_tx(Tid(7)); // line is now dirty committed data
        assert!(c.is_dirty(LineAddr(0)));
        // Next transaction stores to the dirty line.
        match c.store(LineAddr(0), 2) {
            StoreOutcome::Hit {
                pre_writeback: Some(ev),
                ..
            } => {
                assert_eq!(ev.line, LineAddr(0));
                assert!(ev.dirty);
                assert_eq!(ev.values.words[1], Some(Tid(7)));
            }
            other => panic!("expected pre-writeback, got {other:?}"),
        }
        assert!(!c.is_dirty(LineAddr(0)));
        // Second store in the same transaction: no further write-back.
        match c.store(LineAddr(0), 3) {
            StoreOutcome::Hit { pre_writeback, .. } => assert!(pre_writeback.is_none()),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn commit_stamps_values_and_clears_speculation() {
        let mut c = tiny();
        c.fill(LineAddr(0), vals(), false);
        c.load(LineAddr(0), 0);
        c.store(LineAddr(0), 4);
        c.commit_tx(Tid(3));
        assert!(c.sr_mask(LineAddr(0)).is_empty());
        assert!(c.sm_mask(LineAddr(0)).is_empty());
        assert!(c.is_dirty(LineAddr(0)));
        match c.load(LineAddr(0), 4) {
            LoadOutcome::Hit { value, .. } => assert_eq!(value, Some(Tid(3))),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn abort_drops_written_lines_and_clears_sr() {
        let mut c = tiny();
        c.fill(LineAddr(0), vals(), false);
        c.fill(LineAddr(1), vals(), false);
        c.load(LineAddr(1), 0);
        c.store(LineAddr(0), 0);
        assert_eq!(c.abort_tx(), 1);
        assert!(!c.contains(LineAddr(0)), "written line dropped");
        assert!(c.contains(LineAddr(1)), "read-only line survives");
        assert!(c.sr_mask(LineAddr(1)).is_empty());
    }

    #[test]
    fn invalidation_conflicts_only_with_read_words() {
        let mut c = tiny();
        c.fill(LineAddr(0), vals(), false);
        c.load(LineAddr(0), 1);
        let miss = c.invalidate(LineAddr(0), WordMask::single(2));
        assert!(miss.was_present && !miss.conflict);
        let hit = c.invalidate(LineAddr(0), WordMask::single(1));
        assert!(hit.was_present && hit.conflict);
        let absent = c.invalidate(LineAddr(9), WordMask::ALL);
        assert!(!absent.was_present && !absent.conflict);
    }

    #[test]
    fn invalidated_words_miss_but_own_writes_survive() {
        let mut c = tiny();
        c.fill(LineAddr(0), vals(), false);
        c.store(LineAddr(0), 3);
        // Remote commit invalidates words 3 (write-write, no conflict)
        // and 4.
        let out = c.invalidate(LineAddr(0), WordMask(0b11000));
        assert!(!out.conflict);
        // Word 4 is gone: upgrade miss.
        assert_eq!(c.load(LineAddr(0), 4), LoadOutcome::Miss);
        // Word 3 is our own speculative write: still readable.
        assert!(matches!(
            c.load(LineAddr(0), 3),
            LoadOutcome::Hit {
                own_speculative: true,
                ..
            }
        ));
        // A merge fill restores word 4 without touching word 3's SM.
        let mut newer = vals();
        newer.apply_write(WordMask::single(4), Tid(11));
        c.fill(LineAddr(0), newer, false);
        match c.load(LineAddr(0), 4) {
            LoadOutcome::Hit { value, .. } => assert_eq!(value, Some(Tid(11))),
            other => panic!("expected hit, got {other:?}"),
        }
        assert!(c.sm_mask(LineAddr(0)).get(3));
    }

    #[test]
    fn fully_invalidated_line_is_dropped() {
        let mut c = tiny();
        c.fill(LineAddr(0), vals(), false);
        c.invalidate(LineAddr(0), WordMask::ALL);
        assert!(!c.contains(LineAddr(0)));
    }

    #[test]
    fn eviction_of_dirty_line_produces_writeback() {
        let mut c = tiny();
        // Fill set 0 of L2 (lines 0, 2), dirty line 0 via commit.
        c.fill(LineAddr(0), vals(), false);
        c.store(LineAddr(0), 0);
        c.commit_tx(Tid(1));
        c.fill(LineAddr(2), vals(), false);
        // Touch line 2 so line 0 is LRU, then force an eviction.
        c.load(LineAddr(2), 0);
        c.commit_tx(Tid(2)); // clear speculation so line 2 is evictable
        let r = c.fill(LineAddr(4), vals(), false);
        assert!(!r.overflow);
        assert_eq!(r.evictions.len(), 1);
        assert_eq!(r.evictions[0].line, LineAddr(0));
        assert!(r.evictions[0].dirty);
        assert!(!c.contains(LineAddr(0)));
    }

    #[test]
    fn speculative_lines_are_not_evicted_overflow_instead() {
        let mut c = tiny();
        // Fill both ways of L2 set 0 and make both speculative.
        c.fill(LineAddr(0), vals(), false);
        c.fill(LineAddr(2), vals(), false);
        c.load(LineAddr(0), 0);
        c.store(LineAddr(2), 0);
        let r = c.fill(LineAddr(4), vals(), false);
        assert!(r.overflow);
        assert!(r.evictions.is_empty());
        assert!(c.contains(LineAddr(0)) && c.contains(LineAddr(2)));
        assert_eq!(c.stats().overflows, 1);
    }

    #[test]
    fn flush_clears_dirty_and_optionally_keeps() {
        let mut c = tiny();
        c.fill(LineAddr(0), vals(), false);
        c.store(LineAddr(0), 1);
        c.commit_tx(Tid(5));
        let (v, valid, generation) = c.flush(LineAddr(0), true).expect("line resident");
        assert_eq!(v.words[1], Some(Tid(5)));
        assert_eq!(valid.count(), 8);
        assert_eq!(generation, Some(Tid(5)), "generation = the committing TID");
        assert!(!c.is_dirty(LineAddr(0)));
        assert!(c.contains(LineAddr(0)));
        let (v2, _, _) = c.flush(LineAddr(0), false).expect("line resident");
        assert_eq!(v2.words[1], Some(Tid(5)));
        assert!(!c.contains(LineAddr(0)));
        assert!(c.flush(LineAddr(0), true).is_none());
    }

    #[test]
    fn save_restore_round_trips_state_and_behaviour() {
        use tcc_types::snap::{SnapReader, SnapWriter};
        let mut c = tiny();
        c.fill(LineAddr(0), vals(), false);
        c.fill(LineAddr(2), vals(), false);
        c.load(LineAddr(0), 1);
        c.store(LineAddr(2), 3);
        c.commit_tx(Tid(4));
        c.fill(LineAddr(1), vals(), false);
        c.load(LineAddr(1), 0);
        c.store(LineAddr(0), 5);
        let mut w = SnapWriter::new();
        c.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = tiny();
        let mut r = SnapReader::new(&bytes);
        restored.restore_state(&mut r).unwrap();
        assert!(r.is_done());
        assert_eq!(restored.stats(), c.stats());
        // Re-saving yields identical bytes: state is fully captured.
        let mut w2 = SnapWriter::new();
        restored.save_state(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
        // Behaviour replays identically, including LRU-driven eviction
        // choices that depend on the restored stamps.
        for cache in [&mut c, &mut restored] {
            cache.load(LineAddr(2), 3);
        }
        let a = c.fill(LineAddr(4), vals(), false);
        let b = restored.fill(LineAddr(4), vals(), false);
        assert_eq!(a, b);
        assert_eq!(c.write_set(), restored.write_set());
        assert_eq!(c.stats(), restored.stats());
    }

    #[test]
    fn write_set_is_deterministically_ordered() {
        let mut c = tiny();
        for l in [3u64, 1, 0, 2] {
            c.fill(LineAddr(l), vals(), false);
            c.store(LineAddr(l), 0);
        }
        let ws: Vec<u64> = c.write_set().iter().map(|(l, _)| l.0).collect();
        assert_eq!(ws, vec![0, 1, 2, 3]);
    }
}
