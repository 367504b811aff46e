//! A generic set-associative array with true-LRU replacement.

use std::ops::Range;

use tcc_types::snap::{Snap, SnapError, SnapReader, SnapWriter};
use tcc_types::LineAddr;

/// Largest associativity a [`SetArray`] supports (set lengths are
/// stored as `u8`).
pub const MAX_WAYS: usize = u8::MAX as usize;

/// One way of a set: a tag plus caller-defined payload, stamped for LRU.
#[derive(Debug, Clone)]
struct Way<T> {
    line: LineAddr,
    stamp: u64,
    data: T,
}

/// A set-associative tag/data array with true-LRU replacement.
///
/// Used for both cache levels: the L2 stores full [`crate::LineState`]
/// payloads, the L1 is a tag-only presence filter (`T = ()`) over the
/// inclusive L2.
///
/// Storage scales with the lines resident, not with the capacity: the
/// ways live densely in one pool, and each set holds the pool indices
/// of its ways, in slot order, in a chunk of `ways` slots that it owns
/// only while it holds a line. Whole-array walks (`iter`,
/// `drain_filter`, `len`) visit resident lines only. Pool and chunk
/// order are artifacts of the insert/remove history and are not
/// preserved by checkpoints; no result may depend on them.
#[derive(Debug, Clone)]
pub struct SetArray<T> {
    pool: Vec<Way<T>>,
    /// Chunks of `ways` pool indices each; the first `lens[set]` slots
    /// of a set's chunk are live.
    arena: Vec<u32>,
    /// The line of each arena slot's way, so a lookup scans its set's
    /// tags without touching the pool.
    tags: Vec<LineAddr>,
    /// Per set, the chunk it owns, or [`NO_CHUNK`] while it is empty.
    chunks: Vec<u32>,
    lens: Vec<u8>,
    /// Chunks of the arena that no set owns.
    free: Vec<u32>,
    ways: usize,
    tick: u64,
}

/// The chunk index of a set that holds no line. Chunk indices are
/// below the set count, which is below `u32::MAX`.
const NO_CHUNK: u32 = u32::MAX;

impl<T> SetArray<T> {
    /// Creates an array of `sets` sets with `ways` ways each.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero, `ways` exceeds
    /// [`MAX_WAYS`], or the capacity exceeds `u32::MAX` lines.
    #[must_use]
    pub fn new(sets: usize, ways: usize) -> SetArray<T> {
        assert!(sets > 0 && ways > 0, "cache dimensions must be nonzero");
        assert!(ways <= MAX_WAYS, "{ways} ways exceed MAX_WAYS");
        assert!(
            sets.checked_mul(ways)
                .is_some_and(|c| u32::try_from(c).is_ok()),
            "cache capacity must fit u32 pool indices"
        );
        SetArray {
            pool: Vec::new(),
            arena: Vec::new(),
            tags: Vec::new(),
            chunks: vec![NO_CHUNK; sets],
            lens: vec![0; sets],
            free: Vec::new(),
            ways,
            tick: 0,
        }
    }

    /// Number of sets.
    #[must_use]
    pub fn n_sets(&self) -> usize {
        self.lens.len()
    }

    /// Associativity.
    #[must_use]
    pub fn n_ways(&self) -> usize {
        self.ways
    }

    /// Total lines currently resident.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// True if no lines are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pool.is_empty()
    }

    fn set_of(&self, line: LineAddr) -> usize {
        // XOR-folded set hashing (as in many real cache designs):
        // plain modulo indexing pathologically aliases address streams
        // whose lines stride by a multiple of the set count — exactly
        // what NUMA-interleaved home placement produces.
        let h = line.0 ^ (line.0 >> 12);
        (h % self.lens.len() as u64) as usize
    }

    /// The arena range of `set`'s live slots, in slot order (empty
    /// while the set owns no chunk).
    fn live(&self, set: usize) -> Range<usize> {
        let len = usize::from(self.lens[set]);
        if len == 0 {
            return 0..0;
        }
        let base = self.chunks[set] as usize * self.ways;
        base..base + len
    }

    /// The live pool indices of `set`, in slot order.
    fn set_slots(&self, set: usize) -> &[u32] {
        &self.arena[self.live(set)]
    }

    /// Gives empty `set` a chunk: a free one, else `ways` new arena
    /// slots.
    fn claim_chunk(&mut self, set: usize) {
        debug_assert_eq!(self.chunks[set], NO_CHUNK);
        self.chunks[set] = self.free.pop().unwrap_or_else(|| {
            let chunk = (self.arena.len() / self.ways) as u32;
            self.arena.resize(self.arena.len() + self.ways, 0);
            self.tags.resize(self.arena.len(), LineAddr(0));
            chunk
        });
    }

    /// `(set, slot)` of `line`, if resident.
    fn slot_of(&self, line: LineAddr) -> Option<(usize, usize)> {
        let set = self.set_of(line);
        let k = self.tags[self.live(set)].iter().position(|&t| t == line)?;
        Some((set, k))
    }

    /// Pool index of `line`, if resident.
    fn find(&self, line: LineAddr) -> Option<usize> {
        let (set, k) = self.slot_of(line)?;
        Some(self.set_slots(set)[k] as usize)
    }

    fn bump(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Looks up `line`, refreshing its LRU position on a hit.
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut T> {
        let stamp = self.bump();
        let i = self.find(line)?;
        let way = &mut self.pool[i];
        way.stamp = stamp;
        Some(&mut way.data)
    }

    /// Looks up `line` without disturbing LRU state.
    #[must_use]
    pub fn peek(&self, line: LineAddr) -> Option<&T> {
        self.find(line).map(|i| &self.pool[i].data)
    }

    /// Whether `line` is resident (no LRU update).
    #[must_use]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Inserts `line`; if its set is full, evicts a victim first.
    ///
    /// The victim is the least-recently-used way for which
    /// `may_evict(&victim)` holds. Returns `Ok(evicted)` on success
    /// (`evicted` is `None` if there was a free way) or `Err(data)` if
    /// the set is full and no way may be evicted — the caller's
    /// speculative-overflow case.
    ///
    /// # Panics
    ///
    /// Panics if `line` is already resident; callers must update in
    /// place via [`SetArray::get_mut`] instead of re-inserting.
    pub fn insert(
        &mut self,
        line: LineAddr,
        data: T,
        may_evict: impl Fn(&T) -> bool,
    ) -> Result<Option<(LineAddr, T)>, T> {
        let stamp = self.bump();
        assert!(
            self.find(line).is_none(),
            "line {line} already resident; update in place"
        );
        let set = self.set_of(line);
        let way = Way { line, stamp, data };
        let len = usize::from(self.lens[set]);
        if len < self.ways {
            if len == 0 {
                self.claim_chunk(set);
            }
            let at = self.chunks[set] as usize * self.ways + len;
            self.arena[at] = self.pool.len() as u32;
            self.tags[at] = line;
            self.lens[set] += 1;
            self.pool.push(way);
            return Ok(None);
        }
        // Full set: evict the LRU way that the caller permits; the
        // newcomer takes over the victim's slot and pool entry.
        let victim = self
            .set_slots(set)
            .iter()
            .enumerate()
            .map(|(k, &i)| (k, i as usize))
            .filter(|&(_, i)| may_evict(&self.pool[i].data))
            .min_by_key(|&(_, i)| self.pool[i].stamp);
        match victim {
            Some((k, i)) => {
                let at = self.live(set).start + k;
                self.tags[at] = line;
                let old = std::mem::replace(&mut self.pool[i], way);
                Ok(Some((old.line, old.data)))
            }
            None => Err(way.data),
        }
    }

    /// Removes the way in slot `k` of `set`: the set's last slot moves
    /// into `k`, and the pool's last entry moves into the freed pool
    /// index (its own slot is repointed). A set left empty frees its
    /// chunk.
    fn unlink(&mut self, set: usize, k: usize) -> (LineAddr, T) {
        let live = self.live(set);
        let (at, last) = (live.start + k, live.end - 1);
        let i = self.arena[at] as usize;
        self.arena[at] = self.arena[last];
        self.tags[at] = self.tags[last];
        self.lens[set] -= 1;
        if self.lens[set] == 0 {
            self.free.push(self.chunks[set]);
            self.chunks[set] = NO_CHUNK;
        }
        let way = self.pool.swap_remove(i);
        if let Some(moved) = self.pool.get(i) {
            let moved_set = self.set_of(moved.line);
            let from = self.pool.len() as u32;
            let live = self.live(moved_set);
            let slot = self.arena[live].iter_mut().find(|s| **s == from);
            *slot.expect("every pool entry is linked from its set") = i as u32;
        }
        (way.line, way.data)
    }

    /// Removes `line`, returning its payload if present.
    pub fn remove(&mut self, line: LineAddr) -> Option<T> {
        let (set, k) = self.slot_of(line)?;
        Some(self.unlink(set, k).1)
    }

    /// Iterates over all resident lines (no LRU effect, arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &T)> {
        self.pool.iter().map(|w| (w.line, &w.data))
    }

    /// Mutably iterates over all resident lines (no LRU effect,
    /// arbitrary order).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (LineAddr, &mut T)> {
        self.pool.iter_mut().map(|w| (w.line, &mut w.data))
    }

    /// Overwrites this array's contents with the tick and ways
    /// [`SetArray::save_state`] wrote for an identically-dimensioned
    /// array. Refuses, leaving the array unchanged, if the set count
    /// differs, a set exceeds the associativity, a stamp is ahead of
    /// `tick`, a line sits in a set it does not hash to, or a line
    /// appears twice (the snapshot does not belong to this geometry).
    fn restore_ways(
        &mut self,
        tick: u64,
        sets: Vec<Vec<(LineAddr, u64, T)>>,
    ) -> Result<(), String> {
        if sets.len() != self.n_sets() {
            return Err(format!("{} sets, array has {}", sets.len(), self.n_sets()));
        }
        for (set, ways) in sets.iter().enumerate() {
            if ways.len() > self.ways {
                return Err(format!(
                    "set {set} holds {} ways of {}",
                    ways.len(),
                    self.ways
                ));
            }
            for (k, &(line, stamp, _)) in ways.iter().enumerate() {
                if stamp > tick {
                    return Err(format!("way stamp {stamp} ahead of tick {tick}"));
                }
                if self.set_of(line) != set {
                    return Err(format!(
                        "line {line} in set {set}, hashes to {}",
                        self.set_of(line)
                    ));
                }
                if ways[..k].iter().any(|w| w.0 == line) {
                    return Err(format!("line {line} appears twice in set {set}"));
                }
            }
        }
        self.tick = tick;
        self.pool.clear();
        self.arena.clear();
        self.tags.clear();
        self.free.clear();
        self.chunks.fill(NO_CHUNK);
        for (set, ways) in sets.into_iter().enumerate() {
            self.lens[set] = ways.len() as u8;
            if ways.is_empty() {
                continue;
            }
            self.claim_chunk(set);
            for (k, (line, stamp, data)) in ways.into_iter().enumerate() {
                let at = self.chunks[set] as usize * self.ways + k;
                self.arena[at] = self.pool.len() as u32;
                self.tags[at] = line;
                self.pool.push(Way { line, stamp, data });
            }
        }
        Ok(())
    }

    /// Removes every line for which `pred` holds, returning them set by
    /// set in ascending set order, each set scanned by slot with the
    /// same swap-removal as [`SetArray::remove`]. `pred` is called once
    /// per resident line, in arbitrary order.
    pub fn drain_filter(
        &mut self,
        mut pred: impl FnMut(LineAddr, &T) -> bool,
    ) -> Vec<(LineAddr, T)> {
        // `hit` is indexed like the pool and mirrors its swap-removals.
        let mut hit: Vec<bool> = self.pool.iter().map(|w| pred(w.line, &w.data)).collect();
        let mut sets: Vec<usize> = self
            .pool
            .iter()
            .zip(&hit)
            .filter(|(_, &h)| h)
            .map(|(w, _)| self.set_of(w.line))
            .collect();
        sets.sort_unstable();
        sets.dedup();
        let mut out = Vec::new();
        for set in sets {
            let mut k = 0;
            while k < usize::from(self.lens[set]) {
                let i = self.set_slots(set)[k] as usize;
                if hit[i] {
                    hit.swap_remove(i);
                    out.push(self.unlink(set, k));
                } else {
                    k += 1;
                }
            }
        }
        out
    }
}

impl<T: Snap> SetArray<T> {
    /// Serializes the array: the LRU tick plus, per set, every way's
    /// `(line, stamp, payload)` in physical slot order. Slot order is
    /// kept (not just the stamp order) so a restored array is
    /// byte-identical in layout, not merely LRU-equivalent: eviction
    /// scans, removals and re-saves replay exactly. Not a `Snap` impl
    /// because the geometry is the config's, and restore checks the
    /// ways against it.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.tick);
        w.put(&self.n_sets());
        for set in 0..self.n_sets() {
            let slots = self.set_slots(set);
            w.put(&slots.len());
            for &i in slots {
                let way = &self.pool[i as usize];
                w.put(&way.line);
                w.put(&way.stamp);
                w.put(&way.data);
            }
        }
    }

    /// Restores what [`SetArray::save_state`] wrote into this
    /// identically-dimensioned array.
    ///
    /// # Errors
    ///
    /// Any decode failure, or [`SnapError::Invalid`] naming `what` when
    /// the ways do not fit this array's geometry (the array is then
    /// left unchanged).
    pub fn restore_state(
        &mut self,
        what: &'static str,
        r: &mut SnapReader<'_>,
    ) -> Result<(), SnapError> {
        let tick = r.get()?;
        let sets = r.get()?;
        self.restore_ways(tick, sets)
            .map_err(|e| SnapError::invalid(what, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcc_types::rng::SmallRng;

    #[test]
    fn insert_and_lookup() {
        let mut a: SetArray<u32> = SetArray::new(4, 2);
        assert!(a.insert(LineAddr(0), 10, |_| true).unwrap().is_none());
        assert!(a.insert(LineAddr(4), 20, |_| true).unwrap().is_none());
        assert_eq!(a.peek(LineAddr(0)), Some(&10));
        assert_eq!(a.get_mut(LineAddr(4)), Some(&mut 20));
        assert!(a.contains(LineAddr(4)));
        assert!(!a.contains(LineAddr(8)));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn lru_eviction_prefers_least_recently_used() {
        let mut a: SetArray<u32> = SetArray::new(1, 2);
        a.insert(LineAddr(0), 0, |_| true).unwrap();
        a.insert(LineAddr(1), 1, |_| true).unwrap();
        // Touch line 0 so line 1 becomes LRU.
        a.get_mut(LineAddr(0));
        let evicted = a.insert(LineAddr(2), 2, |_| true).unwrap();
        assert_eq!(evicted, Some((LineAddr(1), 1)));
        assert!(a.contains(LineAddr(0)));
        assert!(a.contains(LineAddr(2)));
    }

    #[test]
    fn pinned_ways_are_skipped_for_eviction() {
        let mut a: SetArray<u32> = SetArray::new(1, 2);
        a.insert(LineAddr(0), 100, |_| true).unwrap(); // LRU but pinned
        a.insert(LineAddr(1), 5, |_| true).unwrap();
        let evicted = a.insert(LineAddr(2), 7, |&d| d < 50).unwrap();
        assert_eq!(
            evicted,
            Some((LineAddr(1), 5)),
            "pinned LRU way must survive"
        );
    }

    #[test]
    fn full_set_of_pinned_ways_reports_overflow() {
        let mut a: SetArray<u32> = SetArray::new(1, 2);
        a.insert(LineAddr(0), 1, |_| true).unwrap();
        a.insert(LineAddr(1), 2, |_| true).unwrap();
        assert!(a.insert(LineAddr(2), 3, |_| false).is_err());
        // The failed insert must not have displaced anything.
        assert!(a.contains(LineAddr(0)) && a.contains(LineAddr(1)));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn remove_and_drain() {
        let mut a: SetArray<u32> = SetArray::new(2, 2);
        for i in 0..4 {
            a.insert(LineAddr(i), i as u32, |_| true).unwrap();
        }
        assert_eq!(a.remove(LineAddr(1)), Some(1));
        assert_eq!(a.remove(LineAddr(1)), None);
        let odd = a.drain_filter(|l, _| l.0 % 2 == 1);
        assert_eq!(odd, vec![(LineAddr(3), 3)]);
        assert_eq!(a.len(), 2);
    }

    #[test]
    #[should_panic(expected = "already resident")]
    fn double_insert_panics() {
        let mut a: SetArray<u32> = SetArray::new(1, 2);
        a.insert(LineAddr(0), 1, |_| true).unwrap();
        a.insert(LineAddr(0), 2, |_| true).unwrap();
    }

    #[test]
    fn lines_map_to_sets_by_modulo() {
        let mut a: SetArray<u32> = SetArray::new(4, 1);
        // Lines 0 and 4 collide; 1 does not.
        a.insert(LineAddr(0), 0, |_| true).unwrap();
        a.insert(LineAddr(1), 1, |_| true).unwrap();
        let ev = a.insert(LineAddr(4), 4, |_| true).unwrap();
        assert_eq!(ev, Some((LineAddr(0), 0)));
        assert!(a.contains(LineAddr(1)));
    }

    type Sets = Vec<Vec<(LineAddr, u64, u64)>>;

    /// The per-set layout, one `Vec` of ways per set, as the reference:
    /// append on insert, in-place replacement on eviction, swap-removal
    /// on removal, and a per-set slot scan for `drain_filter`.
    struct Model {
        sets: Sets,
        ways: usize,
        tick: u64,
    }

    impl Model {
        fn set(&mut self, line: LineAddr) -> &mut Vec<(LineAddr, u64, u64)> {
            let n = self.sets.len() as u64;
            &mut self.sets[((line.0 ^ (line.0 >> 12)) % n) as usize]
        }
        fn get_mut(&mut self, line: LineAddr) -> Option<u64> {
            self.tick += 1;
            let tick = self.tick;
            let w = self.set(line).iter_mut().find(|w| w.0 == line)?;
            w.1 = tick;
            Some(w.2)
        }
        fn insert(
            &mut self,
            line: LineAddr,
            data: u64,
            pin: u64,
        ) -> Result<Option<(LineAddr, u64)>, u64> {
            self.tick += 1;
            let (tick, ways) = (self.tick, self.ways);
            let set = self.set(line);
            if set.len() < ways {
                set.push((line, tick, data));
                return Ok(None);
            }
            let victim = set
                .iter()
                .enumerate()
                .filter(|(_, w)| w.2 % 4 != pin)
                .min_by_key(|(_, w)| w.1);
            let i = victim.ok_or(data)?.0;
            let old = std::mem::replace(&mut set[i], (line, tick, data));
            Ok(Some((old.0, old.2)))
        }
        fn remove(&mut self, line: LineAddr) -> Option<u64> {
            let set = self.set(line);
            let i = set.iter().position(|w| w.0 == line)?;
            Some(set.swap_remove(i).2)
        }
        fn drain(&mut self, modulus: u64) -> Vec<(LineAddr, u64)> {
            let mut out = Vec::new();
            for set in &mut self.sets {
                let mut i = 0;
                while i < set.len() {
                    if set[i].0 .0 % modulus == 0 {
                        let w = set.swap_remove(i);
                        out.push((w.0, w.2));
                    } else {
                        i += 1;
                    }
                }
            }
            out
        }
    }

    /// Every live slot points at a distinct pool entry that hashes to
    /// its set, and every pool entry is linked exactly once. Every
    /// non-empty set owns one chunk and an empty set none, no chunk is
    /// both owned and free or owned twice, and the arena holds exactly
    /// the owned and free chunks.
    fn assert_links<T>(a: &SetArray<T>) {
        let mut linked = vec![0u32; a.pool.len()];
        for set in 0..a.n_sets() {
            for &i in a.set_slots(set) {
                assert_eq!(
                    a.set_of(a.pool[i as usize].line),
                    set,
                    "pool {i} linked from a foreign set"
                );
                linked[i as usize] += 1;
            }
        }
        assert!(linked.iter().all(|&n| n == 1), "pool links {linked:?}");
        for set in 0..a.n_sets() {
            for at in a.live(set) {
                let i = a.arena[at] as usize;
                assert_eq!(a.tags[at], a.pool[i].line, "slot {at} tags another line");
            }
        }
        assert_eq!(a.tags.len(), a.arena.len(), "one tag per arena slot");
        let mut held = a.free.clone();
        for set in 0..a.n_sets() {
            let owns = a.chunks[set] != NO_CHUNK;
            assert_eq!(owns, a.lens[set] > 0, "set {set} chunk {}", a.chunks[set]);
            if owns {
                held.push(a.chunks[set]);
            }
        }
        held.sort_unstable();
        let n_chunks = a.arena.len() / a.ways;
        assert_eq!(a.arena.len(), n_chunks * a.ways, "arena holds whole chunks");
        assert_eq!(
            held,
            (0..n_chunks as u32).collect::<Vec<_>>(),
            "every chunk is owned by one set or free, never both"
        );
    }

    /// The tick and ways as [`SetArray::save_state`] encodes them.
    fn owned(a: &SetArray<u64>) -> (u64, Sets) {
        let mut w = SnapWriter::new();
        a.save_state(&mut w);
        let bytes = w.into_bytes();
        SnapReader::new(&bytes).get().expect("own encoding decodes")
    }

    /// The dense pool behaves exactly like the per-set reference under
    /// random lookups, pinned inserts, removals, drains and
    /// export/restore round trips: same results, same evictions and
    /// overflow refusals, same exported slot layout.
    #[test]
    fn prop_dense_pool_matches_per_set_reference() {
        let mut rng = SmallRng::seed_from_u64(0xa44a_0003);
        for _ in 0..64 {
            let (sets, ways) = (rng.gen_range(1usize..6), rng.gen_range(1usize..5));
            let mut a: SetArray<u64> = SetArray::new(sets, ways);
            let mut m = Model {
                sets: vec![Vec::new(); sets],
                ways,
                tick: 0,
            };
            for step in 0..400u64 {
                // Lines past 4096 exercise the XOR fold of the set hash.
                let line = LineAddr(rng.gen_range(0u64..40) + 4096 * rng.gen_range(0u64..2));
                match rng.gen_range(0u32..100) {
                    0..=29 => assert_eq!(a.get_mut(line).copied(), m.get_mut(line)),
                    30..=64 => {
                        if a.contains(line) {
                            continue;
                        }
                        let pin = rng.gen_range(0u64..5);
                        let got = a.insert(line, step, |&d| d % 4 != pin);
                        assert_eq!(got, m.insert(line, step, pin));
                    }
                    65..=84 => assert_eq!(a.remove(line), m.remove(line)),
                    85..=89 => {
                        let modulus = rng.gen_range(2u64..5);
                        assert_eq!(a.drain_filter(|l, _| l.0 % modulus == 0), m.drain(modulus));
                    }
                    90..=92 => {
                        let (tick, sets) = owned(&a);
                        let mut b = SetArray::new(a.n_sets(), a.n_ways());
                        b.restore_ways(tick, sets).expect("own export restores");
                        a = b;
                    }
                    93..=94 => {
                        let (tick, sets) = owned(&a);
                        a.restore_ways(tick, sets)
                            .expect("own export restores in place");
                    }
                    _ => assert_eq!(
                        a.peek(line),
                        m.set(line).iter().find(|w| w.0 == line).map(|w| &w.2)
                    ),
                }
                assert_links(&a);
                let (tick, exported) = owned(&a);
                assert_eq!(tick, m.tick);
                assert_eq!(exported, m.sets);
                assert_eq!(a.len(), m.sets.iter().map(Vec::len).sum::<usize>());
            }
        }
    }

    /// Capacity is never exceeded and every resident line is findable.
    #[test]
    fn prop_capacity_respected() {
        let mut rng = SmallRng::seed_from_u64(0xa44a_0001);
        for _ in 0..256 {
            let mut a: SetArray<u64> = SetArray::new(4, 2);
            let n = rng.gen_range(1usize..200);
            for _ in 0..n {
                let l = rng.gen_range(0u64..64);
                if !a.contains(LineAddr(l)) {
                    let _ = a.insert(LineAddr(l), l, |_| true);
                }
                assert!(a.len() <= 8);
                assert_eq!(a.peek(LineAddr(l)).copied(), Some(l));
            }
        }
    }

    /// An element touched every step is never evicted by other traffic
    /// in the same set (true LRU).
    #[test]
    fn prop_hot_line_survives() {
        let mut rng = SmallRng::seed_from_u64(0xa44a_0002);
        for _ in 0..256 {
            let mut a: SetArray<u64> = SetArray::new(1, 4);
            a.insert(LineAddr(1000), 1000, |_| true).unwrap();
            let n = rng.gen_range(1usize..100);
            for _ in 0..n {
                let l = rng.gen_range(0u64..32);
                assert!(a.get_mut(LineAddr(1000)).is_some(), "hot line evicted");
                if !a.contains(LineAddr(l)) {
                    let _ = a.insert(LineAddr(l), l, |_| true);
                }
            }
            assert!(a.contains(LineAddr(1000)));
        }
    }
}
