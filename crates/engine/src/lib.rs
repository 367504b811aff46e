//! Deterministic discrete-event simulation kernel.
//!
//! The Scalable TCC simulator is an event-driven, cycle-accurate model:
//! processors, directories, and network links interact purely by
//! scheduling events at future [`Cycle`]s. This crate provides the
//! kernel: a time-ordered [`EventQueue`] with *deterministic* tie-breaking
//! (events scheduled for the same cycle pop in scheduling order), so a
//! given configuration and seed always produces bit-identical results —
//! a property the test suite and the paper-reproduction harness both rely
//! on.
//!
//! # Scheduler structure
//!
//! Nearly every event in the simulator fires within a few hundred cycles
//! of when it is scheduled (link latency, directory occupancy, memory
//! fills); only rare timers (retransmission timeouts, watchdog horizons)
//! look further ahead. [`EventQueue`] exploits that shape with a
//! *hierarchical timing wheel*:
//!
//! * a **near wheel** of [`WHEEL_SLOTS`] single-cycle slots covers the
//!   window `[now, now + WHEEL_SLOTS)`; the slot for time `t` is
//!   `t % WHEEL_SLOTS`, and an occupancy bitmap makes "next non-empty
//!   slot" a couple of `trailing_zeros` scans;
//! * a **far heap** (plain binary heap) holds the rare events beyond the
//!   window; they are *promoted* onto the wheel as the window advances.
//!
//! Because all wheel-resident events lie in one half-open window of
//! length `WHEEL_SLOTS`, each slot holds events of exactly one timestamp,
//! so per-slot ordering only needs the tie-break key. Event payloads are
//! interned in a generational [`Slab`] and the
//! wheel/heap move 24-byte `(key, seq, id)` entries instead of full
//! events — steady-state scheduling performs no heap allocation.
//!
//! The original `BinaryHeap` scheduler is retained verbatim as
//! [`ReferenceQueue`] and the property tests replay random schedules
//! through both in lockstep.
//!
//! # Example
//!
//! ```
//! use tcc_engine::EventQueue;
//! use tcc_types::Cycle;
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.schedule(Cycle(10), "b");
//! q.schedule(Cycle(5), "a");
//! q.schedule(Cycle(10), "c");
//!
//! assert_eq!(q.pop(), Some((Cycle(5), "a")));
//! assert_eq!(q.pop(), Some((Cycle(10), "b"))); // FIFO within a cycle
//! assert_eq!(q.pop(), Some((Cycle(10), "c")));
//! assert_eq!(q.pop(), None);
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use tcc_trace::Tracer;
use tcc_types::hash::mix64;
use tcc_types::slab::{Slab, SlabKey};
use tcc_types::snap::{Snap, SnapError, SnapReader, SnapWriter};
use tcc_types::Cycle;

pub mod budget;
pub mod reference;
pub mod watchdog;

pub use budget::{WorkerBudget, WorkerLease};
pub use reference::ReferenceQueue;
pub use watchdog::{progress_signature, ProgressWatchdog, WatchdogConfig};

/// How events scheduled for the *same* cycle are ordered.
///
/// The default ([`TieBreak::Fifo`]) pops same-cycle events in scheduling
/// order — the stable baseline every determinism test fingerprints.
/// [`TieBreak::Seeded`] permutes same-cycle order by hashing the
/// insertion sequence with a salt: still fully deterministic for a given
/// salt, but each salt explores a *different* legal interleaving of
/// simultaneous events. The chaos explorer uses this as an extra
/// schedule axis on top of message-latency perturbation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TieBreak {
    /// Same-cycle events pop in scheduling order.
    #[default]
    Fifo,
    /// Same-cycle events pop in salted-hash order (deterministic per
    /// salt; insertion order still breaks hash collisions).
    Seeded(u64),
}

/// Number of single-cycle slots in the near wheel (must be a power of
/// two). Events within `WHEEL_SLOTS` cycles of `now` go straight onto
/// the wheel; later ones wait in the far heap.
pub const WHEEL_SLOTS: usize = 1 << 10;
const WHEEL_MASK: u64 = WHEEL_SLOTS as u64 - 1;
const OCC_WORDS: usize = WHEEL_SLOTS / 64;

/// Typed report of an internally-inconsistent queue: an occupancy bit
/// without entries, or a wheel entry whose interned payload is gone.
/// Both states are unreachable through the safe API, but an embedding
/// that replays corrupt or adversarial event streams wants them
/// surfaced as a run failure rather than a process abort — see
/// [`EventQueue::try_pop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueCorruption {
    /// The occupancy bitmap pointed at slot `slot`, but it held no
    /// entries.
    EmptySlot { slot: usize },
    /// A popped wheel entry's payload was missing from the slab.
    MissingPayload { at: Cycle },
}

impl std::fmt::Display for QueueCorruption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueCorruption::EmptySlot { slot } => {
                write!(f, "event queue corrupt: occupied slot {slot} is empty")
            }
            QueueCorruption::MissingPayload { at } => {
                write!(
                    f,
                    "event queue corrupt: wheel entry at {at} has no interned payload"
                )
            }
        }
    }
}

/// A wheel-slot entry. All entries in one slot share the same timestamp
/// (see module docs), so ordering within a slot is `(key, seq)` only;
/// the payload lives in the queue's slab behind `id`.
///
/// A key is the insertion sequence (or its salted hash); it is stored
/// as `u128` because checkpoints carry keys at that width.
#[derive(Debug, Clone, Copy)]
struct SlotEntry {
    key: u128,
    seq: u64,
    id: SlabKey,
}

#[inline]
fn slot_lt(a: &SlotEntry, b: &SlotEntry) -> bool {
    (a.key, a.seq) < (b.key, b.seq)
}

/// Pushes onto a slot's implicit binary min-heap. Under FIFO
/// tie-breaking keys arrive in increasing order, so the sift-up loop
/// exits immediately and pushes are O(1).
fn slot_push(slot: &mut Vec<SlotEntry>, e: SlotEntry) {
    slot.push(e);
    let mut i = slot.len() - 1;
    while i > 0 {
        let p = (i - 1) / 2;
        if slot_lt(&slot[i], &slot[p]) {
            slot.swap(i, p);
            i = p;
        } else {
            break;
        }
    }
}

/// Pops the minimum `(key, seq)` entry from a slot heap, or `None`
/// when the slot is (corruptly) empty despite its occupancy bit.
fn slot_pop(slot: &mut Vec<SlotEntry>) -> Option<SlotEntry> {
    if slot.is_empty() {
        return None;
    }
    let last = slot.len() - 1;
    slot.swap(0, last);
    let e = slot.pop()?;
    let n = slot.len();
    let mut i = 0;
    loop {
        let l = 2 * i + 1;
        if l >= n {
            break;
        }
        let r = l + 1;
        let c = if r < n && slot_lt(&slot[r], &slot[l]) {
            r
        } else {
            l
        };
        if slot_lt(&slot[c], &slot[i]) {
            slot.swap(i, c);
            i = c;
        } else {
            break;
        }
    }
    Some(e)
}

/// Far-heap entry: full `(at, key, seq)` ordering, payload in the slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FarEntry {
    at: Cycle,
    key: u128,
    seq: u64,
    id: SlabKey,
}

impl PartialOrd for FarEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FarEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at
            .cmp(&other.at)
            .then(self.key.cmp(&other.key))
            .then(self.seq.cmp(&other.seq))
    }
}

/// A deterministic, time-ordered event queue (hierarchical timing wheel;
/// see the module docs for the structure).
///
/// `EventQueue` maintains the simulation clock: [`EventQueue::now`] is
/// the timestamp of the most recently popped event. Scheduling an event
/// in the past is a logic error and panics in debug builds.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// `WHEEL_SLOTS` per-slot min-heaps; slot `t & WHEEL_MASK` holds the
    /// wheel-resident events with timestamp `t`. Slot capacity is
    /// retained across reuse, so steady state allocates nothing.
    slots: Box<[Vec<SlotEntry>]>,
    /// One bit per slot: set iff the slot is non-empty.
    occupancy: [u64; OCC_WORDS],
    /// Events at or beyond `now + WHEEL_SLOTS`, promoted as the window
    /// advances.
    far: BinaryHeap<Reverse<FarEntry>>,
    /// Interned payloads; wheel and far heap carry only `SlabKey`s.
    events: Slab<E>,
    /// Number of wheel-resident events (`len() == wheel_len + far.len()`).
    wheel_len: usize,
    seq: u64,
    now: Cycle,
    popped: u64,
    tie_break: TieBreak,
    tracer: Tracer,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`Cycle::ZERO`].
    #[must_use]
    pub fn new() -> EventQueue<E> {
        EventQueue {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            occupancy: [0; OCC_WORDS],
            far: BinaryHeap::new(),
            events: Slab::new(),
            wheel_len: 0,
            seq: 0,
            now: Cycle::ZERO,
            popped: 0,
            tie_break: TieBreak::Fifo,
            tracer: Tracer::disabled(),
        }
    }

    /// Creates an empty queue with the given same-cycle ordering policy.
    #[must_use]
    pub fn with_tie_break(tie_break: TieBreak) -> EventQueue<E> {
        let mut q = EventQueue::new();
        q.tie_break = tie_break;
        q
    }

    /// Attaches the shared tracing sink; the kernel contributes only
    /// dispatch counters (never events), and never reads the tracer.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The current simulation time: the timestamp of the last popped
    /// event.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.wheel_len + self.far.len()
    }

    /// True if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events processed so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` is before [`EventQueue::now`]:
    /// scheduling into the past would silently reorder causality.
    pub fn schedule(&mut self, at: Cycle, event: E) {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: {at} < now {}",
            self.now
        );
        let at = at.max(self.now);
        let key = match self.tie_break {
            TieBreak::Fifo => u128::from(self.seq),
            TieBreak::Seeded(salt) => u128::from(mix64(self.seq ^ salt)),
        };
        self.insert(at, key, event);
    }

    #[inline]
    fn insert(&mut self, at: Cycle, key: u128, event: E) {
        let seq = self.seq;
        self.seq += 1;
        let id = self.events.insert(event);
        if at.0 - self.now.0 < WHEEL_SLOTS as u64 {
            self.wheel_insert(at, SlotEntry { key, seq, id });
        } else {
            self.far.push(Reverse(FarEntry { at, key, seq, id }));
        }
    }

    #[inline]
    fn wheel_insert(&mut self, at: Cycle, entry: SlotEntry) {
        let slot = (at.0 & WHEEL_MASK) as usize;
        slot_push(&mut self.slots[slot], entry);
        self.occupancy[slot / 64] |= 1u64 << (slot % 64);
        self.wheel_len += 1;
    }

    /// Moves every far-heap event inside the window `[base, base +
    /// WHEEL_SLOTS)` onto the wheel. Called with `base == now` (or, when
    /// the wheel is empty, `base == ` the far minimum) at the top of
    /// every pop: as the window advances, a far event's deadline can
    /// undercut everything wheel-resident, so promotion cannot wait for
    /// the wheel to drain.
    fn promote(&mut self, base: Cycle) {
        while let Some(&Reverse(e)) = self.far.peek() {
            if e.at.0 - base.0 >= WHEEL_SLOTS as u64 {
                break;
            }
            self.far.pop();
            self.wheel_insert(
                e.at,
                SlotEntry {
                    key: e.key,
                    seq: e.seq,
                    id: e.id,
                },
            );
        }
    }

    /// First occupied slot at circular distance >= `start`'s position,
    /// scanning the occupancy bitmap. Caller guarantees the wheel is
    /// non-empty.
    #[inline]
    fn scan_from(&self, start: usize) -> usize {
        let w0 = start / 64;
        let masked = self.occupancy[w0] & (!0u64 << (start % 64));
        if masked != 0 {
            return w0 * 64 + masked.trailing_zeros() as usize;
        }
        for i in 1..=OCC_WORDS {
            let w = (w0 + i) % OCC_WORDS;
            let bits = self.occupancy[w];
            if bits != 0 {
                return w * 64 + bits.trailing_zeros() as usize;
            }
        }
        unreachable!("scan_from on an empty wheel");
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Events at equal timestamps pop in scheduling order
    /// (FIFO) or salted order (seeded) — identical to [`ReferenceQueue`].
    ///
    /// # Panics
    ///
    /// Panics if the queue's internal structures are inconsistent
    /// (unreachable through this API); embeddings that must survive
    /// that use [`EventQueue::try_pop`].
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        self.try_pop().expect("corrupt event queue")
    }

    /// [`EventQueue::pop`], but internal inconsistency comes back as a
    /// typed [`QueueCorruption`] instead of a panic, so a simulation
    /// driver can record the failure (e.g. in a chaos-oracle run
    /// report) and unwind cleanly.
    ///
    /// # Errors
    ///
    /// Returns [`QueueCorruption`] when the occupancy bitmap, a wheel
    /// slot, and the payload slab disagree.
    pub fn try_pop(&mut self) -> Result<Option<(Cycle, E)>, QueueCorruption> {
        // Window anchor: the wheel covers [base, base + WHEEL_SLOTS).
        // Normally base == now; if the wheel is empty, jump straight to
        // the earliest far event.
        let base = if self.wheel_len == 0 {
            match self.far.peek() {
                Some(&Reverse(e)) => e.at,
                None => return Ok(None),
            }
        } else {
            self.now
        };
        if !self.far.is_empty() {
            self.promote(base);
        }
        debug_assert!(self.wheel_len > 0);
        let slot = self.scan_from((base.0 & WHEEL_MASK) as usize);
        let dt = (slot as u64).wrapping_sub(base.0) & WHEEL_MASK;
        let at = Cycle(base.0 + dt);
        let Some(entry) = slot_pop(&mut self.slots[slot]) else {
            return Err(QueueCorruption::EmptySlot { slot });
        };
        if self.slots[slot].is_empty() {
            self.occupancy[slot / 64] &= !(1u64 << (slot % 64));
        }
        self.wheel_len -= 1;
        let Some(event) = self.events.remove(entry.id) else {
            return Err(QueueCorruption::MissingPayload { at });
        };
        self.now = at;
        self.popped += 1;
        self.tracer.count("engine.events_dispatched", 1);
        Ok(Some((at, event)))
    }

    /// Every pending event as `(at, key, seq, payload)`, sorted by the
    /// queue's total order `(at, key, seq)`. Wheel timestamps are
    /// reconstructed from slot position relative to the window anchor
    /// (`now`); all wheel residents lie in `[now, now + WHEEL_SLOTS)`
    /// by construction.
    fn export_entries(&self) -> Vec<(Cycle, u128, u64, &E)> {
        let mut out = Vec::with_capacity(self.len());
        for (slot, entries) in self.slots.iter().enumerate() {
            let dt = (slot as u64).wrapping_sub(self.now.0) & WHEEL_MASK;
            let at = Cycle(self.now.0 + dt);
            for e in entries {
                let ev = self
                    .events
                    .get(e.id)
                    .expect("wheel entry payload missing from slab");
                out.push((at, e.key, e.seq, ev));
            }
        }
        for &Reverse(e) in &self.far {
            let ev = self
                .events
                .get(e.id)
                .expect("far entry payload missing from slab");
            out.push((e.at, e.key, e.seq, ev));
        }
        out.sort_by_key(|a| (a.0, a.1, a.2));
        out
    }

    /// The queue [`EventQueue::save_state`] captured: the clock, the
    /// counters, and every pending entry with its original ordering key.
    fn restore(
        tie_break: TieBreak,
        now: Cycle,
        seq: u64,
        popped: u64,
        entries: Vec<(Cycle, u128, u64, E)>,
    ) -> Result<EventQueue<E>, SnapError> {
        let mut q = EventQueue::with_tie_break(tie_break);
        q.now = now;
        q.seq = seq;
        q.popped = popped;
        for (at, key, eseq, event) in entries {
            if at < now {
                let detail = format!("event at {at} predates now {now}");
                return Err(SnapError::invalid("EventQueue", detail));
            }
            if eseq >= seq {
                let detail = format!("event seq {eseq} not below next seq {seq}");
                return Err(SnapError::invalid("EventQueue", detail));
            }
            let id = q.events.insert(event);
            if at.0 - now.0 < WHEEL_SLOTS as u64 {
                q.wheel_insert(at, SlotEntry { key, seq: eseq, id });
            } else {
                q.far.push(Reverse(FarEntry {
                    at,
                    key,
                    seq: eseq,
                    id,
                }));
            }
        }
        Ok(q)
    }

    /// The timestamp of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<Cycle> {
        let wheel = if self.wheel_len > 0 {
            let slot = self.scan_from((self.now.0 & WHEEL_MASK) as usize);
            let dt = (slot as u64).wrapping_sub(self.now.0) & WHEEL_MASK;
            Some(Cycle(self.now.0 + dt))
        } else {
            None
        };
        let far = self.far.peek().map(|&Reverse(e)| e.at);
        match (wheel, far) {
            (Some(w), Some(f)) => Some(w.min(f)),
            (w, f) => w.or(f),
        }
    }
}

impl<E: Snap> EventQueue<E> {
    /// Serializes the queue's checkpointable state: the clock, the
    /// next insertion sequence number (future FIFO tie-break keys
    /// derive from it), the pop counter, and every pending entry as
    /// `(at, key, seq, event)` in the queue's total order, so the bytes
    /// are a pure function of queue *state*, not of slab/heap layout
    /// history.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.now);
        w.put(&self.seq);
        w.put(&self.popped);
        let entries = self.export_entries();
        w.put(&entries.len());
        for (at, key, seq, event) in entries {
            w.put(&at);
            w.put(&key);
            w.put(&seq);
            w.put(event);
        }
    }

    /// Rebuilds a queue from [`EventQueue::save_state`] bytes. Every
    /// entry keeps its *original* `(key, seq)`: re-insertion must not
    /// re-key events, or same-cycle ordering (and thus the resumed
    /// run's fingerprint) would diverge from the uninterrupted run.
    ///
    /// # Errors
    ///
    /// Any decode failure, or an entry that predates the clock or
    /// reuses a sequence number at or beyond the next one (the snapshot
    /// is inconsistent).
    pub fn restore_state(tie_break: TieBreak, r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let now = r.get()?;
        let seq = r.get()?;
        let popped = r.get()?;
        EventQueue::restore(tie_break, now, seq, popped, r.get()?)
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcc_types::rng::SmallRng;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(30), 3);
        q.schedule(Cycle(10), 1);
        q.schedule(Cycle(20), 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(Cycle(10), 1), (Cycle(20), 2), (Cycle(30), 3)]);
    }

    #[test]
    fn fifo_within_same_cycle() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Cycle(7), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), Cycle::ZERO);
        q.schedule(Cycle(5), ());
        q.pop();
        assert_eq!(q.now(), Cycle(5));
        q.schedule(q.now() + 3, ());
        assert_eq!(q.peek_time(), Some(Cycle(8)));
        q.pop();
        assert_eq!(q.now(), Cycle(8));
        assert_eq!(q.events_processed(), 2);
        assert!(q.is_empty());
    }

    // The past-scheduling guard is a debug_assert, so the panic only
    // exists in debug builds; release test runs skip this.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(10), ());
        q.pop();
        q.schedule(Cycle(5), ());
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
    }

    /// Popped timestamps are non-decreasing, and ties preserve
    /// insertion order, for arbitrary schedules.
    #[test]
    fn prop_time_order_with_stable_ties() {
        let mut rng = SmallRng::seed_from_u64(0xe191_0001);
        for _ in 0..256 {
            let n = rng.gen_range(1usize..200);
            let mut q = EventQueue::new();
            for i in 0..n {
                q.schedule(Cycle(rng.gen_range(0u64..50)), i);
            }
            let mut last: Option<(Cycle, usize)> = None;
            while let Some((t, i)) = q.pop() {
                if let Some((lt, li)) = last {
                    assert!(t >= lt);
                    if t == lt {
                        assert!(i > li, "ties must pop in insertion order");
                    }
                }
                last = Some((t, i));
            }
        }
    }

    #[test]
    fn seeded_tie_break_is_deterministic_and_permutes() {
        let run = |tb: TieBreak| {
            let mut q = EventQueue::with_tie_break(tb);
            for i in 0..64 {
                q.schedule(Cycle(3), i);
            }
            std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect::<Vec<i32>>()
        };
        let fifo = run(TieBreak::Fifo);
        let a1 = run(TieBreak::Seeded(0xabcd));
        let a2 = run(TieBreak::Seeded(0xabcd));
        let b = run(TieBreak::Seeded(0x1234));
        assert_eq!(a1, a2, "same salt must replay the same order");
        assert_ne!(a1, fifo, "a salt should permute same-cycle order");
        assert_ne!(a1, b, "different salts should explore different orders");
        // No event lost or duplicated, and FIFO is 0..64 in order.
        let mut sorted = a1.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, fifo);
    }

    #[test]
    fn seeded_tie_break_still_respects_time_order() {
        let mut rng = SmallRng::seed_from_u64(0xe191_0003);
        for salt in 0..32 {
            let mut q = EventQueue::with_tie_break(TieBreak::Seeded(salt));
            let n = rng.gen_range(1usize..200);
            for i in 0..n {
                q.schedule(Cycle(rng.gen_range(0u64..20)), i);
            }
            let mut seen = vec![false; n];
            let mut last = Cycle::ZERO;
            while let Some((t, i)) = q.pop() {
                assert!(t >= last);
                last = t;
                assert!(!seen[i]);
                seen[i] = true;
            }
            assert!(seen.iter().all(|&b| b));
        }
    }

    /// Every scheduled event is popped exactly once.
    #[test]
    fn prop_no_event_lost() {
        let mut rng = SmallRng::seed_from_u64(0xe191_0002);
        for _ in 0..256 {
            let n = rng.gen_range(0usize..300);
            let mut q = EventQueue::new();
            for i in 0..n {
                q.schedule(Cycle(rng.gen_range(0u64..1000)), i);
            }
            let mut seen = vec![false; n];
            while let Some((_, i)) = q.pop() {
                assert!(!seen[i], "event {i} popped twice");
                seen[i] = true;
            }
            assert!(seen.iter().all(|&b| b));
            assert_eq!(q.events_processed(), n as u64);
        }
    }

    /// Events past the wheel horizon live in the far heap and still pop
    /// in global order, including when the wheel is completely empty and
    /// the window has to jump forward.
    #[test]
    fn far_heap_promotion_and_window_jump() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(5), "near");
        q.schedule(Cycle(500_000), "far");
        q.schedule(Cycle(WHEEL_SLOTS as u64 + 3), "just-past-horizon");
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(Cycle(5)));
        assert_eq!(q.pop(), Some((Cycle(5), "near")));
        assert_eq!(
            q.pop(),
            Some((Cycle(WHEEL_SLOTS as u64 + 3), "just-past-horizon"))
        );
        // Wheel empty, far event half a million cycles out: pop jumps.
        assert_eq!(q.peek_time(), Some(Cycle(500_000)));
        assert_eq!(q.pop(), Some((Cycle(500_000), "far")));
        assert_eq!(q.now(), Cycle(500_000));
        assert!(q.is_empty());
    }

    /// Save + restore reproduces the exact pop sequence of the
    /// original queue — including events scheduled *after* the restore
    /// point, whose FIFO keys depend on the restored `seq` counter —
    /// across tie-break policies and near/far placements.
    #[test]
    fn export_restore_round_trips_pending_events() {
        for tb in [TieBreak::Fifo, TieBreak::Seeded(0xfeed)] {
            let mut rng = SmallRng::seed_from_u64(0xe191_0004);
            let mut q = EventQueue::with_tie_break(tb);
            for i in 0..200usize {
                // Mix of same-cycle ties, near events, and far events.
                let at = match i % 5 {
                    0 => 40,
                    4 => WHEEL_SLOTS as u64 * 3 + rng.gen_range(0u64..100),
                    _ => rng.gen_range(0u64..2000),
                };
                q.schedule(Cycle(at), i);
            }
            for _ in 0..37 {
                q.pop();
            }
            let entries = q.export_entries();
            assert_eq!(entries.len(), q.len());
            assert!(entries
                .windows(2)
                .all(|w| { (w[0].0, w[0].1, w[0].2) < (w[1].0, w[1].1, w[1].2) }));
            let mut w = SnapWriter::new();
            q.save_state(&mut w);
            let bytes = w.into_bytes();
            let mut restored = EventQueue::restore_state(tb, &mut SnapReader::new(&bytes)).unwrap();
            assert_eq!(restored.len(), q.len());
            assert_eq!(restored.now(), q.now());
            // Post-restore scheduling must continue the key stream.
            for i in 500..520usize {
                let at = q.now() + 10 + (i as u64 % 7);
                q.schedule(at, i);
                restored.schedule(at, i);
            }
            loop {
                let a = q.pop();
                let b = restored.pop();
                assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
            assert_eq!(q.events_processed(), restored.events_processed());
        }
    }

    /// A far event whose deadline comes to undercut wheel-resident
    /// events must be promoted before they pop.
    #[test]
    fn far_event_undercuts_wheel_entries() {
        let mut q = EventQueue::new();
        // Far event at WHEEL_SLOTS + 10 (beyond horizon at t=0).
        q.schedule(Cycle(WHEEL_SLOTS as u64 + 10), "far");
        // March time forward with filler events.
        q.schedule(Cycle(100), "a");
        assert_eq!(q.pop(), Some((Cycle(100), "a")));
        // Now schedule a wheel event *after* the far deadline.
        q.schedule(Cycle(WHEEL_SLOTS as u64 + 50), "wheel-late");
        assert_eq!(q.pop(), Some((Cycle(WHEEL_SLOTS as u64 + 10), "far")));
        assert_eq!(
            q.pop(),
            Some((Cycle(WHEEL_SLOTS as u64 + 50), "wheel-late"))
        );
    }
}
