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
//! so per-slot ordering only needs the tie-break key. Every pending event
//! lives once, in an arena of nodes owned by the queue; a slot is a
//! linked list of arena indices in pop order, the far heap holds
//! `(at, key, seq, index)` tuples, and popped nodes go on a free list,
//! so steady-state scheduling performs no heap allocation.
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
use tcc_types::snap::{Snap, SnapError, SnapReader, SnapWriter};
use tcc_types::Cycle;

pub mod budget;
pub mod reference;
pub mod watchdog;

pub use budget::WorkerBudget;
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

/// The null arena index: ends a slot list and the free list.
const NIL: u32 = u32::MAX;

/// One pending event in the queue's arena. A key is the insertion
/// sequence (or its salted hash); it is stored as `u128` because
/// checkpoints carry keys at that width. `next` links the node to the
/// one after it in its wheel slot, or, once popped, in the free list.
#[derive(Debug)]
struct Node<E> {
    key: u128,
    seq: u64,
    next: u32,
    /// `None` only while the node is on the free list.
    event: Option<E>,
}

/// A wheel slot: the first and last arena index of its list, linked in
/// ascending `(key, seq)` order; both [`NIL`] when the slot is empty.
#[derive(Debug, Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
}

const EMPTY: Slot = Slot {
    head: NIL,
    tail: NIL,
};

/// A deterministic, time-ordered event queue (hierarchical timing wheel;
/// see the module docs for the structure).
///
/// `EventQueue` maintains the simulation clock: [`EventQueue::now`] is
/// the timestamp of the most recently popped event. Scheduling an event
/// in the past is a logic error and panics in debug builds.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Every pending event, plus the popped nodes on the free list. The
    /// arena never shrinks, so steady state allocates nothing.
    nodes: Vec<Node<E>>,
    /// Head of the LIFO free list threaded through `Node::next`.
    free: u32,
    /// Slot `t & WHEEL_MASK` lists the wheel-resident events with
    /// timestamp `t`.
    slots: Box<[Slot]>,
    /// One bit per slot: set iff the slot is non-empty.
    occupancy: [u64; OCC_WORDS],
    /// `(at, key, seq, index)` of the events at or beyond
    /// `now + WHEEL_SLOTS`, promoted as the window advances.
    far: BinaryHeap<Reverse<(Cycle, u128, u64, u32)>>,
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
            nodes: Vec::new(),
            free: NIL,
            slots: vec![EMPTY; WHEEL_SLOTS].into_boxed_slice(),
            occupancy: [0; OCC_WORDS],
            far: BinaryHeap::new(),
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
        let seq = self.seq;
        self.seq += 1;
        let key = match self.tie_break {
            TieBreak::Fifo => u128::from(seq),
            TieBreak::Seeded(salt) => u128::from(mix64(seq ^ salt)),
        };
        self.insert(at, key, seq, event);
    }

    /// Places an event in a fresh node (the free list's head, else a
    /// new one), on the wheel when `at` lies in the window and in the
    /// far heap otherwise.
    #[inline]
    fn insert(&mut self, at: Cycle, key: u128, seq: u64, event: E) {
        let node = Node {
            key,
            seq,
            next: NIL,
            event: Some(event),
        };
        let i = if self.free == NIL {
            assert!(self.nodes.len() < NIL as usize, "event arena is full");
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let i = self.free;
            self.free = self.nodes[i as usize].next;
            self.nodes[i as usize] = node;
            i
        };
        if at.0 - self.now.0 < WHEEL_SLOTS as u64 {
            self.link(at, i);
        } else {
            self.far.push(Reverse((at, key, seq, i)));
        }
    }

    /// True if node `a` pops before node `b` within one slot.
    #[inline]
    fn before(&self, a: u32, b: u32) -> bool {
        let (a, b) = (&self.nodes[a as usize], &self.nodes[b as usize]);
        (a.key, a.seq) < (b.key, b.seq)
    }

    /// Links node `i` (whose `next` is [`NIL`]) into the slot of time
    /// `at`. A direct FIFO insert carries the largest key yet, so it is
    /// a tail append; seeded keys, and far events promoted after direct
    /// inserts reached the slot, walk the list. `(key, seq)` pairs are
    /// distinct, so a walk stops before the tail.
    #[inline]
    fn link(&mut self, at: Cycle, i: u32) {
        let s = (at.0 & WHEEL_MASK) as usize;
        let Slot { head, tail } = self.slots[s];
        if head == NIL {
            self.slots[s] = Slot { head: i, tail: i };
            self.occupancy[s / 64] |= 1u64 << (s % 64);
        } else if self.before(tail, i) {
            self.nodes[tail as usize].next = i;
            self.slots[s].tail = i;
        } else if self.before(i, head) {
            self.nodes[i as usize].next = head;
            self.slots[s].head = i;
        } else {
            // head < i < tail: stop at the last node that pops before i.
            let mut prev = head;
            while self.before(self.nodes[prev as usize].next, i) {
                prev = self.nodes[prev as usize].next;
            }
            self.nodes[i as usize].next = self.nodes[prev as usize].next;
            self.nodes[prev as usize].next = i;
        }
        self.wheel_len += 1;
    }

    /// Moves every far-heap event inside the window `[base, base +
    /// WHEEL_SLOTS)` onto the wheel. Called with `base == now` (or, when
    /// the wheel is empty, `base == ` the far minimum) at the top of
    /// every pop: as the window advances, a far event's deadline can
    /// undercut everything wheel-resident, so promotion cannot wait for
    /// the wheel to drain.
    fn promote(&mut self, base: Cycle) {
        while let Some(&Reverse((at, _, _, i))) = self.far.peek() {
            if at.0 - base.0 >= WHEEL_SLOTS as u64 {
                break;
            }
            self.far.pop();
            self.link(at, i);
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
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        // Window anchor: the wheel covers [base, base + WHEEL_SLOTS).
        // Normally base == now; if the wheel is empty, jump straight to
        // the earliest far event.
        let base = if self.wheel_len == 0 {
            self.far.peek()?.0 .0
        } else {
            self.now
        };
        if !self.far.is_empty() {
            self.promote(base);
        }
        let s = self.scan_from((base.0 & WHEEL_MASK) as usize);
        let dt = (s as u64).wrapping_sub(base.0) & WHEEL_MASK;
        let at = Cycle(base.0 + dt);
        let i = self.slots[s].head;
        let node = &mut self.nodes[i as usize];
        let event = node.event.take().expect("a linked node holds its event");
        let next = std::mem::replace(&mut node.next, self.free);
        self.free = i;
        if next == NIL {
            self.slots[s] = EMPTY;
            self.occupancy[s / 64] &= !(1u64 << (s % 64));
        } else {
            self.slots[s].head = next;
        }
        self.wheel_len -= 1;
        self.now = at;
        self.popped += 1;
        self.tracer.count("engine.events_dispatched", 1);
        Some((at, event))
    }

    /// Every pending event as `(at, key, seq, payload)`, sorted by the
    /// queue's total order `(at, key, seq)`. Wheel timestamps are
    /// reconstructed from slot position relative to the window anchor
    /// (`now`); all wheel residents lie in `[now, now + WHEEL_SLOTS)`
    /// by construction.
    fn export_entries(&self) -> Vec<(Cycle, u128, u64, &E)> {
        let mut out = Vec::with_capacity(self.len());
        let mut push = |at: Cycle, i: u32| {
            let n = &self.nodes[i as usize];
            let event = n.event.as_ref().expect("a pending node holds its event");
            out.push((at, n.key, n.seq, event));
        };
        for (s, slot) in self.slots.iter().enumerate() {
            let dt = (s as u64).wrapping_sub(self.now.0) & WHEEL_MASK;
            let mut i = slot.head;
            while i != NIL {
                push(Cycle(self.now.0 + dt), i);
                i = self.nodes[i as usize].next;
            }
        }
        for &Reverse((at, _, _, i)) in &self.far {
            push(at, i);
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
        let mut last = None;
        for (at, key, eseq, event) in entries {
            if at < now {
                let detail = format!("event at {at} predates now {now}");
                return Err(SnapError::invalid("EventQueue", detail));
            }
            if eseq >= seq {
                let detail = format!("event seq {eseq} not below next seq {seq}");
                return Err(SnapError::invalid("EventQueue", detail));
            }
            // Strictly ascending order makes every wheel insert below a
            // tail append, and rules out duplicate entries.
            if last >= Some((at, key, eseq)) {
                let detail = format!("event ({at}, {key}, {eseq}) is not above the one before it");
                return Err(SnapError::invalid("EventQueue", detail));
            }
            last = Some((at, key, eseq));
            q.insert(at, key, eseq, event);
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
        let far = self.far.peek().map(|&Reverse((at, ..))| at);
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
    /// are a pure function of queue *state*, not of arena/heap layout
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
    /// Any decode failure, or an entry that predates the clock, reuses
    /// a sequence number at or beyond the next one, or is not strictly
    /// above the entry before it in `(at, key, seq)` order (the snapshot
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

    /// After a warm-up, rounds of schedules and pops with at most `K`
    /// events pending run on recycled nodes: the arena never holds more
    /// than `K` nodes, its buffer is never reallocated, and every event
    /// pops exactly once.
    #[test]
    fn steady_state_reuses_arena_nodes() {
        const K: usize = 64;
        for tb in [TieBreak::Fifo, TieBreak::Seeded(0xa11c)] {
            let mut rng = SmallRng::seed_from_u64(0xe191_0005);
            let mut q = EventQueue::with_tie_break(tb);
            let mut pops = Vec::new();
            let mut scheduled = 0usize;
            let mut capacity = None;
            for _ in 0..2_000 {
                while q.len() < K {
                    // Same-cycle ties, near events, and far events.
                    let d = match rng.gen_range(0u32..8) {
                        0 => 0,
                        1 => WHEEL_SLOTS as u64 + rng.gen_range(0u64..3_000),
                        _ => rng.gen_range(1u64..200),
                    };
                    q.schedule(q.now() + d, scheduled);
                    scheduled += 1;
                }
                for _ in 0..rng.gen_range(1..=K) {
                    pops.push(q.pop().expect("K events are pending").1);
                }
                assert!(q.nodes.len() <= K, "arena grew to {}", q.nodes.len());
                let cap = *capacity.get_or_insert(q.nodes.capacity());
                assert_eq!(q.nodes.capacity(), cap, "steady state reallocated");
            }
            pops.extend(std::iter::from_fn(|| q.pop().map(|(_, e)| e)));
            pops.sort_unstable();
            assert_eq!(pops, (0..scheduled).collect::<Vec<_>>());
        }
    }

    /// Restore takes entries only in the strictly ascending order that
    /// `save_state` writes: a duplicated or out-of-order entry is an
    /// invalid snapshot, not a queue with a corrupt slot list.
    #[test]
    fn restore_rejects_duplicate_and_unsorted_entries() {
        let restore = |entries: &[(Cycle, u128, u64, u32)]| {
            let mut w = SnapWriter::new();
            w.put(&Cycle(5)); // now
            w.put(&10u64); // next seq
            w.put(&3u64); // popped
            w.put(&entries.to_vec());
            let bytes = w.into_bytes();
            EventQueue::<u32>::restore_state(TieBreak::Fifo, &mut SnapReader::new(&bytes))
        };
        let a = (Cycle(7), 4, 4, 40);
        let b = (Cycle(7), 6, 6, 60);
        let far = (Cycle(5 + WHEEL_SLOTS as u64), 5, 5, 50);
        let mut q = restore(&[a, b, far]).expect("sorted entries restore");
        let popped: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(popped, [40, 60, 50]);
        for bad in [
            vec![a, a],
            vec![a, b, b],
            vec![b, a],
            vec![far, a],
            vec![far, far],
        ] {
            let err = restore(&bad).expect_err("an entry not above the one before it");
            assert!(
                matches!(
                    err,
                    SnapError::Invalid {
                        what: "EventQueue",
                        ..
                    }
                ),
                "{err}"
            );
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
