//! Reference scheduler: the original `BinaryHeap`-based event queue.
//!
//! This is the pre-timing-wheel implementation of [`EventQueue`], kept
//! verbatim as a *differential oracle*: the property tests replay random
//! schedules through both implementations in lockstep and assert the pop
//! streams are identical (same `(cycle, event)` pairs, same tie-break
//! behaviour under both [`TieBreak::Fifo`] and [`TieBreak::Seeded`]).
//! It is not used on the simulation hot path.
//!
//! [`EventQueue`]: crate::EventQueue

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use tcc_types::hash::mix64;
use tcc_types::Cycle;

use crate::TieBreak;

/// Heap entry: ordered by time, then tie key, then insertion sequence
/// (`key == seq` under FIFO tie-breaking).
#[derive(Debug)]
struct Entry<E> {
    at: Cycle,
    key: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at
            .cmp(&other.at)
            .then(self.key.cmp(&other.key))
            .then(self.seq.cmp(&other.seq))
    }
}

/// The original binary-heap event queue, retained as a test oracle.
///
/// Semantics (scheduling clamp, tie-break keys, clock advance) are
/// identical to [`EventQueue`](crate::EventQueue); only the underlying
/// data structure differs.
#[derive(Debug)]
pub struct ReferenceQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: Cycle,
    popped: u64,
    tie_break: TieBreak,
}

impl<E> ReferenceQueue<E> {
    /// Creates an empty queue with the clock at [`Cycle::ZERO`].
    #[must_use]
    pub fn new() -> ReferenceQueue<E> {
        ReferenceQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: Cycle::ZERO,
            popped: 0,
            tie_break: TieBreak::Fifo,
        }
    }

    /// Creates an empty queue with the given same-cycle ordering policy.
    #[must_use]
    pub fn with_tie_break(tie_break: TieBreak) -> ReferenceQueue<E> {
        let mut q = ReferenceQueue::new();
        q.tie_break = tie_break;
        q
    }

    /// The current simulation time.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events processed so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Schedules `event` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: Cycle, event: E) {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: {at} < now {}",
            self.now
        );
        let key = match self.tie_break {
            TieBreak::Fifo => self.seq,
            TieBreak::Seeded(salt) => mix64(self.seq ^ salt),
        };
        let entry = Entry {
            at: at.max(self.now),
            key,
            seq: self.seq,
            event,
        };
        self.seq += 1;
        self.heap.push(Reverse(entry));
    }

    /// Removes and returns the earliest event, advancing the clock.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let Reverse(e) = self.heap.pop()?;
        self.now = e.at;
        self.popped += 1;
        Some((e.at, e.event))
    }

    /// The timestamp of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<Cycle> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }
}

impl<E> Default for ReferenceQueue<E> {
    fn default() -> Self {
        ReferenceQueue::new()
    }
}
