//! Bounded ring buffer of trace records.
//!
//! The ring keeps the *most recent* `capacity` events: when full, the
//! oldest record is dropped. `recorded()` counts every push ever made,
//! and `dropped()` counts the records evicted or discarded on push, so
//! an exporter knows exactly how much history was lost; records
//! drained by `take()` are not lost. A zero-capacity ring discards
//! everything while still counting — that is the "metrics only"
//! tracing mode.

use std::collections::VecDeque;

use crate::event::TraceRecord;

#[derive(Debug, Clone, Default)]
pub struct EventRing {
    buf: VecDeque<TraceRecord>,
    capacity: usize,
    recorded: u64,
    dropped: u64,
}

impl EventRing {
    pub fn new(capacity: usize) -> Self {
        EventRing {
            buf: VecDeque::with_capacity(capacity.min(1 << 20)),
            capacity,
            recorded: 0,
            dropped: 0,
        }
    }

    /// Append a record, evicting the oldest if the ring is full.
    pub fn push(&mut self, rec: TraceRecord) {
        self.recorded += 1;
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(rec);
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total records ever pushed (retained + dropped).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Records lost to overflow (or to a zero-capacity ring).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Oldest-to-newest iteration over the retained window.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf.iter()
    }

    /// Drain the retained window, oldest first.
    pub fn take(&mut self) -> Vec<TraceRecord> {
        self.buf.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use tcc_types::{Cycle, NodeId, Tid};

    fn rec(i: u64) -> TraceRecord {
        TraceRecord {
            at: Cycle(i),
            event: TraceEvent::TidAcquire {
                node: NodeId(0),
                tid: Tid(i),
                waited: 0,
            },
        }
    }

    #[test]
    fn keeps_everything_under_capacity() {
        let mut r = EventRing::new(8);
        for i in 0..5 {
            r.push(rec(i));
        }
        assert_eq!(r.len(), 5);
        assert_eq!(r.recorded(), 5);
        assert_eq!(r.dropped(), 0);
        let ats: Vec<u64> = r.iter().map(|x| x.at.0).collect();
        assert_eq!(ats, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn wraps_by_dropping_oldest() {
        let mut r = EventRing::new(4);
        for i in 0..10 {
            r.push(rec(i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.recorded(), 10);
        assert_eq!(r.dropped(), 6);
        let ats: Vec<u64> = r.iter().map(|x| x.at.0).collect();
        assert_eq!(ats, vec![6, 7, 8, 9], "must retain the newest window");
    }

    #[test]
    fn zero_capacity_counts_but_stores_nothing() {
        let mut r = EventRing::new(0);
        for i in 0..100 {
            r.push(rec(i));
        }
        assert!(r.is_empty());
        assert_eq!(r.recorded(), 100);
        assert_eq!(r.dropped(), 100);
    }

    #[test]
    fn take_drains_oldest_first_and_resets_window() {
        let mut r = EventRing::new(3);
        for i in 0..5 {
            r.push(rec(i));
        }
        let taken = r.take();
        assert_eq!(
            taken.iter().map(|x| x.at.0).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert!(r.is_empty());
        // recorded keeps counting across a drain.
        r.push(rec(99));
        assert_eq!(r.recorded(), 6);
    }
}
