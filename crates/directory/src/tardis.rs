//! Timestamp-ordered (Tardis-style) home-node state.
//!
//! Each home node keeps, per line it owns, a logical-time interval
//! `[wts, rts]`: `wts` is the logical time of the last committed write,
//! `rts` the end of the newest read lease. A fill hands the reader the
//! interval along with the data; the reader may commit any logical time
//! inside it without talking to the home again. Writers take a
//! short-lived exclusive lock per line, pick a commit time above every
//! outstanding lease (`> rts`), publish write-through, and bump `wts`.
//! Stale private copies are never chased down: a reader holding an old
//! version simply commits *earlier in logical time* than the writer, so
//! the home sends **no invalidations at all** — the property the
//! protocol-comparison experiments measure.
//!
//! [`TardisHome`] is a pure state machine in the same style as
//! [`Directory`](crate::Directory): each `handle_*` method consumes one
//! message's fields and pushes the `(extra_delay, DirAction)` replies it
//! triggers; controller occupancy and directory-cache timing are
//! applied by the simulation layer in `tcc-core`.
//!
//! # Idempotence audit (duplicate / reordered delivery)
//!
//! * **Naturally idempotent**: `handle_load` (duplicate request yields a
//!   duplicate reply, dropped at the processor by `req` id; the lease
//!   re-extension converges), `handle_renew` (the verdict is a pure
//!   function of `(wts, locked)`; a duplicate yields a duplicate
//!   verdict, dropped at the processor by attempt id).
//! * **Relies on transport dedup**: `handle_lock` (a duplicate request
//!   from the current holder would enqueue a second grant),
//!   `handle_publish` / `handle_release` (a duplicate unlock underflows
//!   the lock state — the assert is kept as an exactly-once-violation
//!   detector).

use std::collections::VecDeque;

use tcc_types::hash::FxHashMap;
use tcc_types::snap::{SnapError, SnapReader, SnapWriter};
use tcc_types::{snap_fields, LineAddr, LineValues, NodeId, Payload, Tid, WordMask};

use crate::DirAction;

/// Per-line timestamp state at the home node.
#[derive(Debug, Clone)]
pub struct TardisLine {
    /// Logical time of the last committed write.
    pub wts: u64,
    /// End of the newest read lease.
    pub rts: u64,
    /// Committed contents (writer stamps), kept current by the
    /// write-through publishes.
    pub values: LineValues,
    /// Commit-time exclusive write lock.
    pub locked: Option<NodeId>,
    /// FIFO of committers waiting for the lock.
    lock_queue: VecDeque<NodeId>,
    /// Loads deferred while the line was locked: `(requester, req)`.
    deferred_loads: Vec<(NodeId, u64)>,
}

impl TardisLine {
    fn fresh(words: usize) -> TardisLine {
        TardisLine {
            wts: 0,
            rts: 0,
            values: LineValues::fresh(words),
            locked: None,
            lock_queue: VecDeque::new(),
            deferred_loads: Vec::new(),
        }
    }
}

snap_fields!(TardisLine {
    wts,
    rts,
    values,
    locked,
    lock_queue,
    deferred_loads,
});

/// Event counters for one Tardis home.
#[derive(Debug, Clone, Copy, Default)]
pub struct TardisHomeStats {
    /// Load requests serviced (including deferred ones, once).
    pub loads: u64,
    /// Loads deferred behind a write lock.
    pub deferred_loads: u64,
    /// Lease renewals granted.
    pub renews: u64,
    /// Renewals refused because the line's `wts` moved.
    pub renew_nacks: u64,
    /// Renewals refused because the line was write-locked.
    pub renew_nacks_locked: u64,
    /// Lock requests queued behind a holder.
    pub lock_waits: u64,
    /// Committed lines published.
    pub publishes: u64,
}

snap_fields!(TardisHomeStats {
    loads,
    deferred_loads,
    renews,
    renew_nacks,
    renew_nacks_locked,
    lock_waits,
    publishes,
});

/// One node's slice of the timestamp-ordered home state.
#[derive(Debug)]
pub struct TardisHome {
    /// Logical lease length granted per fill (`rts = max(rts, wts + lease)`).
    lease: u64,
    /// Words per cache line (for fresh-line synthesis).
    words_per_line: usize,
    /// Extra delay a data reply pays for the memory read.
    mem_latency: u64,
    lines: FxHashMap<LineAddr, TardisLine>,
    /// Highest commit time published at this home (progress telemetry).
    max_ts: u64,
    /// Event counters.
    pub stats: TardisHomeStats,
}

impl TardisHome {
    /// Builds an empty home slice.
    #[must_use]
    pub fn new(lease: u64, words_per_line: usize, mem_latency: u64) -> TardisHome {
        TardisHome {
            lease,
            words_per_line,
            mem_latency,
            lines: FxHashMap::default(),
            max_ts: 0,
            stats: TardisHomeStats::default(),
        }
    }

    fn line(&mut self, line: LineAddr) -> &mut TardisLine {
        self.lines
            .entry(line)
            .or_insert_with(|| TardisLine::fresh(self.words_per_line))
    }

    /// Read access to a line's state, if the home has seen it.
    #[must_use]
    pub fn line_state(&self, line: LineAddr) -> Option<&TardisLine> {
        self.lines.get(&line)
    }

    /// Highest commit time published at this home.
    #[must_use]
    pub fn max_ts(&self) -> u64 {
        self.max_ts
    }

    /// Serves a load: extends the read lease and replies with data plus
    /// the `[wts, rts]` interval. Deferred while the line is locked (the
    /// lock holder has already chosen a commit time above the current
    /// `rts`; extending the lease under it would un-serialize them).
    pub fn handle_load(
        &mut self,
        line: LineAddr,
        requester: NodeId,
        req: u64,
        out: &mut Vec<(u64, DirAction)>,
    ) {
        let lease = self.lease;
        let mem = self.mem_latency;
        let l = self.line(line);
        if l.locked.is_some() {
            l.deferred_loads.push((requester, req));
            self.stats.deferred_loads += 1;
            return;
        }
        l.rts = l.rts.max(l.wts + lease);
        let reply = Payload::TsLoadReply {
            line,
            values: l.values.clone(),
            wts: l.wts,
            rts: l.rts,
            req,
        };
        self.stats.loads += 1;
        out.push((
            mem,
            DirAction {
                to: requester,
                payload: reply,
            },
        ));
    }

    /// Serves a commit-time lock request: grants immediately if free,
    /// else queues FIFO (requesters lock in ascending line order, so
    /// the wait graph is acyclic).
    pub fn handle_lock(
        &mut self,
        line: LineAddr,
        requester: NodeId,
        out: &mut Vec<(u64, DirAction)>,
    ) {
        let l = self.line(line);
        debug_assert_ne!(l.locked, Some(requester), "re-lock by the holder");
        if l.locked.is_some() {
            l.lock_queue.push_back(requester);
            self.stats.lock_waits += 1;
            return;
        }
        l.locked = Some(requester);
        out.push((
            0,
            DirAction {
                to: requester,
                payload: Payload::TsLockAck {
                    line,
                    wts: l.wts,
                    rts: l.rts,
                },
            },
        ));
    }

    /// Serves a lease renewal: succeeds iff no write intervened
    /// (`wts` unchanged) and the line is not locked; on success the
    /// lease is extended to cover `ts`. A locked line nacks rather than
    /// defers — the renewer may itself hold locks, and making it wait
    /// on this line's holder could close a cycle; a nack makes it
    /// release and retry instead.
    pub fn handle_renew(
        &mut self,
        line: LineAddr,
        requester: NodeId,
        wts: u64,
        ts: u64,
        req: u64,
        out: &mut Vec<(u64, DirAction)>,
    ) {
        let l = self.line(line);
        let ok = if l.locked.is_some() {
            self.stats.renew_nacks_locked += 1;
            false
        } else if l.wts != wts {
            self.stats.renew_nacks += 1;
            false
        } else {
            l.rts = l.rts.max(ts);
            self.stats.renews += 1;
            true
        };
        out.push((
            0,
            DirAction {
                to: requester,
                payload: Payload::TsRenewAck { line, ok, req },
            },
        ));
    }

    /// Applies a committed line write-through: merges the flagged words,
    /// advances `wts = ts`, releases the lock, and serves everything
    /// that queued behind it.
    ///
    /// # Panics
    ///
    /// Panics if `committer` does not hold the line's lock (an
    /// exactly-once-delivery violation).
    pub fn handle_publish(
        &mut self,
        line: LineAddr,
        words: WordMask,
        tid: Tid,
        ts: u64,
        committer: NodeId,
        out: &mut Vec<(u64, DirAction)>,
    ) {
        {
            let l = self.line(line);
            assert_eq!(
                l.locked,
                Some(committer),
                "publish of {line} by a non-holder"
            );
            l.values.apply_write(words, tid);
            l.wts = ts;
            l.rts = l.rts.max(ts);
        }
        self.max_ts = self.max_ts.max(ts);
        self.stats.publishes += 1;
        self.unlock(line, out);
        out.push((
            0,
            DirAction {
                to: committer,
                payload: Payload::TsPublishAck { line },
            },
        ));
    }

    /// Releases a lock without publishing (commit-attempt abort).
    ///
    /// # Panics
    ///
    /// Panics if `requester` does not hold the line's lock.
    pub fn handle_release(
        &mut self,
        line: LineAddr,
        requester: NodeId,
        out: &mut Vec<(u64, DirAction)>,
    ) {
        assert_eq!(
            self.line(line).locked,
            Some(requester),
            "release of {line} by a non-holder"
        );
        self.unlock(line, out);
    }

    /// Drops the lock, serves the loads that deferred behind it, then
    /// hands the lock to the next queued committer (loads first: the
    /// lease they extend is the one the next writer must clear).
    fn unlock(&mut self, line: LineAddr, out: &mut Vec<(u64, DirAction)>) {
        let l = self.lines.get_mut(&line).expect("unlock of unknown line");
        l.locked = None;
        let deferred = std::mem::take(&mut l.deferred_loads);
        for (requester, req) in deferred {
            self.handle_load(line, requester, req, out);
        }
        let l = self.lines.get_mut(&line).expect("unlock of unknown line");
        if let Some(next) = l.lock_queue.pop_front() {
            l.locked = Some(next);
            out.push((
                0,
                DirAction {
                    to: next,
                    payload: Payload::TsLockAck {
                        line,
                        wts: l.wts,
                        rts: l.rts,
                    },
                },
            ));
        }
    }

    /// Number of lines with home state allocated.
    #[must_use]
    pub fn working_set(&self) -> usize {
        self.lines.len()
    }

    /// Serializes the home's mutable state. Not a `Snap` impl because
    /// the lease length, line width and memory latency come from the
    /// config the resuming caller rebuilds.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.lines);
        w.put(&self.max_ts);
        w.put(&self.stats);
    }

    /// Restores state captured by [`TardisHome::save_state`].
    ///
    /// # Errors
    ///
    /// Propagates the decode failure.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.lines = r.get()?;
        self.max_ts = r.get()?;
        self.stats = r.get()?;
        Ok(())
    }

    /// Asserts no lock, queue entry, or deferred load survives the run.
    pub fn assert_quiescent(&self) {
        for (line, l) in &self.lines {
            assert!(
                l.locked.is_none(),
                "{line} still locked by {:?} at quiescence",
                l.locked
            );
            assert!(
                l.lock_queue.is_empty(),
                "{line} still has queued lockers at quiescence"
            );
            assert!(
                l.deferred_loads.is_empty(),
                "{line} still has deferred loads at quiescence"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn home() -> TardisHome {
        TardisHome::new(10, 8, 100)
    }

    #[test]
    fn load_extends_lease_and_replies_with_interval() {
        let mut h = home();
        let mut out = Vec::new();
        h.handle_load(LineAddr(3), NodeId(1), 1, &mut out);
        let (extra, a) = &out[0];
        assert_eq!(*extra, 100);
        assert_eq!(a.to, NodeId(1));
        let Payload::TsLoadReply { wts, rts, .. } = a.payload else {
            panic!("expected a fill");
        };
        assert_eq!((wts, rts), (0, 10));
    }

    #[test]
    fn loads_defer_behind_a_lock_and_drain_on_publish() {
        let mut h = home();
        let mut out = Vec::new();
        h.handle_lock(LineAddr(3), NodeId(0), &mut out);
        assert_eq!(out.len(), 1);
        h.handle_load(LineAddr(3), NodeId(1), 1, &mut out);
        assert_eq!(out.len(), 1, "load deferred");
        h.handle_publish(
            LineAddr(3),
            WordMask::single(0),
            Tid(7),
            11,
            NodeId(0),
            &mut out,
        );
        // Deferred fill (with the post-publish interval) plus the ack.
        let Payload::TsLoadReply { wts, rts, .. } = out[1].1.payload else {
            panic!("expected the deferred fill");
        };
        assert_eq!(wts, 11);
        assert_eq!(rts, 21);
        assert!(matches!(out[2].1.payload, Payload::TsPublishAck { .. }));
        h.assert_quiescent();
    }

    #[test]
    fn renew_nacks_on_moved_wts_and_on_lock() {
        let mut h = home();
        let mut out = Vec::new();
        h.handle_load(LineAddr(3), NodeId(1), 1, &mut out);
        out.clear();
        h.handle_renew(LineAddr(3), NodeId(1), 0, 25, 1, &mut out);
        let Payload::TsRenewAck { ok, .. } = out[0].1.payload else {
            panic!("expected a verdict");
        };
        assert!(ok, "wts unchanged: lease extends");
        assert_eq!(h.line_state(LineAddr(3)).unwrap().rts, 25);
        out.clear();
        h.handle_lock(LineAddr(3), NodeId(0), &mut out);
        out.clear();
        h.handle_renew(LineAddr(3), NodeId(1), 0, 30, 2, &mut out);
        let Payload::TsRenewAck { ok, .. } = out[0].1.payload else {
            panic!("expected a verdict");
        };
        assert!(!ok, "locked line must nack, not defer");
        assert_eq!(
            h.line_state(LineAddr(3)).unwrap().rts,
            25,
            "nack must not extend the lease"
        );
    }

    #[test]
    fn lock_queue_grants_fifo_on_release() {
        let mut h = home();
        let mut out = Vec::new();
        h.handle_lock(LineAddr(9), NodeId(0), &mut out);
        h.handle_lock(LineAddr(9), NodeId(1), &mut out);
        h.handle_lock(LineAddr(9), NodeId(2), &mut out);
        assert_eq!(out.len(), 1, "only the first lock granted");
        h.handle_release(LineAddr(9), NodeId(0), &mut out);
        assert_eq!(out[1].1.to, NodeId(1), "FIFO grant");
        h.handle_release(LineAddr(9), NodeId(1), &mut out);
        assert_eq!(out[2].1.to, NodeId(2));
        h.handle_release(LineAddr(9), NodeId(2), &mut out);
        h.assert_quiescent();
    }

    #[test]
    fn state_round_trips_through_snap() {
        let mut h = home();
        let mut out = Vec::new();
        h.handle_load(LineAddr(3), NodeId(1), 1, &mut out);
        h.handle_lock(LineAddr(3), NodeId(0), &mut out);
        h.handle_lock(LineAddr(3), NodeId(2), &mut out);
        h.handle_load(LineAddr(3), NodeId(3), 1, &mut out);
        let mut w = SnapWriter::new();
        h.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = home();
        let mut r = SnapReader::new(&bytes);
        restored.restore_state(&mut r).unwrap();
        let mut w2 = SnapWriter::new();
        restored.save_state(&mut w2);
        assert_eq!(bytes, w2.into_bytes(), "save/restore/save is stable");
        let l = restored.line_state(LineAddr(3)).unwrap();
        assert_eq!(l.locked, Some(NodeId(0)));
        assert_eq!(l.lock_queue, VecDeque::from([NodeId(2)]));
    }
}
