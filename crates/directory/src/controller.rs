//! The directory state machine.
//!
//! # Idempotence audit (duplicate / reordered delivery)
//!
//! The handlers below assume the interconnect delivers each message
//! exactly once and in per-channel order — the guarantee the mesh gives
//! natively and the reliable transport (`tcc-network::transport`)
//! restores over a lossy wire. Per handler, what a duplicate delivery
//! would do:
//!
//! * **Naturally idempotent** — safe even without transport dedup:
//!   - [`DirectoryController::handle_skip`] / [`DirectoryController::handle_abort`]:
//!     the Skip Vector ignores TIDs below the NSTID and re-buffering an
//!     already-buffered skip is a no-op.
//!   - [`DirectoryController::handle_writeback`]: merging the same
//!     word values into memory twice converges; the superseded-owner
//!     mask depends only on entry state, not delivery count.
//!   - [`DirectoryController::handle_load`]: a duplicate request yields
//!     a duplicate reply, but the processor consumes fills by
//!     outstanding request id (`req` echo), so the extra reply is
//!     dropped there.
//!   - [`DirectoryController::handle_probe`]: a duplicate probe yields
//!     a duplicate reply, but the processor consumes probe replies by
//!     removing the directory from its pending set, so the extra reply
//!     is dropped there.
//! * **Relies on transport dedup** — a duplicate corrupts protocol
//!   state, and the handler's assert is deliberately kept as an
//!   exactly-once-violation *detector* rather than being weakened to
//!   tolerate duplicates:
//!   - [`DirectoryController::handle_mark`] — `marks_received` counts
//!     deliveries, so a duplicate Mark can satisfy `marks_expected`
//!     early and commit with a real mark still in flight (the straggler
//!     is then dropped as stale — a lost write).
//!   - [`DirectoryController::handle_commit`] — asserts
//!     `tid == now_serving`; a duplicate arriving after the NSTID
//!     advanced panics ("commit for X while serving Y").
//!   - [`DirectoryController::handle_inv_ack`] — `acks_left` is a
//!     countdown; a duplicate ack underflows it or arrives after the
//!     window closed ("inv ack with no commit in flight" — the exact
//!     failure the `transport_no_dedup` mutation witness replays).
//!
//! The TID vendor (in `tcc-core`) also relies on dedup: `TidRequest` is
//! a fresh-TID allocation, so a duplicate vends an orphan TID that no
//! one will ever skip or commit, wedging every directory's NSTID.

use std::collections::BTreeMap;

use tcc_trace::{TraceEvent, Tracer};
use tcc_types::hash::FxHashMap;
use tcc_types::snap::{SnapError, SnapReader, SnapWriter};
use tcc_types::{
    snap_fields, Cycle, DataSource, DirId, LineAddr, LineValues, NodeId, Payload, ProtocolBugs,
    Tid, WordMask,
};

use crate::entry::{DirEntry, MarkInfo};
use crate::skip_vector::{SkipRefused, SkipVector};

/// Directory configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirConfig {
    /// This directory's identity (determines the `dir` field of the
    /// invalidations it sends and its co-located node).
    pub id: DirId,
    /// Words per cache line (for sizing fresh memory lines).
    pub words_per_line: usize,
    /// Debug-only knobs disabling individual race-elimination rules
    /// (chaos mutation self-test); all-default in real configurations.
    pub bugs: ProtocolBugs,
}

/// An outgoing message produced by a directory transition: the payload
/// and its destination node. The simulation layer stamps source, timing,
/// and routing.
#[derive(Debug, Clone, PartialEq)]
pub struct DirAction {
    /// Destination node.
    pub to: NodeId,
    /// Message content.
    pub payload: Payload,
}

impl DirAction {
    fn new(to: NodeId, payload: Payload) -> DirAction {
        DirAction { to, payload }
    }
}

/// One in-flight commit awaiting invalidation acknowledgements.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AckWait {
    tid: Tid,
    acks_left: u32,
    /// When the invalidations fanned out (ack-window length metric).
    opened_at: Cycle,
    /// Lines whose sharers were invalidated: loads to them stall until
    /// every ack (and therefore every superseded owner's flush, which
    /// travels ahead of its ack on the same channel) has arrived —
    /// otherwise a load could read memory before the previous owner's
    /// data has been merged in.
    locked: Vec<LineAddr>,
}

snap_fields!(AckWait {
    tid,
    acks_left,
    opened_at,
    locked,
});

/// A `Commit` that arrived before all of its `Mark`s (unordered network).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingCommit {
    tid: Tid,
    committer: NodeId,
    marks_expected: u32,
}

snap_fields!(PendingCommit {
    tid,
    committer,
    marks_expected,
});

/// Loads queued behind an outstanding `DataRequest`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Waiters {
    /// The owner the outstanding `DataRequest` targets.
    target: NodeId,
    /// Requesters to serve once the data is home, with their request ids.
    queue: Vec<(NodeId, u64)>,
}

snap_fields!(Waiters { target, queue });

/// A deferred probe awaiting the right NSTID.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingProbe {
    tid: Tid,
    requester: NodeId,
    for_write: bool,
    /// When the probe arrived (defer-duration metric).
    since: Cycle,
}

snap_fields!(PendingProbe {
    tid,
    requester,
    for_write,
    since,
});

/// The directory controller for one node's memory slice.
///
/// A pure state machine: each `handle_*` method applies one incoming
/// message and returns the outgoing [`DirAction`]s. See the crate docs
/// for the protocol role and [`DirEntry`] for per-line state.
#[derive(Debug)]
pub struct Directory {
    cfg: DirConfig,
    sv: SkipVector,
    // BTreeMap, not HashMap: `do_commit` iterates this map to fan out
    // invalidations, so iteration order feeds message injection order
    // and hence network timing — it must be deterministic.
    entries: BTreeMap<LineAddr, DirEntry>,
    pending_probes: Vec<PendingProbe>,
    /// Loads stalled against marked lines, FIFO: `(line, requester,
    /// request id, stalled since)`.
    stalled_loads: Vec<(LineAddr, NodeId, u64, Cycle)>,
    /// Loads waiting for an owner flush, with the owner the outstanding
    /// `DataRequest` was sent to. If ownership moves before the flush
    /// lands, the request is re-targeted at the new owner.
    data_req_waiters: FxHashMap<LineAddr, Waiters>,
    /// Lines marked by the currently-served transaction, in mark-arrival
    /// order. Lets `do_commit`/`handle_abort` visit exactly the marked
    /// lines instead of scanning the whole line table per commit.
    marked_lines: Vec<LineAddr>,
    /// Marks received from the currently-served transaction.
    marks_received: u32,
    pending_commit: Option<PendingCommit>,
    ack_wait: Option<AckWait>,
    commit_span_start: Option<Cycle>,
    /// Sticky record of a refused out-of-window skip (corrupt or
    /// adversarial TID stream); the simulation layer polls this and
    /// turns it into a typed run error instead of letting the skip
    /// vector balloon or the process abort.
    skip_refusal: Option<SkipRefused>,
    /// Busy span of each completed commit, in cycles (first `Mark` — or
    /// the `Commit` itself — until the NSTID advances). Feeds the
    /// Table 3 "directory occupancy" column.
    occupancy: Vec<u64>,
    tracer: Tracer,
    /// Reusable output buffer: internal transition helpers push into
    /// this, and the public `handle_*` wrappers hand it out by value
    /// (`mem::take`). The simulation layer returns it via
    /// [`Directory::recycle_actions`], so the steady-state message loop
    /// allocates nothing for actions.
    out: Vec<DirAction>,
}

impl Directory {
    /// Creates an idle directory serving TID 0.
    #[must_use]
    pub fn new(cfg: DirConfig) -> Directory {
        Directory {
            cfg,
            sv: SkipVector::new(),
            entries: BTreeMap::new(),
            pending_probes: Vec::new(),
            stalled_loads: Vec::new(),
            data_req_waiters: FxHashMap::default(),
            marked_lines: Vec::new(),
            marks_received: 0,
            pending_commit: None,
            ack_wait: None,
            commit_span_start: None,
            skip_refusal: None,
            occupancy: Vec::new(),
            tracer: Tracer::disabled(),
            out: Vec::new(),
        }
    }

    /// Attaches the shared tracing sink (observation-only; never feeds
    /// back into protocol decisions).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The Now Serving TID register.
    #[must_use]
    pub fn now_serving(&self) -> Tid {
        self.sv.now_serving()
    }

    /// Busy span of each completed commit, in completion order.
    #[must_use]
    pub fn occupancy(&self) -> &[u64] {
        &self.occupancy
    }

    /// Read access to a line's entry, if the directory has seen it.
    #[must_use]
    pub fn entry(&self, line: LineAddr) -> Option<&DirEntry> {
        self.entries.get(&line)
    }

    /// Asserts the directory is quiescent: nothing deferred, stalled,
    /// or half-committed. Called by the simulator once the event queue
    /// drains — any leftover state means a request was silently
    /// dropped.
    ///
    /// # Panics
    ///
    /// Panics (with a description) if any probe, load, data request, or
    /// commit is still pending, and in particular if the Now Serving
    /// TID has not reached `expected_nstid` (some TID was never skipped
    /// or committed here — the gap-free sequence wedged).
    pub fn assert_quiescent(&self, expected_nstid: Tid) {
        assert!(
            self.pending_probes.is_empty(),
            "{}: {} probes left deferred",
            self.cfg.id,
            self.pending_probes.len()
        );
        assert!(
            self.stalled_loads.is_empty(),
            "{}: {} loads left stalled",
            self.cfg.id,
            self.stalled_loads.len()
        );
        assert!(
            self.data_req_waiters.is_empty(),
            "{}: {} data requests left outstanding",
            self.cfg.id,
            self.data_req_waiters.len()
        );
        assert!(
            self.pending_commit.is_none(),
            "{}: commit awaiting marks",
            self.cfg.id
        );
        assert!(
            self.ack_wait.is_none(),
            "{}: commit awaiting inv acks",
            self.cfg.id
        );
        assert!(
            self.entries.values().all(|e| !e.is_marked()),
            "{}: marked lines left behind",
            self.cfg.id
        );
        assert_eq!(
            self.now_serving(),
            expected_nstid,
            "{}: NSTID stopped short of the vended sequence",
            self.cfg.id
        );
    }

    /// Iterates over `(line, entry)` pairs (for end-of-run coherence
    /// validation).
    pub fn entries(&self) -> impl Iterator<Item = (LineAddr, &DirEntry)> {
        self.entries.iter().map(|(&l, e)| (l, e))
    }

    /// Number of entries with at least one remote sharer — the Table 3
    /// "directory cache working set".
    #[must_use]
    pub fn working_set_entries(&self) -> usize {
        let home = self.cfg.id.node();
        self.entries
            .values()
            .filter(|e| e.has_remote_sharer(home))
            .count()
    }

    fn entry_mut(&mut self, line: LineAddr) -> &mut DirEntry {
        self.entries
            .entry(line)
            .or_insert_with(|| DirEntry::new(self.cfg.words_per_line))
    }

    /// Processes a `LoadRequest` for `line` from `requester`.
    ///
    /// Loads to marked lines stall (the paper optimizes for commits
    /// succeeding); loads to owned lines trigger a `DataRequest` to the
    /// owner; everything else is served from memory and records the
    /// requester as a sharer.
    pub fn handle_load(
        &mut self,
        now: Cycle,
        line: LineAddr,
        requester: NodeId,
        req: u64,
    ) -> Vec<DirAction> {
        self.out.clear();
        self.dispatch_load(now, line, requester, req, None);
        std::mem::take(&mut self.out)
    }

    /// Load path shared with re-dispatch of stalled loads
    /// (`stalled_since` carries the original stall time so a load that
    /// re-stalls keeps one contiguous stall interval).
    fn dispatch_load(
        &mut self,
        now: Cycle,
        line: LineAddr,
        requester: NodeId,
        req: u64,
        stalled_since: Option<Cycle>,
    ) {
        let dir = self.cfg.id;
        // Mutation knob: serving loads inside the ack window is the race
        // the window exists to close (§3.3).
        let commit_locked = !self.cfg.bugs.unlocked_window_loads
            && self
                .ack_wait
                .as_ref()
                .is_some_and(|w| w.locked.contains(&line));
        if self.entry_mut(line).is_marked() || commit_locked {
            if stalled_since.is_none() {
                self.tracer.count("dir.loads_stalled", 1);
                self.tracer.record(now, || TraceEvent::LoadStallEnter {
                    dir,
                    line,
                    requester,
                });
            }
            self.stalled_loads
                .push((line, requester, req, stalled_since.unwrap_or(now)));
            return;
        }
        if let Some(since) = stalled_since {
            let stalled_for = now.since(since);
            self.tracer.observe("dir.load_stall", stalled_for);
            self.tracer.record(now, || TraceEvent::LoadStallExit {
                dir,
                line,
                requester,
                stalled_for,
            });
        }
        if let Some(w) = self.data_req_waiters.get_mut(&line) {
            // A DataRequest is already in flight; piggyback.
            w.queue.push((requester, req));
            return;
        }
        let entry = self.entry_mut(line);
        match entry.owner {
            Some(owner) if owner != requester => {
                self.data_req_waiters.insert(
                    line,
                    Waiters {
                        target: owner,
                        queue: vec![(requester, req)],
                    },
                );
                self.out
                    .push(DirAction::new(owner, Payload::DataRequest { line }));
            }
            _ => {
                // No owner — or the owner itself re-reading words of its
                // own line that other commits invalidated (its copy has
                // holes; memory is current for exactly those words, and
                // the cache's merge rule protects the words it owns).
                entry.sharers.insert(requester);
                let values = entry.memory.clone();
                self.out.push(DirAction::new(
                    requester,
                    Payload::LoadReply {
                        line,
                        source: DataSource::Memory,
                        values,
                        req,
                    },
                ));
            }
        }
    }

    /// Processes a `Skip` for `tid`.
    pub fn handle_skip(&mut self, now: Cycle, tid: Tid) -> Vec<DirAction> {
        debug_assert!(
            !(tid == self.now_serving() && self.ack_wait.is_some()),
            "the transaction being committed cannot also skip"
        );
        self.out.clear();
        let before = self.now_serving();
        match self.sv.try_buffer_skip(tid) {
            Ok(true) => {
                self.note_advance(now, before);
                self.post_advance(now);
            }
            Ok(false) => {
                let dir = self.cfg.id;
                if tid > before {
                    self.tracer
                        .record(now, || TraceEvent::SkipBuffered { dir, tid });
                }
            }
            Err(refused) => self.note_refusal(refused),
        }
        std::mem::take(&mut self.out)
    }

    /// Records a refused out-of-window skip for the simulation layer to
    /// surface as a typed run error.
    fn note_refusal(&mut self, refused: SkipRefused) {
        self.tracer.count("dir.skip_refusals", 1);
        self.skip_refusal.get_or_insert(refused);
    }

    /// The first out-of-window skip refusal this directory recorded, if
    /// any — sticky until read, a poison flag for the run.
    #[must_use]
    pub fn skip_refusal(&self) -> Option<SkipRefused> {
        self.skip_refusal
    }

    /// Records an NSTID advance (observation only).
    fn note_advance(&mut self, now: Cycle, before: Tid) {
        let after = self.now_serving();
        if after != before {
            let dir = self.cfg.id;
            self.tracer.count("dir.nstid_advances", 1);
            self.tracer.record(now, || TraceEvent::NstidAdvance {
                dir,
                from: before,
                to: after,
            });
        }
    }

    /// Processes a `Probe` from `requester` with TID `tid`.
    ///
    /// Implements the deferred-reply optimization: the reply is held
    /// until the probe's condition is met (NSTID reaches `tid`), so the
    /// processor never needs to re-probe.
    pub fn handle_probe(
        &mut self,
        now: Cycle,
        tid: Tid,
        requester: NodeId,
        for_write: bool,
    ) -> Vec<DirAction> {
        if self.now_serving() >= tid {
            // Satisfied now (NSTID == tid in the common case; > tid only
            // for stale probes racing an abort, which the processor
            // ignores).
            return vec![DirAction::new(
                requester,
                Payload::ProbeReply {
                    dir: self.cfg.id,
                    now_serving: self.now_serving(),
                    probe_tid: tid,
                    for_write,
                },
            )];
        }
        debug_assert!(self.out.is_empty());
        let dir = self.cfg.id;
        self.tracer.count("dir.probes_deferred", 1);
        self.tracer.record(now, || TraceEvent::ProbeDeferred {
            dir,
            tid,
            requester,
        });
        self.pending_probes.push(PendingProbe {
            tid,
            requester,
            for_write,
            since: now,
        });
        Vec::new()
    }

    /// Processes a `Mark` from the transaction the directory is serving.
    ///
    /// Marks for TIDs other than the NSTID are stale leftovers of an
    /// abort race and are dropped.
    pub fn handle_mark(
        &mut self,
        now: Cycle,
        tid: Tid,
        line: LineAddr,
        words: WordMask,
        committer: NodeId,
    ) -> Vec<DirAction> {
        if tid != self.now_serving() {
            debug_assert!(tid < self.now_serving(), "mark from unserved future {tid}");
            return Vec::new();
        }
        self.commit_span_start.get_or_insert(now);
        self.marks_received += 1;
        let entry = self.entry_mut(line);
        match &mut entry.marked {
            Some(info) => {
                debug_assert_eq!(info.tid, tid, "line {line} marked by two TIDs");
                info.words = info.words.union(words);
            }
            None => {
                entry.marked = Some(MarkInfo {
                    tid,
                    by: committer,
                    words,
                });
                self.marked_lines.push(line);
            }
        }
        if let Some(pc) = self.pending_commit {
            if pc.tid == tid && self.marks_received >= pc.marks_expected {
                self.out.clear();
                self.do_commit(now, tid, pc.committer);
                return std::mem::take(&mut self.out);
            }
        }
        Vec::new()
    }

    /// Processes a `Commit` for `tid` expecting `marks` mark messages.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is not the currently served TID: the two-phase
    /// protocol guarantees a transaction only commits at a directory
    /// that is serving it.
    pub fn handle_commit(
        &mut self,
        now: Cycle,
        tid: Tid,
        committer: NodeId,
        marks: u32,
    ) -> Vec<DirAction> {
        assert_eq!(
            tid,
            self.now_serving(),
            "commit for {tid} while serving {}",
            self.now_serving()
        );
        self.commit_span_start.get_or_insert(now);
        if self.marks_received < marks {
            // Unordered network: the commit overtook some marks.
            self.pending_commit = Some(PendingCommit {
                tid,
                committer,
                marks_expected: marks,
            });
            return Vec::new();
        }
        self.out.clear();
        self.do_commit(now, tid, committer);
        std::mem::take(&mut self.out)
    }

    /// Gang-upgrades `tid`'s marked lines to owned, generating
    /// invalidations, then completes or begins waiting for acks.
    fn do_commit(&mut self, now: Cycle, tid: Tid, committer: NodeId) {
        self.pending_commit = None;
        self.marks_received = 0;
        let dir = self.cfg.id;
        let mut acks = 0u32;
        // Visit exactly the lines this transaction marked, in ascending
        // line order — the same order the old whole-table `BTreeMap`
        // scan produced, so the action stream (and thus every
        // downstream timing decision) is unchanged.
        let mut marked = std::mem::take(&mut self.marked_lines);
        marked.sort_unstable();
        let mut locked = Vec::with_capacity(marked.len());
        for line in marked {
            let Some(entry) = self.entries.get_mut(&line) else {
                continue;
            };
            let Some(info) = entry.marked else { continue };
            if info.tid != tid {
                continue;
            }
            locked.push(line);
            entry.marked = None;
            entry.owner = Some(committer);
            entry.tid_tag = Some(tid);
            entry.owner_words = info.words;
            entry.sharers.insert(committer);
            // Invalidate every other sharer — but do NOT remove them
            // from the sharers list. Under word-granularity tracking a
            // non-conflicting sharer keeps the line's other words (and
            // its SR bits) cached, so it must keep receiving
            // invalidations for later commits; de-listing it here would
            // open a window for missed conflicts. Sharers leave the
            // list only by writing the line back. The cost is extra
            // (harmless, acked) invalidations — the same trade the
            // paper makes by not sending replacement hints (§3.3).
            for sharer in entry.sharers.iter() {
                if sharer == committer {
                    continue;
                }
                self.out.push(DirAction::new(
                    sharer,
                    Payload::Invalidate {
                        line,
                        words: info.words,
                        committer_tid: tid,
                        dir,
                    },
                ));
                acks += 1;
            }
        }
        if acks == 0 || self.cfg.bugs.skip_ack_wait {
            // Mutation knob: advancing the NSTID before the
            // invalidation acks return re-opens the §3.3 race the ack
            // window closes — later transactions can read lines whose
            // invalidations (and superseded-owner flushes) are still in
            // flight. The straggler acks are ignored on arrival.
            self.finish_current(now);
        } else {
            self.ack_wait = Some(AckWait {
                tid,
                acks_left: acks,
                opened_at: now,
                locked,
            });
        }
    }

    /// Processes an `InvAck` for commit `tid` from `from`.
    ///
    /// An ack with `retained == false` also prunes `from` from `line`'s
    /// sharers list: the processor reported that it kept no
    /// transactional interest in that line, so future commits need not
    /// invalidate it (bounding invalidation fan-out to active sharers).
    ///
    /// # Panics
    ///
    /// Panics if no commit is awaiting acks or the TID mismatches.
    pub fn handle_inv_ack(
        &mut self,
        now: Cycle,
        tid: Tid,
        line: LineAddr,
        from: NodeId,
        retained: bool,
    ) -> Vec<DirAction> {
        if self.cfg.bugs.skip_ack_wait && self.ack_wait.is_none() {
            // The mutated commit path never opened a window; the ack is
            // a straggler. Still prune the sharer so fan-out bookkeeping
            // stays consistent — the *race* is the point of the knob.
            if !retained {
                if let Some(entry) = self.entries.get_mut(&line) {
                    if entry.owner != Some(from) {
                        entry.sharers.remove(from);
                    }
                }
            }
            return Vec::new();
        }
        let wait = self
            .ack_wait
            .as_mut()
            .expect("inv ack with no commit in flight");
        assert_eq!(
            wait.tid, tid,
            "inv ack for {tid} while committing {}",
            wait.tid
        );
        wait.acks_left -= 1;
        let done = wait.acks_left == 0;
        if !retained {
            if let Some(entry) = self.entries.get_mut(&line) {
                if entry.owner != Some(from) {
                    entry.sharers.remove(from);
                }
            }
        }
        if done {
            let wait = self.ack_wait.take().expect("checked above");
            let locked = wait.locked;
            let dir = self.cfg.id;
            let window = now.since(wait.opened_at);
            self.tracer.observe("dir.inv_ack_window", window);
            self.tracer
                .record(now, || TraceEvent::AckWindowClose { dir, tid, window });
            self.out.clear();
            self.finish_current(now);
            // The window is closed: serve any waiters that were held
            // back while flushes could still be in flight.
            for line in locked {
                self.service_waiters(line);
            }
            std::mem::take(&mut self.out)
        } else {
            Vec::new()
        }
    }

    /// Processes an `Abort` for `tid`: gang-clears its marks if it was
    /// being served (then advances), or records it as a skip for a
    /// not-yet-served TID.
    pub fn handle_abort(&mut self, now: Cycle, tid: Tid) -> Vec<DirAction> {
        if tid < self.now_serving() {
            return Vec::new(); // stale duplicate
        }
        // The aborting transaction is dead; any deferred probe reply
        // would be ignored, so drop them.
        self.pending_probes.retain(|p| p.tid != tid);
        if tid > self.now_serving() {
            let dir = self.cfg.id;
            self.tracer
                .record(now, || TraceEvent::SkipBuffered { dir, tid });
            match self.sv.try_buffer_skip(tid) {
                Ok(advanced) => debug_assert!(!advanced),
                Err(refused) => self.note_refusal(refused),
            }
            return Vec::new();
        }
        // Serving this TID: clear its marks and move on. Every mark set
        // while `tid` was being served is recorded in `marked_lines`, so
        // this visits exactly the marked entries.
        for line in std::mem::take(&mut self.marked_lines) {
            if let Some(entry) = self.entries.get_mut(&line) {
                if entry.marked.is_some_and(|m| m.tid == tid) {
                    entry.marked = None;
                }
            }
        }
        self.pending_commit = None;
        self.marks_received = 0;
        debug_assert!(self.ack_wait.is_none(), "abort after commit began");
        self.out.clear();
        self.finish_current(now);
        std::mem::take(&mut self.out)
    }

    /// Processes a `WriteBack` (eviction; `keep_sharer == false`) or
    /// `Flush` (owner keeps a clean copy; `keep_sharer == true`) of
    /// `line` from `writer`, tagged with `tid`, merging the `valid`
    /// words of `values` into memory.
    ///
    /// Write-backs from superseded owners (`tid` older than the entry's
    /// TID tag) merge only words *outside* the current owner's committed
    /// word mask — those words' sole authority is the current owner's
    /// cache. This is the word-granularity generalization of the
    /// paper's drop-stale-write-backs race-elimination rule (§3.3).
    pub fn handle_writeback(
        &mut self,
        line: LineAddr,
        tid: Tid,
        values: LineValues,
        valid: WordMask,
        writer: NodeId,
        keep_sharer: bool,
    ) -> Vec<DirAction> {
        let (superseded, merge_mask) = {
            let entry = self.entry_mut(line);
            let superseded = entry.tid_tag.is_some_and(|tag| tid < tag);
            let merge_mask = if superseded {
                WordMask(valid.0 & !entry.owner_words.0)
            } else {
                valid
            };
            (superseded, merge_mask)
        };
        if superseded && merge_mask.is_empty() {
            // Fully shadowed by the newer commit: drop the data (§3.3) —
            // but still service the waiter queue, which may need a
            // re-targeted DataRequest at the new owner.
            self.out.clear();
            self.service_waiters(line);
            return std::mem::take(&mut self.out);
        }
        {
            let entry = self.entry_mut(line);
            entry.memory.merge_from(&values, merge_mask);
            // Only a current-generation write-back relinquishes
            // ownership.
            if !superseded && entry.owner == Some(writer) {
                entry.owner = None;
            }
            if !keep_sharer {
                entry.sharers.remove(writer);
            }
        }
        // Service any loads waiting on this line: if ownership is clear
        // the merge has made memory current; if a *new* owner appeared
        // while the DataRequest was in flight, re-target it.
        self.out.clear();
        self.service_waiters(line);
        std::mem::take(&mut self.out)
    }

    /// Serves or re-targets the queued loads of `line` after a
    /// write-back has been merged.
    fn service_waiters(&mut self, line: LineAddr) {
        // Inside a commit's ack window the line's data may still be in
        // flight from the *previous* owner (its flush travels ahead of
        // its ack); hold the waiters until the window closes — the
        // ack-completion path re-services them. The mutation knob drops
        // that hold along with the dispatch-side stall.
        if !self.cfg.bugs.unlocked_window_loads
            && self
                .ack_wait
                .as_ref()
                .is_some_and(|w| w.locked.contains(&line))
        {
            return;
        }
        let Some(w) = self.data_req_waiters.get_mut(&line) else {
            return;
        };
        let entry = self.entries.get_mut(&line).expect("waiters imply an entry");
        match entry.owner {
            None => {
                let mem = entry.memory.clone();
                let w = self.data_req_waiters.remove(&line).expect("checked above");
                for (r, req) in w.queue {
                    self.entry_mut(line).sharers.insert(r);
                    self.out.push(DirAction::new(
                        r,
                        Payload::LoadReply {
                            line,
                            source: DataSource::Owner,
                            values: mem.clone(),
                            req,
                        },
                    ));
                }
            }
            Some(owner) if owner != w.target => {
                // Ownership moved while the request was in flight.
                w.target = owner;
                self.out
                    .push(DirAction::new(owner, Payload::DataRequest { line }));
            }
            Some(_) => {} // flush from a stale generation; keep waiting
        }
    }

    /// Completes the currently-served TID: records occupancy, advances
    /// the NSTID through buffered skips, then releases deferred probes
    /// and stalled loads enabled by the new state.
    fn finish_current(&mut self, now: Cycle) {
        let served = self.now_serving();
        if let Some(start) = self.commit_span_start.take() {
            let span = now.since(start);
            self.occupancy.push(span);
            let dir = self.cfg.id;
            self.tracer.observe("dir.occupancy", span);
            self.tracer.record(now, || TraceEvent::CommitComplete {
                dir,
                tid: served,
                span,
            });
        }
        let before = self.now_serving();
        self.sv.complete_current();
        self.note_advance(now, before);
        self.post_advance(now);
    }

    /// After any NSTID advance: answer newly-satisfied probes and
    /// re-dispatch loads stalled on no-longer-marked lines.
    fn post_advance(&mut self, now: Cycle) {
        let nst = self.now_serving();
        let dir = self.cfg.id;
        let mut i = 0;
        while i < self.pending_probes.len() {
            if self.pending_probes[i].tid <= nst {
                let p = self.pending_probes.swap_remove(i);
                let deferred_for = now.since(p.since);
                self.tracer.observe("dir.probe_defer", deferred_for);
                self.tracer.record(now, || TraceEvent::ProbeReleased {
                    dir,
                    tid: p.tid,
                    requester: p.requester,
                    deferred_for,
                });
                self.out.push(DirAction::new(
                    p.requester,
                    Payload::ProbeReply {
                        dir,
                        now_serving: nst,
                        probe_tid: p.tid,
                        for_write: p.for_write,
                    },
                ));
            } else {
                i += 1;
            }
        }
        let stalled = std::mem::take(&mut self.stalled_loads);
        for (line, requester, req, since) in stalled {
            self.dispatch_load(now, line, requester, req, Some(since));
        }
    }

    /// Returns a drained action buffer for reuse, so the steady-state
    /// deliver path allocates nothing: the simulation layer hands the
    /// `Vec` from the last `handle_*` call back after dispatching it.
    pub fn recycle_actions(&mut self, mut buf: Vec<DirAction>) {
        buf.clear();
        if buf.capacity() > self.out.capacity() {
            self.out = buf;
        }
    }

    /// Serializes the directory's full protocol state for
    /// checkpointing: NSTID + skip vector, the line table, every
    /// deferred/pending structure (probes, stalled loads, data-request
    /// waiters, marked lines, pending commit, ack window), the sticky
    /// skip refusal, and the occupancy samples (a result, not a counter:
    /// they feed `SimResult::dir_occupancy`). Not a `Snap` impl because the
    /// config and tracer are not written (the resuming caller
    /// reconstructs them) and the action buffer is empty between
    /// events by construction.
    pub fn save_state(&self, w: &mut SnapWriter) {
        debug_assert!(self.out.is_empty(), "save_state mid-transition");
        w.put(&self.sv);
        w.put(&self.entries);
        w.put(&self.pending_probes);
        w.put(&self.stalled_loads);
        w.put(&self.data_req_waiters);
        w.put(&self.marked_lines);
        w.put(&self.marks_received);
        w.put(&self.pending_commit);
        w.put(&self.ack_wait);
        w.put(&self.commit_span_start);
        w.put(&self.skip_refusal);
        w.put(&self.occupancy);
    }

    /// Restores state captured by [`Directory::save_state`] into this
    /// (identically-configured) directory.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on truncated or structurally invalid
    /// input.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.sv = r.get()?;
        self.entries = r.get()?;
        self.pending_probes = r.get()?;
        self.stalled_loads = r.get()?;
        self.data_req_waiters = r.get()?;
        self.marked_lines = r.get()?;
        self.marks_received = r.get()?;
        self.pending_commit = r.get()?;
        self.ack_wait = r.get()?;
        self.commit_span_start = r.get()?;
        self.skip_refusal = r.get()?;
        self.occupancy = r.get()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N0: NodeId = NodeId(0);
    const N1: NodeId = NodeId(1);
    const N2: NodeId = NodeId(2);
    const L: LineAddr = LineAddr(100);

    fn dir() -> Directory {
        Directory::new(DirConfig {
            id: DirId(0),
            words_per_line: 8,
            bugs: ProtocolBugs::default(),
        })
    }

    fn vals_with(word: usize, tid: Tid) -> LineValues {
        let mut v = LineValues::fresh(8);
        v.apply_write(WordMask::single(word), tid);
        v
    }

    #[test]
    fn load_from_memory_registers_sharer() {
        let mut d = dir();
        let acts = d.handle_load(Cycle(0), L, N1, 0);
        assert_eq!(acts.len(), 1);
        assert_eq!(acts[0].to, N1);
        assert!(matches!(
            acts[0].payload,
            Payload::LoadReply {
                source: DataSource::Memory,
                ..
            }
        ));
        assert!(d.entry(L).unwrap().sharers.contains(N1));
    }

    /// The full single-committer flow of Fig. 2: probe, mark, commit,
    /// invalidation, ack, NSTID advance.
    #[test]
    fn commit_flow_invalidates_other_sharers() {
        let mut d = dir();
        d.handle_load(Cycle(0), L, N1, 0);
        d.handle_load(Cycle(0), L, N2, 0);
        // N1 commits TID 0 with a write to word 3 of L.
        let probe = d.handle_probe(Cycle(0), Tid(0), N1, true);
        assert!(matches!(
            probe[0].payload,
            Payload::ProbeReply {
                now_serving: Tid(0),
                for_write: true,
                ..
            }
        ));
        d.handle_mark(Cycle(10), Tid(0), L, WordMask::single(3), N1);
        let acts = d.handle_commit(Cycle(20), Tid(0), N1, 1);
        // One invalidation, to N2 only.
        assert_eq!(acts.len(), 1);
        assert_eq!(acts[0].to, N2);
        assert!(matches!(
            acts[0].payload,
            Payload::Invalidate {
                committer_tid: Tid(0),
                ..
            }
        ));
        // NSTID does not advance until the ack arrives (§3.3).
        assert_eq!(d.now_serving(), Tid(0));
        d.handle_inv_ack(Cycle(30), Tid(0), L, N2, false);
        assert_eq!(d.now_serving(), Tid(1));
        let e = d.entry(L).unwrap();
        assert_eq!(e.owner, Some(N1));
        assert_eq!(e.tid_tag, Some(Tid(0)));
        // N2's ack reported `retained = false` (no transactional
        // interest left), so it was pruned from the sharers list; the
        // committer stays.
        assert!(e.sharers.contains(N1) && !e.sharers.contains(N2));
        assert_eq!(d.occupancy(), [20]); // cycles 10..30
    }

    #[test]
    fn retained_ack_keeps_the_sharer_listed() {
        let mut d = dir();
        d.handle_load(Cycle(0), L, N1, 0);
        d.handle_load(Cycle(0), L, N2, 0);
        d.handle_probe(Cycle(0), Tid(0), N1, true);
        d.handle_mark(Cycle(0), Tid(0), L, WordMask::single(3), N1);
        d.handle_commit(Cycle(0), Tid(0), N1, 1);
        // N2 still holds transactional state on the line: stays listed.
        d.handle_inv_ack(Cycle(1), Tid(0), L, N2, true);
        let e = d.entry(L).unwrap();
        assert!(e.sharers.contains(N2), "retained sharer must stay listed");
    }

    #[test]
    fn commit_with_no_sharers_completes_immediately() {
        let mut d = dir();
        d.handle_load(Cycle(0), L, N1, 0);
        d.handle_probe(Cycle(0), Tid(0), N1, true);
        d.handle_mark(Cycle(0), Tid(0), L, WordMask::single(0), N1);
        let acts = d.handle_commit(Cycle(5), Tid(0), N1, 1);
        assert!(acts.is_empty());
        assert_eq!(d.now_serving(), Tid(1));
    }

    #[test]
    fn loads_to_owned_lines_are_forwarded_to_the_owner() {
        let mut d = dir();
        d.handle_load(Cycle(0), L, N1, 0);
        d.handle_probe(Cycle(0), Tid(0), N1, true);
        d.handle_mark(Cycle(0), Tid(0), L, WordMask::single(0), N1);
        d.handle_commit(Cycle(0), Tid(0), N1, 1);
        // N2 loads the owned line: DataRequest to N1, no reply yet.
        let acts = d.handle_load(Cycle(0), L, N2, 0);
        assert_eq!(acts.len(), 1);
        assert_eq!(acts[0].to, N1);
        assert!(matches!(acts[0].payload, Payload::DataRequest { .. }));
        // A second load piggybacks on the outstanding request.
        let acts = d.handle_load(Cycle(0), L, N0, 0);
        assert!(acts.is_empty());
        // The owner's flush serves both waiters with Owner-sourced data.
        let flushed = vals_with(0, Tid(0));
        let acts = d.handle_writeback(L, Tid(0), flushed, WordMask::ALL, N1, true);
        assert_eq!(acts.len(), 2);
        for a in &acts {
            assert!(matches!(
                a.payload,
                Payload::LoadReply {
                    source: DataSource::Owner,
                    ..
                }
            ));
        }
        let e = d.entry(L).unwrap();
        assert_eq!(e.owner, None);
        assert!(e.sharers.contains(N0) && e.sharers.contains(N1) && e.sharers.contains(N2));
    }

    #[test]
    fn loads_to_marked_lines_stall_until_commit() {
        let mut d = dir();
        d.handle_load(Cycle(0), L, N1, 0);
        d.handle_probe(Cycle(0), Tid(0), N1, true);
        d.handle_mark(Cycle(0), Tid(0), L, WordMask::single(0), N1);
        assert!(
            d.handle_load(Cycle(0), L, N2, 0).is_empty(),
            "load must stall on marked line"
        );
        // Commit completes; the stalled load re-dispatches and is
        // forwarded to the new owner.
        let acts = d.handle_commit(Cycle(0), Tid(0), N1, 1);
        assert!(acts
            .iter()
            .any(|a| { a.to == N1 && matches!(a.payload, Payload::DataRequest { .. }) }));
    }

    #[test]
    fn loads_stalled_on_aborted_marks_are_released() {
        let mut d = dir();
        d.handle_probe(Cycle(0), Tid(0), N1, true);
        d.handle_mark(Cycle(0), Tid(0), L, WordMask::single(0), N1);
        assert!(d.handle_load(Cycle(0), L, N2, 0).is_empty());
        let acts = d.handle_abort(Cycle(1), Tid(0));
        // The line is unmarked and unowned: served from memory.
        assert!(acts.iter().any(|a| {
            a.to == N2
                && matches!(
                    a.payload,
                    Payload::LoadReply {
                        source: DataSource::Memory,
                        ..
                    }
                )
        }));
        assert_eq!(d.now_serving(), Tid(1));
    }

    #[test]
    fn probes_defer_until_their_tid_is_served() {
        let mut d = dir();
        // TID 1 probes while TID 0 is outstanding: deferred.
        assert!(d.handle_probe(Cycle(0), Tid(1), N2, false).is_empty());
        // TID 0 skips; the deferred probe is released.
        let acts = d.handle_skip(Cycle(0), Tid(0));
        assert_eq!(acts.len(), 1);
        assert_eq!(acts[0].to, N2);
        assert!(matches!(
            acts[0].payload,
            Payload::ProbeReply {
                now_serving: Tid(1),
                for_write: false,
                ..
            }
        ));
    }

    #[test]
    fn skips_buffer_out_of_order_and_advance_in_runs() {
        let mut d = dir();
        d.handle_skip(Cycle(0), Tid(2));
        d.handle_skip(Cycle(0), Tid(1));
        assert_eq!(d.now_serving(), Tid(0));
        d.handle_skip(Cycle(0), Tid(0));
        assert_eq!(d.now_serving(), Tid(3));
    }

    #[test]
    fn commit_waits_for_overtaken_marks() {
        let mut d = dir();
        d.handle_load(Cycle(0), L, N1, 0);
        d.handle_probe(Cycle(0), Tid(0), N1, true);
        // Commit arrives expecting 2 marks; only then do the marks land.
        assert!(d.handle_commit(Cycle(0), Tid(0), N1, 2).is_empty());
        assert_eq!(d.now_serving(), Tid(0), "must not commit before marks");
        d.handle_mark(Cycle(1), Tid(0), L, WordMask::single(0), N1);
        assert_eq!(d.now_serving(), Tid(0));
        let acts = d.handle_mark(Cycle(2), Tid(0), LineAddr(101), WordMask::single(1), N1);
        assert!(acts.is_empty()); // no sharers to invalidate
        assert_eq!(d.now_serving(), Tid(1), "commit fires once marks complete");
        assert_eq!(d.entry(LineAddr(101)).unwrap().owner, Some(N1));
    }

    #[test]
    fn abort_for_future_tid_acts_as_skip() {
        let mut d = dir();
        assert!(d.handle_probe(Cycle(0), Tid(1), N1, true).is_empty());
        d.handle_abort(Cycle(0), Tid(1));
        // TID 0 completes; NSTID jumps over the aborted TID 1 and the
        // dead probe is not answered.
        let acts = d.handle_skip(Cycle(0), Tid(0));
        assert!(acts.is_empty());
        assert_eq!(d.now_serving(), Tid(2));
    }

    #[test]
    fn stale_marks_after_abort_are_dropped() {
        let mut d = dir();
        d.handle_abort(Cycle(0), Tid(0));
        assert_eq!(d.now_serving(), Tid(1));
        let acts = d.handle_mark(Cycle(1), Tid(0), L, WordMask::single(0), N1);
        assert!(acts.is_empty());
        assert!(d.entry(L).is_none() || !d.entry(L).unwrap().is_marked());
    }

    #[test]
    fn stale_writebacks_are_dropped_by_tid_tag() {
        let mut d = dir();
        // N1 commits TID 0, then N2 commits TID 1 to the same line.
        d.handle_probe(Cycle(0), Tid(0), N1, true);
        d.handle_mark(Cycle(0), Tid(0), L, WordMask::single(0), N1);
        d.handle_commit(Cycle(0), Tid(0), N1, 1);
        // N1 flushes so N2 can fetch, then N2 commits.
        d.handle_writeback(L, Tid(0), vals_with(0, Tid(0)), WordMask::ALL, N1, true);
        d.handle_load(Cycle(0), L, N2, 0);
        d.handle_probe(Cycle(0), Tid(1), N2, true);
        d.handle_mark(Cycle(1), Tid(1), L, WordMask::single(0), N2);
        let acts = d.handle_commit(Cycle(1), Tid(1), N2, 1);
        // Invalidation goes to N1; ack it so the NSTID advances.
        assert_eq!(acts.len(), 1);
        d.handle_inv_ack(Cycle(2), Tid(1), L, N2, false);
        // A delayed write-back from N1 (tagged TID 0) covering only the
        // superseded word now arrives: fully shadowed, dropped.
        // Its word 0 differs from memory, so a merge would show.
        let memory = d.entry(L).unwrap().memory.clone();
        let stale = LineValues::fresh(8);
        d.handle_writeback(L, Tid(0), stale, WordMask::single(0), N1, false);
        assert_eq!(
            d.entry(L).unwrap().memory,
            memory,
            "stale WB must not merge"
        );
        assert_eq!(
            d.entry(L).unwrap().owner,
            Some(N2),
            "stale WB must not clear owner"
        );
        // N2's own write-back (TID 1) is accepted and releases ownership.
        d.handle_writeback(L, Tid(1), vals_with(0, Tid(1)), WordMask::ALL, N2, false);
        assert_eq!(d.entry(L).unwrap().owner, None);
        assert_eq!(d.entry(L).unwrap().memory.words[0], Some(Tid(1)));
        // A full-line stale write-back arriving even later merges only
        // its *non-shadowed* words: word 3 merges, but word 0 (written
        // by the newer commit) must keep TID 1's value.
        let mut wide = vals_with(0, Tid(0));
        wide.apply_write(WordMask::single(3), Tid(0));
        d.handle_writeback(L, Tid(0), wide, WordMask::ALL, N1, false);
        let e = d.entry(L).unwrap();
        assert_eq!(e.memory.words[3], Some(Tid(0)), "non-shadowed word merges");
        assert_eq!(
            e.memory.words[0],
            Some(Tid(1)),
            "newer commit's word is protected"
        );
    }

    #[test]
    fn parallel_commit_scenario_of_figure_3() {
        // Two directories; transactions 0 (at this dir) and 1 (elsewhere)
        // commit concurrently. This dir only sees TID 0's commit and
        // TID 1's skip.
        let mut d = dir();
        d.handle_load(Cycle(0), L, N1, 0);
        d.handle_probe(Cycle(0), Tid(0), N1, true);
        d.handle_skip(Cycle(0), Tid(1)); // TID 1 writes elsewhere
        d.handle_mark(Cycle(0), Tid(0), L, WordMask::single(0), N1);
        d.handle_commit(Cycle(0), Tid(0), N1, 1);
        // Both TIDs complete here: 0 by commit, 1 by buffered skip.
        assert_eq!(d.now_serving(), Tid(2));
    }

    #[test]
    fn serialized_commit_scenario_of_figure_3_starred() {
        // Fig. 3 b*/c*: T2 (TID 1, at N2) read line L from this
        // directory, which T1 (TID 0, at N1) commits. T2's read-probe
        // defers; T1's commit invalidates T2, which aborts.
        let mut d = dir();
        d.handle_load(Cycle(0), L, N1, 0);
        d.handle_load(Cycle(0), L, N2, 0);
        assert!(
            d.handle_probe(Cycle(0), Tid(1), N2, false).is_empty(),
            "T2 defers behind T1"
        );
        d.handle_probe(Cycle(0), Tid(0), N1, true);
        d.handle_mark(Cycle(0), Tid(0), L, WordMask::single(0), N1);
        let acts = d.handle_commit(Cycle(0), Tid(0), N1, 1);
        // Invalidation to N2 — its read-set conflicts, so it will abort.
        assert!(acts
            .iter()
            .any(|a| a.to == N2 && matches!(a.payload, Payload::Invalidate { .. })));
        let acts = d.handle_inv_ack(Cycle(1), Tid(0), L, N2, false);
        // The deferred probe now answers with NSTID 1 == T2's TID; but
        // T2 aborted, so an Abort(1) follows and advances the NSTID.
        assert!(acts.iter().any(|a| a.to == N2
            && matches!(
                a.payload,
                Payload::ProbeReply {
                    now_serving: Tid(1),
                    ..
                }
            )));
        d.handle_abort(Cycle(2), Tid(1));
        assert_eq!(d.now_serving(), Tid(2));
    }

    #[test]
    #[should_panic(expected = "commit for")]
    fn commit_for_unserved_tid_panics() {
        let mut d = dir();
        d.handle_commit(Cycle(0), Tid(3), N1, 0);
    }

    #[test]
    fn working_set_counts_only_remote_sharers() {
        let mut d = dir();
        d.handle_load(Cycle(0), LineAddr(1), N0, 0); // home node itself
        d.handle_load(Cycle(0), LineAddr(2), N1, 0);
        d.handle_load(Cycle(0), LineAddr(3), N2, 0);
        assert_eq!(d.working_set_entries(), 2);
    }

    #[test]
    fn duplicate_stale_abort_is_ignored() {
        let mut d = dir();
        d.handle_abort(Cycle(0), Tid(0));
        assert_eq!(d.now_serving(), Tid(1));
        assert!(d.handle_abort(Cycle(1), Tid(0)).is_empty());
        assert_eq!(d.now_serving(), Tid(1));
    }

    /// Checkpointing a directory mid-commit (invalidation acks still
    /// outstanding) and restoring it into a fresh controller must
    /// reproduce both the serialized bytes and all subsequent protocol
    /// behaviour exactly.
    #[test]
    fn save_restore_round_trips_mid_commit_state() {
        let mut d = dir();
        d.handle_load(Cycle(0), L, N1, 0);
        d.handle_load(Cycle(0), L, N2, 0);
        d.handle_load(Cycle(0), LineAddr(200), N0, 0);
        d.handle_probe(Cycle(0), Tid(0), N1, true);
        d.handle_mark(Cycle(10), Tid(0), L, WordMask::single(3), N1);
        // Opens the ack window: N2 must still be invalidated.
        d.handle_commit(Cycle(20), Tid(0), N1, 1);
        // A skip for a far-future TID leaves a refusal pending too.
        d.handle_skip(Cycle(21), Tid(5_000_000));
        assert!(d.skip_refusal().is_some());

        let mut w = SnapWriter::new();
        d.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut r = dir();
        let mut rd = SnapReader::new(&bytes);
        r.restore_state(&mut rd).unwrap();
        assert!(rd.is_done(), "restore must consume the whole snapshot");

        // Re-saving the restored directory yields identical bytes.
        let mut w2 = SnapWriter::new();
        r.save_state(&mut w2);
        assert_eq!(bytes, w2.into_bytes());

        // Both copies finish the commit identically.
        for d in [&mut d, &mut r] {
            let acts = d.handle_inv_ack(Cycle(30), Tid(0), L, N2, false);
            assert!(acts.is_empty());
            assert_eq!(d.now_serving(), Tid(1));
            assert_eq!(d.occupancy(), [20]);
            let e = d.entry(L).unwrap();
            assert_eq!(e.owner, Some(N1));
            assert!(e.sharers.contains(N1) && !e.sharers.contains(N2));
        }

        // Truncated snapshots are refused with a typed error.
        let mut fresh = dir();
        let mut short = SnapReader::new(&bytes[..bytes.len() - 1]);
        assert!(fresh.restore_state(&mut short).is_err());
    }

    /// A skip vector wider than the live vector could ever buffer is a
    /// typed refusal on restore, not a panic or a large allocation.
    #[test]
    fn restore_refuses_an_oversize_skip_vector() {
        let mut w = SnapWriter::new();
        dir().save_state(&mut w);
        let fresh = w.into_bytes();
        // A fresh directory's body starts with NSTID 0 and an empty
        // bit-word vector; splice in 3,000 words instead.
        let mut w = SnapWriter::new();
        w.put(&Tid(0));
        w.put(&vec![1u64; 3_000]);
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&fresh[16..]);
        let mut d = dir();
        let err = d.restore_state(&mut SnapReader::new(&bytes)).unwrap_err();
        assert!(
            matches!(
                err,
                SnapError::Invalid {
                    what: "SkipVector.bits",
                    ..
                }
            ),
            "{err}"
        );
        assert_eq!(d.now_serving(), Tid(0));
    }
}
