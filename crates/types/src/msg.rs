//! The coherence message set of the Scalable TCC protocol.
//!
//! [`Payload`] mirrors Table 1 of the paper (Load Request, TID Request,
//! Skip, Probe, Mark, Commit, Abort, Write Back, Flush, Data Request)
//! plus the replies and acknowledgements required on an unordered
//! interconnect: load replies, TID replies, probe replies, invalidations,
//! and invalidation acks.
//!
//! Each payload knows its on-wire size ([`Payload::size_bytes`]) and its
//! traffic category ([`Payload::category`]), which feed the Figure 9
//! bytes-per-instruction accounting.
//!
//! `Payload` is declared once, inside the `payloads!` macro, which also
//! generates its census key ([`Payload::kind_index`], [`KIND_NAMES`],
//! [`N_KINDS`], [`ACK_KIND`]) and its snapshot encoding: a one-byte tag
//! equal to the kind index, then the fields in declaration order. Adding
//! a kind means one new entry in that declaration plus its `size_bytes`
//! and `category` arms.

use std::fmt;

use crate::addr::{LineAddr, WordMask};
use crate::ids::{DirId, NodeId, Tid};
use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};

/// Bytes of routing/type header carried by every message.
pub const HEADER_BYTES: u32 = 8;
/// Bytes of one address operand.
pub const ADDR_BYTES: u32 = 8;
/// Bytes of a per-word flag mask operand.
pub const MASK_BYTES: u32 = 8;
/// Bytes of a TID operand.
pub const TID_BYTES: u32 = 8;

/// Traffic categories used in Figure 9 of the paper.
///
/// Remote traffic at each directory is reported in bytes per instruction,
/// broken down into these five classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TrafficCategory {
    /// Cache-miss fill data served from main memory.
    Miss,
    /// Committed data written back to memory (evictions and flushes).
    WriteBack,
    /// Commit-protocol messages: TID requests, skips, probes, marks,
    /// commits, aborts.
    Commit,
    /// Cache-to-cache transfers: fill data forwarded from an owning
    /// processor's cache on true sharing.
    Shared,
    /// Control overhead: requests, invalidations, acknowledgements.
    Overhead,
}

impl TrafficCategory {
    /// All categories, in Figure 9 legend order.
    pub const ALL: [TrafficCategory; 5] = [
        TrafficCategory::Overhead,
        TrafficCategory::Miss,
        TrafficCategory::WriteBack,
        TrafficCategory::Commit,
        TrafficCategory::Shared,
    ];
}

impl fmt::Display for TrafficCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TrafficCategory::Miss => "Miss",
            TrafficCategory::WriteBack => "Write-back",
            TrafficCategory::Commit => "Commit",
            TrafficCategory::Shared => "Shared",
            TrafficCategory::Overhead => "Overhead",
        };
        f.write_str(s)
    }
}

/// Where fill data came from, distinguishing memory fills ([`Miss`])
/// from owner-cache forwards ([`Shared`]) for traffic accounting.
///
/// [`Miss`]: TrafficCategory::Miss
/// [`Shared`]: TrafficCategory::Shared
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataSource {
    /// Served from the home node's main memory (or directory cache).
    Memory,
    /// Forwarded from the current owner's cache (true sharing).
    Owner,
}

/// Simulated line contents: the TID of the last committed writer of each
/// word (`None` = never written).
///
/// The timing simulator does not need real data, but the serializability
/// checker does: by making "values" be writer TIDs and moving them along
/// the *actual* simulated data paths (caches, memory, write-backs,
/// forwards), any coherence bug — a stale line surviving an invalidation,
/// a dropped write-back, a mis-ordered commit — becomes a visible value
/// anachronism at commit-check time.
#[derive(Debug, PartialEq, Eq, Hash, Default)]
pub struct LineValues {
    /// Last committed writer per word, index = word index within line.
    pub words: Vec<Option<Tid>>,
}

/// Thread-local free list for the word buffers behind [`LineValues`].
///
/// Line payloads are the dominant steady-state allocation of the
/// simulator: every directory load reply and write-back clones a line,
/// uses it for a few hundred cycles, and drops it. Interning the
/// backing `Vec` through a per-thread pool makes those clones
/// allocation-free in steady state while leaving the `LineValues` API
/// (and its snapshot format) completely unchanged. A slab-handle
/// representation was rejected: payload handles would have to resolve
/// inside serialized snapshots, which a generational key cannot
/// survive.
///
/// The pool is bounded so a pathological run cannot hoard memory, and
/// `Drop` uses `try_with` so buffers released during thread teardown
/// (after TLS destruction) fall back to a plain deallocation.
const LINE_POOL_MAX: usize = 256;

thread_local! {
    static LINE_POOL: std::cell::RefCell<Vec<Vec<Option<Tid>>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Takes a cleared buffer from the pool (empty, arbitrary capacity) or
/// returns a fresh one.
fn line_buf() -> Vec<Option<Tid>> {
    LINE_POOL
        .try_with(|p| p.borrow_mut().pop())
        .ok()
        .flatten()
        .unwrap_or_default()
}

impl Drop for LineValues {
    fn drop(&mut self) {
        let mut v = std::mem::take(&mut self.words);
        if v.capacity() == 0 {
            return;
        }
        v.clear();
        // Ignore both TLS-teardown errors and a full pool: the buffer
        // just deallocates normally.
        let _ = LINE_POOL.try_with(|p| {
            let mut p = p.borrow_mut();
            if p.len() < LINE_POOL_MAX {
                p.push(v);
            }
        });
    }
}

impl Clone for LineValues {
    fn clone(&self) -> LineValues {
        let mut words = line_buf();
        words.extend_from_slice(&self.words);
        LineValues { words }
    }

    fn clone_from(&mut self, source: &LineValues) {
        self.words.clear();
        self.words.extend_from_slice(&source.words);
    }
}

impl LineValues {
    /// A line of `n` never-written words.
    #[must_use]
    pub fn fresh(n: usize) -> LineValues {
        let mut words = line_buf();
        words.resize(n, None);
        LineValues { words }
    }

    /// Overwrites the words selected by `mask` with writer `tid`.
    pub fn apply_write(&mut self, mask: WordMask, tid: Tid) {
        for w in mask.iter() {
            if w < self.words.len() {
                self.words[w] = Some(tid);
            }
        }
    }

    /// Copies the words selected by `mask` from `other` into `self`
    /// (used to merge partially-valid write-backs into memory).
    pub fn merge_from(&mut self, other: &LineValues, mask: WordMask) {
        for w in mask.iter() {
            if let (Some(dst), Some(src)) = (self.words.get_mut(w), other.words.get(w)) {
                *dst = *src;
            }
        }
    }
}

/// Declares [`Payload`] once and generates its census key and snapshot
/// encoding from that one list of kinds (see the module doc).
macro_rules! payloads {
    (
        $(#[$meta:meta])*
        pub enum Payload {
            $(
                $(#[$kind_meta:meta])*
                $kind:ident $({
                    $($(#[$field_meta:meta])* $field:ident: $ty:ty,)*
                })?,
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum Payload {
            $(
                $(#[$kind_meta])*
                $kind $({
                    $($(#[$field_meta])* $field: $ty,)*
                })?,
            )*
        }

        /// Fieldless mirror of [`Payload`] plus the transport's ack: the
        /// discriminants are the kind indices.
        enum Kind {
            $($kind,)*
            Ack,
        }

        /// Message kinds the traffic census distinguishes: every
        /// [`Payload`] variant plus the transport's standalone ack.
        pub const N_KINDS: usize = ACK_KIND + 1;

        /// Kind index of a standalone transport ack (`Frame::kind_index`).
        pub const ACK_KIND: usize = Kind::Ack as usize;

        /// Kind names by kind index ([`Payload::kind_index`], [`ACK_KIND`]).
        pub const KIND_NAMES: [&str; N_KINDS] = [$(stringify!($kind),)* "Ack"];

        impl Payload {
            /// This payload's kind as an index into [`KIND_NAMES`]: a
            /// dense key for per-kind counters.
            #[must_use]
            pub fn kind_index(&self) -> usize {
                match self {
                    $(Payload::$kind { .. } => Kind::$kind as usize,)*
                }
            }
        }

        impl Snap for Payload {
            fn save(&self, w: &mut SnapWriter) {
                match self {
                    $(Payload::$kind $({ $($field,)* })? => {
                        (Kind::$kind as u8).save(w);
                        $($($field.save(w);)*)?
                    })*
                }
            }

            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                let tag = u8::load(r)?;
                $(if tag == Kind::$kind as u8 {
                    return Ok(Payload::$kind $({ $($field: r.get()?,)* })?);
                })*
                Err(SnapError::invalid("Payload", format!("tag {tag}")))
            }
        }
    };
}

payloads! {
    /// One coherence message of the Scalable TCC protocol.
    ///
    /// The variants marked *(Table 1)* appear verbatim in the paper; the rest
    /// are the replies/acks any real implementation needs.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Payload {
        /// *(Table 1)* Load a cache line. Sent processor → home directory for
        /// both load misses and store misses (write-allocate caches).
        LoadRequest {
            /// Line being requested.
            line: LineAddr,
            /// Requesting processor (also the reply destination).
            requester: NodeId,
            /// Requester-local request id, echoed in the reply. Lets the
            /// processor discard replies to requests issued by attempts it
            /// has since rolled back — without it, a retry that misses on
            /// the same line could consume the rolled-back attempt's stale
            /// reply (§3.3 load/invalidate race, generalized).
            req: u64,
        },
        /// Fill data, directory → processor. Completes a `LoadRequest`.
        LoadReply {
            /// Line being filled.
            line: LineAddr,
            /// Whether the data came from memory or an owner's cache.
            source: DataSource,
            /// Simulated contents (writer stamps) for the checker.
            values: LineValues,
            /// Echo of the request's `req` id.
            req: u64,
        },
        /// *(Table 1)* Request a transaction identifier from the global vendor.
        TidRequest {
            /// Requesting processor (also the reply destination).
            requester: NodeId,
        },
        /// Vendor → processor: the freshly vended TID.
        TidReply {
            /// The gap-free TID granted to the requester.
            tid: Tid,
        },
        /// *(Table 1)* Instructs a directory to skip a given TID: the sender
        /// has nothing to commit at that directory.
        Skip {
            /// TID to be marked as completed at the directory.
            tid: Tid,
        },
        /// *(Table 1)* Probes a directory for its Now Serving TID. The
        /// directory defers its reply until the probe's condition is met
        /// (write-set probes: `NSTID == tid`; read-set probes: `NSTID >= tid`),
        /// implementing the paper's "avoid repeated probing" optimization.
        Probe {
            /// The prober's TID.
            tid: Tid,
            /// Probing processor (reply destination).
            requester: NodeId,
            /// True if the prober intends to send Mark messages (the
            /// directory is in its Writing Vector).
            for_write: bool,
        },
        /// Directory → processor: answer to a [`Payload::Probe`], carrying the NSTID at
        /// response time.
        ProbeReply {
            /// Responding directory.
            dir: DirId,
            /// The directory's Now Serving TID when it replied.
            now_serving: Tid,
            /// Echo of the probe's TID, so the processor can discard stale
            /// replies belonging to an attempt it has since aborted.
            probe_tid: Tid,
            /// Echo of the probe's `for_write` flag.
            for_write: bool,
        },
        /// *(Table 1)* Marks a line (pre-commit) as part of the committing
        /// transaction's write-set at its home directory.
        Mark {
            /// TID performing the commit (must equal the directory's NSTID).
            tid: Tid,
            /// Line being pre-committed.
            line: LineAddr,
            /// Word-granularity write flags buffered at the directory.
            words: WordMask,
            /// The committing processor (becomes owner on commit).
            committer: NodeId,
        },
        /// *(Table 1)* Instructs a directory to atomically commit all lines
        /// marked by `tid`: gang-upgrade Marked → Owned and invalidate sharers.
        Commit {
            /// TID whose marked lines become owned.
            tid: Tid,
            /// The committing processor.
            committer: NodeId,
            /// Number of `Mark` messages the committer sent to this
            /// directory. On an unordered interconnect the commit may
            /// overtake in-flight marks; the directory defers the
            /// gang-upgrade until all of them have arrived.
            marks: u32,
        },
        /// *(Table 1)* Instructs a directory to abort a given TID,
        /// gang-clearing its Marked bits. Also serves as the skip for that
        /// TID at that directory.
        Abort {
            /// TID being aborted.
            tid: Tid,
        },
        /// *(Table 1)* Writes back a committed cache line, removing it from
        /// the owner's cache (eviction). Tagged with the evictor's most
        /// recent TID so stale write-backs can be dropped (race elimination,
        /// §3.3).
        WriteBack {
            /// Line being written back.
            line: LineAddr,
            /// TID tag for the out-of-order write-back race check.
            tid: Tid,
            /// Simulated contents.
            values: LineValues,
            /// Words of `values` that are valid in the writer's copy.
            /// A dirty line can have holes: words invalidated by later
            /// commits that transferred ownership away. Only valid words
            /// may be merged into memory.
            valid: WordMask,
            /// The processor performing the write-back.
            writer: NodeId,
        },
        /// *(Table 1)* Writes back a committed cache line, leaving it in the
        /// owner's cache as a clean copy. Sent in response to a
        /// [`Payload::DataRequest`].
        Flush {
            /// Line being flushed.
            line: LineAddr,
            /// TID tag, as for [`Payload::WriteBack`].
            tid: Tid,
            /// Simulated contents.
            values: LineValues,
            /// Valid words of the flushed copy (see [`Payload::WriteBack`]).
            valid: WordMask,
            /// The processor performing the flush.
            writer: NodeId,
            /// True if the owner dropped the line (Fig. 2f write-back
            /// semantics) instead of keeping a clean copy.
            dropped: bool,
        },
        /// *(Table 1)* Directory → owner: flush a given cache line to memory
        /// so a pending load can be serviced.
        DataRequest {
            /// Line whose data the directory needs.
            line: LineAddr,
        },
        /// Directory → sharer: a committed write superseded this line; drop
        /// it, and violate if the current transaction speculatively read any
        /// of the flagged words.
        Invalidate {
            /// Line being invalidated.
            line: LineAddr,
            /// Word flags of the committed write (word-granularity conflict
            /// detection; `WordMask::ALL` under line granularity).
            words: WordMask,
            /// The committing transaction that caused the invalidation.
            committer_tid: Tid,
            /// Directory awaiting the acknowledgement.
            dir: DirId,
        },
        /// Sharer → directory: invalidation processed. Directories must
        /// collect all acks for a commit before advancing their NSTID
        /// (race elimination, §3.3).
        InvAck {
            /// TID of the commit whose invalidation is being acknowledged.
            tid: Tid,
            /// The invalidated line (pruning is per line).
            line: LineAddr,
            /// Acknowledging processor.
            from: NodeId,
            /// Whether the processor still holds transactional interest in
            /// the line (speculative SR/SM state). `false` lets the
            /// directory prune it from the sharers list, keeping
            /// invalidation fan-out proportional to the *active* sharers —
            /// without the missed-conflict window that eager pruning would
            /// open (see DESIGN.md).
            retained: bool,
        },
        /// *(baseline)* Small-scale TCC: request the global commit token.
        TokenRequest {
            /// Requesting processor.
            requester: NodeId,
        },
        /// *(baseline)* Arbiter → processor: the commit token is yours.
        TokenGrant,
        /// *(baseline)* Processor → arbiter: commit finished, pass the token
        /// on.
        TokenRelease,
        /// *(baseline)* Small-scale TCC write-through commit broadcast:
        /// the committer's whole write-set — addresses, word flags, *and
        /// data* — pushed to every node over the (simulated) ordered bus.
        BaselineCommit {
            /// Written lines with their word flags and contents.
            writes: Vec<(LineAddr, WordMask, LineValues)>,
            /// The committing processor.
            committer: NodeId,
            /// Commit serial number (the baseline's analogue of a TID,
            /// assigned by token-grant order).
            seq: Tid,
        },
        /// *(baseline)* Receiver → committer: broadcast processed.
        BaselineAck {
            /// Acknowledging processor.
            from: NodeId,
        },
        /// *(Tardis)* Processor → home: timestamped read request. The home
        /// extends the line's read lease and replies with data plus the
        /// current `(wts, rts)` interval.
        TsLoadRequest {
            /// Line being requested.
            line: LineAddr,
            /// Requesting processor (also the reply destination).
            requester: NodeId,
            /// Request id; replies to superseded requests are dropped.
            req: u64,
        },
        /// *(Tardis)* Home → processor: timestamped fill. The value is
        /// guaranteed current for logical times in `[wts, rts]`.
        TsLoadReply {
            /// Line being filled.
            line: LineAddr,
            /// Simulated contents (writer stamps) for the checker.
            values: LineValues,
            /// Logical time of the last committed write to the line.
            wts: u64,
            /// End of the read lease granted with this fill.
            rts: u64,
            /// Echo of the request's `req` id.
            req: u64,
        },
        /// *(Tardis)* Processor → home: commit-time exclusive lock request
        /// for one written line. Locks are requested one at a time in
        /// ascending line order, so the global acquisition order is total
        /// and deadlock-free.
        TsLock {
            /// Line being locked.
            line: LineAddr,
            /// Requesting committer (reply destination).
            requester: NodeId,
        },
        /// *(Tardis)* Home → processor: write lock granted, carrying the
        /// line's current timestamps so the committer can pick a commit
        /// time above every outstanding lease.
        TsLockAck {
            /// The locked line.
            line: LineAddr,
            /// Logical time of the last committed write.
            wts: u64,
            /// End of the newest read lease.
            rts: u64,
        },
        /// *(Tardis)* Processor → home: lease renewal. Validates a read of
        /// `line` at commit time `ts`: succeeds iff the line's `wts` still
        /// equals the `wts` observed at fill time (no intervening write),
        /// in which case the home extends `rts` to at least `ts`.
        TsRenew {
            /// Line whose lease is being renewed.
            line: LineAddr,
            /// Renewing processor (reply destination).
            requester: NodeId,
            /// The `wts` observed when the line was filled.
            wts: u64,
            /// Proposed commit time; the lease must cover it.
            ts: u64,
            /// Commit-attempt id; stale verdicts are dropped.
            req: u64,
        },
        /// *(Tardis)* Home → processor: lease renewal verdict.
        TsRenewAck {
            /// The line whose renewal was requested.
            line: LineAddr,
            /// `true` if the lease now covers the proposed commit time.
            ok: bool,
            /// Echo of the renewal's attempt id.
            req: u64,
        },
        /// *(Tardis)* Processor → home: write-through publish of one
        /// committed line. The home merges the flagged words, advances
        /// `wts = rts = ts`, releases the committer's lock, and serves any
        /// deferred requests.
        TsPublish {
            /// Line being published.
            line: LineAddr,
            /// Words written by the committed transaction.
            words: WordMask,
            /// Writer stamp recorded into memory (the committer's TID).
            tid: Tid,
            /// The transaction's commit time.
            ts: u64,
            /// The committing processor (ack destination).
            committer: NodeId,
        },
        /// *(Tardis)* Home → processor: publish applied and lock released.
        TsPublishAck {
            /// The published line.
            line: LineAddr,
        },
        /// *(Tardis)* Processor → home: release a write lock without
        /// publishing (commit-attempt abort path).
        TsRelease {
            /// Line whose lock is released.
            line: LineAddr,
            /// The aborting lock holder.
            requester: NodeId,
        },
    }

}

impl Payload {
    /// On-wire size in bytes, given the machine's cache-line size.
    #[must_use]
    pub fn size_bytes(&self, line_bytes: u32) -> u32 {
        match self {
            Payload::LoadRequest { .. } => HEADER_BYTES + ADDR_BYTES,
            Payload::LoadReply { .. } => HEADER_BYTES + ADDR_BYTES + line_bytes,
            Payload::TidRequest { .. } => HEADER_BYTES,
            Payload::TidReply { .. } => HEADER_BYTES + TID_BYTES,
            Payload::Skip { .. } => HEADER_BYTES + TID_BYTES,
            Payload::Probe { .. } => HEADER_BYTES + TID_BYTES,
            Payload::ProbeReply { .. } => HEADER_BYTES + 2 * TID_BYTES,
            Payload::Mark { .. } => HEADER_BYTES + ADDR_BYTES + MASK_BYTES,
            Payload::Commit { .. } => HEADER_BYTES + TID_BYTES,
            Payload::Abort { .. } => HEADER_BYTES + TID_BYTES,
            Payload::WriteBack { .. } => HEADER_BYTES + ADDR_BYTES + TID_BYTES + line_bytes,
            Payload::Flush { .. } => HEADER_BYTES + ADDR_BYTES + TID_BYTES + line_bytes,
            Payload::DataRequest { .. } => HEADER_BYTES + ADDR_BYTES,
            Payload::Invalidate { .. } => HEADER_BYTES + ADDR_BYTES + MASK_BYTES + TID_BYTES,
            Payload::InvAck { .. } => HEADER_BYTES + TID_BYTES + ADDR_BYTES,
            Payload::TokenRequest { .. } | Payload::TokenGrant | Payload::TokenRelease => {
                HEADER_BYTES
            }
            Payload::BaselineCommit { writes, .. } => {
                HEADER_BYTES + writes.len() as u32 * (ADDR_BYTES + MASK_BYTES + line_bytes)
            }
            Payload::BaselineAck { .. } => HEADER_BYTES,
            Payload::TsLoadRequest { .. } => HEADER_BYTES + ADDR_BYTES,
            Payload::TsLoadReply { .. } => HEADER_BYTES + ADDR_BYTES + 2 * TID_BYTES + line_bytes,
            Payload::TsLock { .. } => HEADER_BYTES + ADDR_BYTES,
            Payload::TsLockAck { .. } => HEADER_BYTES + ADDR_BYTES + 2 * TID_BYTES,
            Payload::TsRenew { .. } => HEADER_BYTES + ADDR_BYTES + 2 * TID_BYTES,
            Payload::TsRenewAck { .. } => HEADER_BYTES + ADDR_BYTES,
            Payload::TsPublish { .. } => {
                HEADER_BYTES + ADDR_BYTES + MASK_BYTES + TID_BYTES + line_bytes
            }
            Payload::TsPublishAck { .. } => HEADER_BYTES + ADDR_BYTES,
            Payload::TsRelease { .. } => HEADER_BYTES + ADDR_BYTES,
        }
    }

    /// Figure 9 traffic category of this message.
    #[must_use]
    pub fn category(&self) -> TrafficCategory {
        match self {
            Payload::LoadRequest { .. } | Payload::DataRequest { .. } => TrafficCategory::Overhead,
            Payload::LoadReply { source, .. } => match source {
                DataSource::Memory => TrafficCategory::Miss,
                DataSource::Owner => TrafficCategory::Shared,
            },
            Payload::TidRequest { .. }
            | Payload::TidReply { .. }
            | Payload::Skip { .. }
            | Payload::Probe { .. }
            | Payload::ProbeReply { .. }
            | Payload::Mark { .. }
            | Payload::Commit { .. }
            | Payload::Abort { .. } => TrafficCategory::Commit,
            Payload::WriteBack { .. } | Payload::Flush { .. } => TrafficCategory::WriteBack,
            Payload::Invalidate { .. } | Payload::InvAck { .. } => TrafficCategory::Overhead,
            Payload::TokenRequest { .. }
            | Payload::TokenGrant
            | Payload::TokenRelease
            | Payload::BaselineCommit { .. } => TrafficCategory::Commit,
            Payload::BaselineAck { .. } => TrafficCategory::Overhead,
            Payload::TsLoadRequest { .. } => TrafficCategory::Overhead,
            Payload::TsLoadReply { .. } => TrafficCategory::Miss,
            Payload::TsLock { .. }
            | Payload::TsLockAck { .. }
            | Payload::TsRenew { .. }
            | Payload::TsRenewAck { .. }
            | Payload::TsPublishAck { .. }
            | Payload::TsRelease { .. } => TrafficCategory::Commit,
            Payload::TsPublish { .. } => TrafficCategory::WriteBack,
        }
    }

    /// A short, stable name for logging and statistics.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        KIND_NAMES[self.kind_index()]
    }
}

/// Maps a message-kind name back to its kind index.
///
/// Statistics tables count messages per kind index and name them by
/// [`KIND_NAMES`]. Snapshot restore reads those names back as owned
/// strings; this is the inverse mapping. Returns `None` for unknown
/// names so a corrupt snapshot surfaces as a typed error instead of a
/// bogus counter key.
#[must_use]
pub fn kind_index_of(name: &str) -> Option<usize> {
    KIND_NAMES.iter().position(|&k| k == name)
}

/// A routed message: a [`Payload`] travelling from `src` to `dst`.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node. Whether the processor or the directory controller
    /// of that node handles it is determined by the payload type.
    pub dst: NodeId,
    /// The protocol content.
    pub payload: Payload,
}

impl Message {
    /// Constructs a message.
    #[must_use]
    pub fn new(src: NodeId, dst: NodeId, payload: Payload) -> Message {
        Message { src, dst, payload }
    }

    /// On-wire size in bytes.
    #[must_use]
    pub fn size_bytes(&self, line_bytes: u32) -> u32 {
        self.payload.size_bytes(line_bytes)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One payload of every kind, plus the owner-forwarded `LoadReply`.
    /// Fields hold distinct, non-default values so an encoding that
    /// swaps or drops a field cannot round-trip.
    pub(crate) fn every_kind() -> Vec<Payload> {
        let line = LineAddr(4);
        let vals = LineValues {
            words: vec![None, Some(Tid(3)), Some(Tid(0)), None],
        };
        vec![
            Payload::LoadRequest {
                line,
                requester: NodeId(1),
                req: 7,
            },
            Payload::LoadReply {
                line,
                source: DataSource::Memory,
                values: vals.clone(),
                req: 7,
            },
            Payload::LoadReply {
                line,
                source: DataSource::Owner,
                values: vals.clone(),
                req: 8,
            },
            Payload::TidRequest {
                requester: NodeId(2),
            },
            Payload::TidReply { tid: Tid(9) },
            Payload::Skip { tid: Tid(10) },
            Payload::Probe {
                tid: Tid(9),
                requester: NodeId(1),
                for_write: true,
            },
            Payload::ProbeReply {
                dir: DirId(3),
                now_serving: Tid(8),
                probe_tid: Tid(9),
                for_write: false,
            },
            Payload::Mark {
                tid: Tid(9),
                line,
                words: WordMask::single(1),
                committer: NodeId(1),
            },
            Payload::Commit {
                tid: Tid(9),
                committer: NodeId(1),
                marks: 2,
            },
            Payload::Abort { tid: Tid(11) },
            Payload::WriteBack {
                line,
                tid: Tid(9),
                values: vals.clone(),
                valid: WordMask(0b1011),
                writer: NodeId(1),
            },
            Payload::Flush {
                line,
                tid: Tid(9),
                values: vals.clone(),
                valid: WordMask::ALL,
                writer: NodeId(1),
                dropped: true,
            },
            Payload::DataRequest { line },
            Payload::Invalidate {
                line,
                words: WordMask(0b110),
                committer_tid: Tid(9),
                dir: DirId(3),
            },
            Payload::InvAck {
                tid: Tid(9),
                line,
                from: NodeId(2),
                retained: true,
            },
            Payload::TokenRequest {
                requester: NodeId(0),
            },
            Payload::TokenGrant,
            Payload::TokenRelease,
            Payload::BaselineCommit {
                writes: vec![
                    (line, WordMask(3), vals.clone()),
                    (LineAddr(5), WordMask::ALL, LineValues::fresh(2)),
                ],
                committer: NodeId(0),
                seq: Tid(1),
            },
            Payload::BaselineAck { from: NodeId(1) },
            Payload::TsLoadRequest {
                line,
                requester: NodeId(1),
                req: 12,
            },
            Payload::TsLoadReply {
                line,
                values: vals.clone(),
                wts: 20,
                rts: 30,
                req: 12,
            },
            Payload::TsLock {
                line,
                requester: NodeId(2),
            },
            Payload::TsLockAck {
                line,
                wts: 21,
                rts: 31,
            },
            Payload::TsRenew {
                line,
                requester: NodeId(2),
                wts: 20,
                ts: 40,
                req: 13,
            },
            Payload::TsRenewAck {
                line,
                ok: true,
                req: 13,
            },
            Payload::TsPublish {
                line,
                words: WordMask(0b101),
                tid: Tid(9),
                ts: 41,
                committer: NodeId(2),
            },
            Payload::TsPublishAck { line },
            Payload::TsRelease {
                line,
                requester: NodeId(3),
            },
        ]
    }

    #[test]
    fn the_fixture_covers_every_kind() {
        let seen: std::collections::BTreeSet<usize> =
            every_kind().iter().map(Payload::kind_index).collect();
        assert_eq!(seen, (0..ACK_KIND).collect());
    }

    #[test]
    fn every_payload_has_positive_size_and_a_name() {
        for p in every_kind() {
            assert!(p.size_bytes(32) >= HEADER_BYTES, "{}", p.kind_name());
            assert!(!p.kind_name().is_empty());
        }
    }

    #[test]
    fn kind_indices_are_distinct_and_name_back_to_themselves() {
        for (i, name) in KIND_NAMES.iter().enumerate() {
            assert_eq!(kind_index_of(name), Some(i), "{name} is named twice");
        }
        for p in every_kind() {
            assert_ne!(p.kind_index(), ACK_KIND);
            assert_eq!(kind_index_of(p.kind_name()), Some(p.kind_index()));
        }
        assert_eq!(kind_index_of("Ack"), Some(ACK_KIND));
        assert_eq!(kind_index_of("NotAMessageKind"), None);
    }

    #[test]
    fn data_messages_carry_the_line() {
        let p = Payload::LoadReply {
            line: LineAddr(0),
            source: DataSource::Memory,
            values: LineValues::fresh(8),
            req: 0,
        };
        assert_eq!(p.size_bytes(32), HEADER_BYTES + ADDR_BYTES + 32);
        assert_eq!(p.size_bytes(64), HEADER_BYTES + ADDR_BYTES + 64);
    }

    #[test]
    fn categories_match_figure_9_semantics() {
        use TrafficCategory::*;
        let vals = LineValues::fresh(8);
        let memory_fill = Payload::LoadReply {
            line: LineAddr(0),
            source: DataSource::Memory,
            values: vals.clone(),
            req: 0,
        };
        let owner_fill = Payload::LoadReply {
            line: LineAddr(0),
            source: DataSource::Owner,
            values: vals.clone(),
            req: 0,
        };
        assert_eq!(memory_fill.category(), Miss);
        assert_eq!(owner_fill.category(), Shared);
        assert_eq!(Payload::Skip { tid: Tid(0) }.category(), Commit);
        assert_eq!(
            Payload::WriteBack {
                line: LineAddr(0),
                tid: Tid(0),
                values: vals,
                valid: WordMask::ALL,
                writer: NodeId(0)
            }
            .category(),
            WriteBack
        );
        assert_eq!(
            Payload::InvAck {
                tid: Tid(0),
                line: LineAddr(0),
                from: NodeId(0),
                retained: false
            }
            .category(),
            Overhead
        );
    }

    #[test]
    fn line_values_apply_write() {
        let mut v = LineValues::fresh(8);
        let mut m = WordMask::EMPTY;
        m.set(0);
        m.set(7);
        v.apply_write(m, Tid(3));
        assert_eq!(v.words[0], Some(Tid(3)));
        assert_eq!(v.words[7], Some(Tid(3)));
        assert_eq!(v.words[1], None);
        // Out-of-range word indices in the mask are ignored.
        let mut short = LineValues::fresh(2);
        short.apply_write(WordMask::single(5), Tid(1));
        assert_eq!(short.words, vec![None, None]);
    }

    #[test]
    fn message_roundtrip() {
        let m = Message::new(NodeId(0), NodeId(3), Payload::Skip { tid: Tid(1) });
        assert_eq!(m.src, NodeId(0));
        assert_eq!(m.dst, NodeId(3));
        assert_eq!(m.size_bytes(32), HEADER_BYTES + TID_BYTES);
    }
}
