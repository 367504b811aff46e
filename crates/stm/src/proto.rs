//! The commit protocol, generic over the [`Shim`] atomics layer.
//!
//! This module is the software transliteration of the paper's §3.2
//! two-phase parallel commit, and it is instantiated twice: over
//! [`RealShim`](crate::shim::RealShim) by the production STM
//! ([`crate::Stm`]) and over [`ModelShim`](crate::shim::ModelShim) by
//! the interleaving explorer ([`crate::explore`]) — the *same* code
//! path is what gets model-checked.
//!
//! Mapping from the paper's messages to atomic operations (full table
//! in DESIGN.md §12):
//!
//! | paper | here |
//! |---|---|
//! | TID vendor | [`Vendor`]: gap-free `fetch_add` sequencer + per-shard handoff slots |
//! | directory NSTID + Skip Vector | [`Shard`]: one word packing `nstid` (40 bits) and a 24-bit skip window |
//! | `Skip` multicast | [`Shard::resolve`] on every non-footprint shard |
//! | `Probe` (deferred response) | [`Shard::await_serving`] — spin until `NSTID == tid` |
//! | `Mark` | [`CellAccess::set_mark`] — write-intent published on the cell so racing reads can stall |
//! | `Commit` multicast / gang upgrade | [`CellAccess::publish`] while holding serial position `tid`, then [`Shard::resolve`] on the footprint |
//! | invalidation of sharers | commit-time read validation: a changed stamp *is* the invalidation |
//! | starved tx keeps early TID | [`CommitMode::EarlyTid`]: TID acquired at restart, nothing resolved until it commits |
//!
//! The livelock-freedom argument carries over intact: every shard's
//! NSTID is ≤ the lowest unresolved TID, so the holder of that TID
//! never waits on anyone — it validates, publishes and resolves; and a
//! TID parked in a vendor handoff slot (an abort that consumed no shard
//! state) is *claimable* by any waiter, which then skips it everywhere
//! itself ([`Helper`]). Directories never wait on a thread that is not
//! running.

use crate::shim::{Shim, ShimU64};
use std::ops::Deref;
use tcc_types::Tid;

/// Version stamp of a cell no committed transaction has written yet.
pub const STAMP_INITIAL: u64 = 0;

/// The version stamp a commit with `tid` publishes. Offset by one so
/// the gap-free sequence can start at TID 0 while stamp 0 stays
/// reserved for the initial version.
#[inline]
#[must_use]
pub fn stamp_of(tid: u64) -> u64 {
    tid + 1
}

/// Sentinel for "no TID" (empty vendor handoff slot, unmarked cell).
pub const TID_NONE: u64 = u64::MAX;

/// Bits of the packed shard word spent on the skip window.
const SKIP_BITS: u32 = 24;
const SKIP_MASK: u64 = (1 << SKIP_BITS) - 1;

/// Largest TID the vendor will ever emit: the packed NSTID field is 40
/// bits and must be able to hold `MAX_TID + 1` after the final commit.
/// ~1.1e12 transactions; the vendor *refuses* (panics) rather than
/// wrapping — see [`Vendor::acquire`].
pub const MAX_TID: u64 = (1 << 40) - 2;

/// Maximum number of directory shards (footprints are shard bitmaps in
/// one `u64`).
pub const MAX_SHARDS: usize = 64;

/// Gives `T` a 128-byte-aligned block of its own, so no other hot word
/// shares its cache line. 128 rather than 64: adjacent-line
/// prefetchers pull 64-byte lines in pairs.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(pub T);

impl<T> Deref for CachePadded<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

// ---------------------------------------------------------------------
// Directory shard
// ---------------------------------------------------------------------

/// One directory shard's commit state: the `Now Serving TID` register
/// and the Skip Vector of Fig. 4, packed into a single atomic word so
/// skip-ahead and advancement are one CAS.
///
/// Layout: bits 63..24 = NSTID (lowest unresolved TID at this shard),
/// bits 23..0 = skip window, where bit `b` set means TID
/// `nstid + 1 + b` is already resolved here and the register can slide
/// over it the moment `nstid` itself resolves.
pub struct Shard<S: Shim> {
    state: S::U64,
}

impl<S: Shim> Default for Shard<S> {
    fn default() -> Self {
        Shard::new()
    }
}

impl<S: Shim> Shard<S> {
    #[must_use]
    pub fn new() -> Self {
        Shard {
            state: S::U64::new(0),
        }
    }

    /// The lowest TID not yet resolved (committed or skipped) here.
    #[inline]
    pub fn nstid(&self) -> u64 {
        self.state.load() >> SKIP_BITS
    }

    /// Marks `tid` resolved at this shard — the software `Skip` (and
    /// the tail of `Commit`). Idempotent. If `tid` is more than the
    /// window size ahead of the shard's NSTID, the caller waits (via
    /// `env`) for older TIDs to resolve first; this is the Skip
    /// Vector's bounded-capacity back-pressure.
    pub fn resolve(&self, tid: u64, env: &impl HelpEnv) {
        loop {
            let s = self.state.load();
            let n = s >> SKIP_BITS;
            if tid < n {
                return; // already resolved (helper beat us to it)
            }
            let new = if tid == n {
                // Head resolves: slide over it plus any contiguously
                // pre-resolved successors recorded in the window.
                let bits = s & SKIP_MASK;
                let adv = 1 + u64::from(bits.trailing_ones());
                ((n + adv) << SKIP_BITS) | (bits >> adv)
            } else {
                let k = tid - n;
                if k > u64::from(SKIP_BITS) {
                    // Window full: can't record a resolution this far
                    // ahead until the head moves.
                    env.stalled(n);
                    continue;
                }
                let bit = 1 << (k - 1);
                debug_assert_eq!(s & bit, 0, "TID {tid} resolved twice at one shard");
                s | bit
            };
            if self.state.compare_exchange(s, new).is_ok() {
                return;
            }
        }
    }

    /// Waits until this shard is serving exactly `tid` — the software
    /// `Probe`, with the paper's deferred-response optimization: we
    /// don't poll-and-retry, we watch the register until it arrives.
    ///
    /// # Panics
    ///
    /// Panics if the shard has already advanced past `tid`: NSTID never
    /// passes an unresolved TID, so this means `tid` was resolved twice.
    pub fn await_serving(&self, tid: u64, env: &impl HelpEnv) {
        loop {
            let n = self.nstid();
            if n == tid {
                return;
            }
            assert!(
                n < tid,
                "shard advanced past TID {tid} (NSTID {n}) while it was still committing"
            );
            env.stalled(n);
        }
    }
}

// ---------------------------------------------------------------------
// TID vendor
// ---------------------------------------------------------------------

/// The gap-free TID vendor: a global `fetch_add` sequencer fronted by
/// per-shard *handoff slots*.
///
/// Gap-freedom is the property the whole protocol leans on (§2.1):
/// every TID ever emitted must eventually be resolved at **every**
/// shard, or NSTIDs stop advancing. The handoff slots keep aborts
/// cheap without ever creating a gap:
///
/// * A transaction that aborts *before touching any shard state*
///   (commit-time validation failure happens before anything is
///   resolved) parks its TID in its home shard's slot
///   ([`Vendor::recycle`]). The next committer from that home reuses
///   it — an older serial position, which can only help it.
/// * A parked TID that somebody is *waiting on* (it is the NSTID of a
///   shard another committer needs) is claimed by the waiter
///   ([`Vendor::claim`]) and skipped everywhere on the parker's behalf,
///   so a slot can never stall the system.
/// * If the home slot is occupied, [`Vendor::recycle`] refuses and the
///   aborter must skip the TID at every shard itself — the
///   shard-exhaustion path.
///
/// The sequencer and each slot sit on their own cache line: every
/// commit RMWs the sequencer, and each slot is written mostly by the
/// threads homed on it.
pub struct Vendor<S: Shim> {
    next: CachePadded<S::U64>,
    slots: Box<[CachePadded<S::U64>]>,
}

impl<S: Shim> Vendor<S> {
    /// A vendor with `slots` handoff slots, vending from TID 0.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    #[must_use]
    pub fn new(slots: usize) -> Self {
        Vendor::with_base(slots, 0)
    }

    /// As [`Vendor::new`] but vending from `base` — used by the
    /// wraparound-refusal tests to start near [`MAX_TID`].
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    #[must_use]
    pub fn with_base(slots: usize, base: u64) -> Self {
        assert!(slots > 0, "vendor needs at least one handoff slot");
        Vendor {
            next: CachePadded(S::U64::new(base)),
            slots: (0..slots)
                .map(|_| CachePadded(S::U64::new(TID_NONE)))
                .collect(),
        }
    }

    /// Vends the next TID: a parked handoff from `home`'s slot if one
    /// is waiting, otherwise a fresh value off the global sequencer.
    ///
    /// # Panics
    ///
    /// Panics ("refuses") instead of wrapping once the sequencer
    /// reaches [`MAX_TID`]: TID arithmetic across the crate relies on
    /// the sequence being monotone, and [`Tid::checked_since`] is how
    /// the refusal is detected without ever computing a wrapped value.
    pub fn acquire(&self, home: usize) -> u64 {
        let slot = &self.slots[home % self.slots.len()];
        // Load before swapping: the slot is usually empty, and a load
        // leaves its line shared where a swap would take it exclusive.
        if slot.load() != TID_NONE {
            let parked = slot.swap(TID_NONE);
            if parked != TID_NONE {
                return parked;
            }
        }
        let t = self.next.fetch_add(1);
        // Underflow-safe refusal: `MAX_TID.checked_since(t)` is `None`
        // exactly when the sequencer has run past the vendable space.
        assert!(
            Tid(MAX_TID).checked_since(Tid(t)).is_some(),
            "gap-free TID space exhausted at {t} (MAX_TID {MAX_TID}); refusing to wrap"
        );
        t
    }

    /// Hands an **unpublished** TID back for reuse. Only sound for a
    /// TID that has not touched any shard state (no skip, no
    /// await-and-validate side effects, no publication): a recycled TID
    /// must be indistinguishable from one never vended. Returns `false`
    /// if `home`'s slot is occupied — the caller then owns the TID's
    /// resolution and must skip it at every shard.
    #[must_use]
    pub fn recycle(&self, home: usize, tid: u64) -> bool {
        debug_assert_ne!(tid, TID_NONE);
        self.slots[home % self.slots.len()]
            .compare_exchange(TID_NONE, tid)
            .is_ok()
    }

    /// Atomically removes `tid` from whichever handoff slot parks it.
    /// Returns `true` if this caller won the claim and is now
    /// responsible for skipping `tid` at every shard.
    pub fn claim(&self, tid: u64) -> bool {
        for slot in self.slots.iter() {
            if slot.load() == tid && slot.compare_exchange(tid, TID_NONE).is_ok() {
                return true;
            }
        }
        false
    }

    /// TIDs handed out so far by the global sequencer (parked handoffs
    /// included).
    pub fn issued(&self) -> u64 {
        self.next.load()
    }
}

// ---------------------------------------------------------------------
// Commit state + helping
// ---------------------------------------------------------------------

/// Commit-path statistics (shim counters so the model counts them too).
/// Aligned to a cache line of its own: every commit bumps `commits`,
/// and that RMW must not evict the vendor or the shard words.
#[repr(align(128))]
pub struct ProtoStats<S: Shim> {
    /// Commits completed.
    pub commits: S::U64,
    /// Commit-time validation failures (normal mode).
    pub conflicts: S::U64,
    /// Aborted TIDs parked in a handoff slot.
    pub recycled: S::U64,
    /// Parked TIDs claimed and skipped by a waiter.
    pub claimed: S::U64,
    /// Aborts that found their handoff slot occupied and had to skip
    /// their TID at every shard themselves.
    pub slot_exhausted: S::U64,
    /// Commits that ran in early-TID (starvation) mode.
    pub early_commits: S::U64,
}

impl<S: Shim> ProtoStats<S> {
    fn new() -> Self {
        ProtoStats {
            commits: S::U64::new(0),
            conflicts: S::U64::new(0),
            recycled: S::U64::new(0),
            claimed: S::U64::new(0),
            slot_exhausted: S::U64::new(0),
            early_commits: S::U64::new(0),
        }
    }
}

/// The sharded commit state one STM instance owns: the vendor, the
/// directory shards, and the protocol counters. The shard words stay
/// packed in one block: a commit touches every shard, so splitting
/// them across lines would only add misses.
pub struct CommitState<S: Shim> {
    pub vendor: Vendor<S>,
    pub shards: Box<[Shard<S>]>,
    pub stats: ProtoStats<S>,
}

impl<S: Shim> CommitState<S> {
    /// # Panics
    ///
    /// Panics if `n_shards` is zero or exceeds [`MAX_SHARDS`], or if
    /// `vendor_slots` is zero.
    #[must_use]
    pub fn new(n_shards: usize, vendor_slots: usize) -> Self {
        assert!(
            (1..=MAX_SHARDS).contains(&n_shards),
            "shard count must be in 1..={MAX_SHARDS}"
        );
        CommitState {
            vendor: Vendor::new(vendor_slots),
            shards: (0..n_shards).map(|_| Shard::new()).collect(),
            stats: ProtoStats::new(),
        }
    }

    /// The helping environment waits use.
    #[must_use]
    pub fn helper(&self) -> Helper<'_, S> {
        Helper { state: self }
    }
}

/// What a spinning wait does while it cannot progress. Separated into a
/// trait so shard primitives stay testable without a full
/// [`CommitState`].
pub trait HelpEnv {
    /// Called with the TID the wait is stuck behind (the shard's
    /// current NSTID). Must back off; may help resolve `head`.
    fn stalled(&self, head: u64);
}

/// Backoff-only environment (no helping) for unit tests.
pub struct NoHelp<S: Shim>(std::marker::PhantomData<S>);

impl<S: Shim> Default for NoHelp<S> {
    fn default() -> Self {
        NoHelp(std::marker::PhantomData)
    }
}

impl<S: Shim> HelpEnv for NoHelp<S> {
    fn stalled(&self, _head: u64) {
        S::pause();
    }
}

/// The production helping rule: a wait stuck behind TID `head` first
/// checks whether `head` is parked in a vendor handoff slot — an abort
/// whose owner may never come back for it — and if so claims it and
/// skips it at every shard itself. Claims are exclusive (slot CAS), so
/// exactly one thread resolves each parked TID. Helping can nest: while
/// skipping a claimed TID we may stall behind an even older parked TID
/// and claim that too; the chain is strictly decreasing, so it
/// terminates.
pub struct Helper<'a, S: Shim> {
    state: &'a CommitState<S>,
}

impl<S: Shim> HelpEnv for Helper<'_, S> {
    fn stalled(&self, head: u64) {
        if self.state.vendor.claim(head) {
            self.state.stats.claimed.fetch_add(1);
            for shard in self.state.shards.iter() {
                shard.resolve(head, self);
            }
        } else {
            S::pause();
        }
    }
}

// ---------------------------------------------------------------------
// Commit driver
// ---------------------------------------------------------------------

/// How the commit driver touches cells. Implemented by the real STM
/// (version-pointer cells plus the transaction's write buffer) and by
/// the explorer's model (one shim word of stamp per cell).
pub trait CellAccess {
    /// Opaque per-transaction cell handle (an index into the caller's
    /// read/write arrays).
    type Handle: Copy;

    /// The cell's current committed version stamp.
    fn stamp(&self, h: Self::Handle) -> u64;
    /// Publish write intent on the cell (the `Mark`): racing reads may
    /// stall on it. Purely an anti-waste hint — correctness never
    /// depends on a mark being observed.
    fn set_mark(&self, h: Self::Handle, tid: u64);
    /// Withdraw this transaction's mark (after publication, or on
    /// abort). `tid` is the value passed to `set_mark`, so the
    /// implementation can CAS it away without clobbering a concurrent
    /// marker that overwrote it.
    fn clear_mark(&self, h: Self::Handle, tid: u64);
    /// Make the transaction's buffered value for this cell the current
    /// committed version, stamped [`stamp_of`]`(tid)`. Only called
    /// while the cell's home shard is serving `tid`.
    fn publish(&mut self, h: Self::Handle, tid: u64);
}

/// One read-set entry presented to the driver.
#[derive(Debug, Clone, Copy)]
pub struct ReadEntry<H> {
    pub cell: H,
    pub shard: usize,
    /// The stamp the transaction observed when it read the cell.
    pub stamp: u64,
}

/// One write-set entry presented to the driver.
#[derive(Debug, Clone, Copy)]
pub struct WriteEntry<H> {
    pub cell: H,
    pub shard: usize,
}

/// Which commit flavour to run.
#[derive(Debug, Clone, Copy)]
pub enum CommitMode {
    /// Acquire a TID now (post-execution), with `home` as the vendor
    /// handoff slot to prefer.
    Normal { home: usize },
    /// Starvation mode: the TID was acquired *at restart*, before the
    /// transaction (re-)executed, and is held across validation
    /// failures. Nothing is resolved anywhere until this transaction
    /// finally commits, which freezes every shard's NSTID at or below
    /// it — the paper's "directories cannot serve any higher TID until
    /// it finishes".
    EarlyTid(u64),
}

/// The driver's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitOutcome {
    Committed {
        tid: u64,
    },
    /// Commit-time validation failed. In normal mode the TID was
    /// recycled or skipped (nothing kept); in early mode the TID is
    /// retained for the next attempt.
    Conflict {
        kept_tid: Option<u64>,
    },
}

/// Fault-injection knobs for the explorer's teeth tests: each disables
/// one load-bearing step of the commit path, and the interleaving
/// explorer must catch the resulting serializability violations.
/// Always default (off) in production.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommitTweaks {
    /// BUG: skip commit-time read validation entirely.
    pub skip_read_validation: bool,
    /// BUG: publish writes immediately after marking, *before* the
    /// write shards are serving our TID.
    pub publish_before_serving: bool,
}

/// Runs the two-phase parallel commit for one transaction.
///
/// Phases, mirroring §3.2:
///
/// 1. **TID** — vend (or, in early mode, reuse the held) TID.
/// 2. **Mark** — publish write intent on every written cell.
/// 3. **Probe/validate** — for every shard in the read∪write
///    footprint, wait until its NSTID equals our TID (the deferred
///    probe response), then check every read homed there still carries
///    the stamp we observed. A mismatch is the software image of an
///    invalidation: some older-TID commit wrote the cell after we read
///    it.
/// 4. **Publish** — with every footprint shard simultaneously serving
///    our TID, no other transaction can publish anywhere we read or
///    write; install the buffered writes (ownership publication).
/// 5. **Resolve** — resolve our TID at every shard: `Commit` for the
///    footprint, `Skip` for the rest. Deferring the skips to the end
///    costs nothing (nobody can need our skip before we are done — the
///    TIDs below us don't wait on us, and the TIDs above us cannot pass
///    us anyway) and is what makes the abort path side-effect-free and
///    the TID recyclable.
///
/// On validation failure nothing has been published or resolved, so the
/// TID is handed back to the vendor (or skipped everywhere if the
/// handoff slot is full), and the caller re-executes.
pub fn commit<S: Shim, C: CellAccess>(
    state: &CommitState<S>,
    reads: &[ReadEntry<C::Handle>],
    writes: &[WriteEntry<C::Handle>],
    cells: &mut C,
    mode: CommitMode,
    tweaks: &CommitTweaks,
) -> CommitOutcome {
    let n = state.shards.len();
    debug_assert!(n <= MAX_SHARDS);
    let (tid, early) = match mode {
        CommitMode::Normal { home } => (state.vendor.acquire(home), false),
        CommitMode::EarlyTid(t) => (t, true),
    };

    // Footprint bitmap: which shards we must be served at.
    let mut footprint: u64 = 0;
    for r in reads {
        debug_assert!(r.shard < n);
        footprint |= 1 << r.shard;
    }
    for w in writes {
        debug_assert!(w.shard < n);
        footprint |= 1 << w.shard;
    }

    // Phase 2: Mark.
    for w in writes {
        cells.set_mark(w.cell, tid);
    }
    if tweaks.publish_before_serving {
        // BUG KNOB: ownership published before the shards serialize us.
        for w in writes {
            cells.publish(w.cell, tid);
        }
    }

    // Phase 3: Probe + validate, one footprint shard at a time. Order
    // doesn't matter for liveness: every wait depends only on
    // strictly-lower TIDs resolving.
    let helper = state.helper();
    let mut conflicted = false;
    'shards: for s in 0..n {
        if footprint & (1 << s) == 0 {
            continue;
        }
        state.shards[s].await_serving(tid, &helper);
        if tweaks.skip_read_validation {
            continue;
        }
        for r in reads {
            if r.shard == s && cells.stamp(r.cell) != r.stamp {
                conflicted = true;
                break 'shards;
            }
        }
    }

    if conflicted {
        for w in writes {
            cells.clear_mark(w.cell, tid);
        }
        state.stats.conflicts.fetch_add(1);
        if early {
            // Keep the TID and the frozen serial position; re-execute.
            return CommitOutcome::Conflict {
                kept_tid: Some(tid),
            };
        }
        let home = match mode {
            CommitMode::Normal { home } => home,
            CommitMode::EarlyTid(_) => unreachable!(),
        };
        // Nothing was resolved or published under this TID: hand it
        // off gap-free, or skip it everywhere if the slot is taken.
        if state.vendor.recycle(home, tid) {
            state.stats.recycled.fetch_add(1);
        } else {
            state.stats.slot_exhausted.fetch_add(1);
            for shard in state.shards.iter() {
                shard.resolve(tid, &helper);
            }
        }
        return CommitOutcome::Conflict { kept_tid: None };
    }

    // Phase 4: ownership publication at serial position `tid`.
    if !tweaks.publish_before_serving {
        for w in writes {
            cells.publish(w.cell, tid);
        }
    }
    for w in writes {
        cells.clear_mark(w.cell, tid);
    }

    // Phase 5: Commit multicast to the footprint, Skip to the rest.
    for shard in state.shards.iter() {
        shard.resolve(tid, &helper);
    }
    state.stats.commits.fetch_add(1);
    if early {
        state.stats.early_commits.fetch_add(1);
    }
    CommitOutcome::Committed { tid }
}

/// Should a read of a cell marked by `marked_by` stall? True when the
/// marker holds the cell's home shard's serial position — publication
/// is imminent, and reading the doomed old version would only buy a
/// guaranteed conflict later. Purely an abort-rate optimization; reads
/// proceed after a bounded number of stalls regardless.
#[inline]
pub fn read_should_stall<S: Shim>(state: &CommitState<S>, shard: usize, marked_by: u64) -> bool {
    marked_by != TID_NONE && state.shards[shard].nstid() == marked_by
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shim::RealShim;

    type RState = CommitState<RealShim>;

    fn nohelp() -> NoHelp<RealShim> {
        NoHelp::default()
    }

    #[test]
    fn shard_resolves_in_order() {
        let sh: Shard<RealShim> = Shard::new();
        assert_eq!(sh.nstid(), 0);
        sh.resolve(0, &nohelp());
        assert_eq!(sh.nstid(), 1);
        sh.resolve(1, &nohelp());
        assert_eq!(sh.nstid(), 2);
    }

    #[test]
    fn shard_skip_vector_slides_over_out_of_order_resolutions() {
        let sh: Shard<RealShim> = Shard::new();
        sh.resolve(2, &nohelp());
        sh.resolve(1, &nohelp());
        assert_eq!(sh.nstid(), 0, "head still unresolved");
        sh.resolve(0, &nohelp());
        assert_eq!(sh.nstid(), 3, "slides over the whole resolved run");
        sh.resolve(4, &nohelp());
        sh.resolve(3, &nohelp());
        assert_eq!(sh.nstid(), 5);
    }

    #[test]
    fn shard_resolve_is_idempotent_below_nstid() {
        let sh: Shard<RealShim> = Shard::new();
        sh.resolve(0, &nohelp());
        sh.resolve(0, &nohelp());
        assert_eq!(sh.nstid(), 1);
    }

    #[test]
    fn shard_window_full_waits_for_head() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let sh: Shard<RealShim> = Shard::new();
        // Fill the whole window (TIDs 1..=24 with head 0 unresolved).
        for t in 1..=u64::from(SKIP_BITS) {
            sh.resolve(t, &nohelp());
        }
        struct ResolveHeadOnce<'a> {
            sh: &'a Shard<RealShim>,
            calls: AtomicU64,
        }
        impl HelpEnv for ResolveHeadOnce<'_> {
            fn stalled(&self, head: u64) {
                assert_eq!(head, 0);
                self.calls.fetch_add(1, Ordering::SeqCst);
                self.sh.resolve(0, &NoHelp::<RealShim>::default());
            }
        }
        let env = ResolveHeadOnce {
            sh: &sh,
            calls: AtomicU64::new(0),
        };
        // 25 is one past the window; resolving it must stall until the
        // head resolves, after which the window has slid to 25 exactly.
        sh.resolve(25, &env);
        assert_eq!(env.calls.load(Ordering::SeqCst), 1);
        assert_eq!(sh.nstid(), 26);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "resolved twice")]
    fn double_resolution_in_window_is_caught_in_debug() {
        let sh: Shard<RealShim> = Shard::new();
        sh.resolve(3, &nohelp());
        sh.resolve(3, &nohelp());
    }

    #[test]
    fn vendor_vends_sequentially_and_recycles() {
        let v: Vendor<RealShim> = Vendor::new(2);
        assert_eq!(v.acquire(0), 0);
        assert_eq!(v.acquire(1), 1);
        assert!(v.recycle(0, 0));
        // Handoff: same home gets the parked TID back.
        assert_eq!(v.acquire(0), 0);
        assert_eq!(v.acquire(0), 2);
        assert_eq!(v.issued(), 3);
    }

    #[test]
    fn vendor_slot_exhaustion_refuses_second_park() {
        let v: Vendor<RealShim> = Vendor::new(1);
        let a = v.acquire(0);
        let b = v.acquire(0);
        assert!(v.recycle(0, a));
        assert!(!v.recycle(0, b), "occupied slot must refuse the park");
    }

    #[test]
    fn vendor_claim_is_exclusive() {
        let v: Vendor<RealShim> = Vendor::new(4);
        let t = v.acquire(2);
        assert!(v.recycle(2, t));
        assert!(v.claim(t));
        assert!(!v.claim(t), "second claim must lose");
        assert!(!v.claim(99), "claiming an unparked TID fails");
    }

    #[test]
    #[should_panic(expected = "refusing to wrap")]
    fn vendor_refuses_to_wrap_past_max_tid() {
        let v: Vendor<RealShim> = Vendor::with_base(1, MAX_TID);
        let t = v.acquire(0);
        assert_eq!(t, MAX_TID);
        let _ = v.acquire(0);
    }

    /// Minimal real-shim cells for driving the commit path directly.
    struct TestCells {
        stamps: Vec<u64>,
    }
    impl TestCells {
        fn new(n: usize) -> Self {
            TestCells {
                stamps: vec![STAMP_INITIAL; n],
            }
        }
    }
    impl CellAccess for &mut TestCells {
        type Handle = usize;
        fn stamp(&self, h: usize) -> u64 {
            self.stamps[h]
        }
        fn set_mark(&self, _h: usize, _tid: u64) {}
        fn clear_mark(&self, _h: usize, _tid: u64) {}
        fn publish(&mut self, h: usize, tid: u64) {
            self.stamps[h] = stamp_of(tid);
        }
    }

    #[test]
    fn single_threaded_commit_chain() {
        let st = RState::new(4, 4);
        let mut cells = TestCells::new(2);
        // Blind write to cell 0 (shard 0).
        let out = commit(
            &st,
            &[],
            &[WriteEntry { cell: 0, shard: 0 }],
            &mut (&mut cells),
            CommitMode::Normal { home: 0 },
            &CommitTweaks::default(),
        );
        assert_eq!(out, CommitOutcome::Committed { tid: 0 });
        assert_eq!(cells.stamps[0], stamp_of(0));
        // Read it back + write cell 1 on another shard.
        let out = commit(
            &st,
            &[ReadEntry {
                cell: 0,
                shard: 0,
                stamp: stamp_of(0),
            }],
            &[WriteEntry { cell: 1, shard: 3 }],
            &mut (&mut cells),
            CommitMode::Normal { home: 0 },
            &CommitTweaks::default(),
        );
        assert_eq!(out, CommitOutcome::Committed { tid: 1 });
        // Every shard resolved both TIDs.
        for sh in st.shards.iter() {
            assert_eq!(sh.nstid(), 2);
        }
    }

    #[test]
    fn stale_read_conflicts_and_recycles_the_tid() {
        let st = RState::new(2, 2);
        let mut cells = TestCells::new(1);
        let _ = commit(
            &st,
            &[],
            &[WriteEntry { cell: 0, shard: 0 }],
            &mut (&mut cells),
            CommitMode::Normal { home: 0 },
            &CommitTweaks::default(),
        );
        // Claim to have observed the initial stamp: stale now.
        let out = commit(
            &st,
            &[ReadEntry {
                cell: 0,
                shard: 0,
                stamp: STAMP_INITIAL,
            }],
            &[],
            &mut (&mut cells),
            CommitMode::Normal { home: 0 },
            &CommitTweaks::default(),
        );
        assert_eq!(out, CommitOutcome::Conflict { kept_tid: None });
        assert_eq!(st.stats.conflicts.load(), 1);
        assert_eq!(st.stats.recycled.load(), 1);
        // The recycled TID comes back on the next acquire from home 0.
        assert_eq!(st.vendor.acquire(0), 1);
    }

    #[test]
    fn early_tid_mode_keeps_its_tid_across_conflicts() {
        let st = RState::new(2, 2);
        let mut cells = TestCells::new(1);
        let early = st.vendor.acquire(0);
        assert_eq!(early, 0);
        // A lower... no lower TID exists; make a conflicting commit
        // happen "during execution": another tx acquires TID 1 and
        // cannot commit past us — so instead simulate the conflict by
        // an initial-stamp mismatch after we ourselves publish under a
        // different pretend history. Simplest: claim a wrong stamp.
        let out = commit(
            &st,
            &[ReadEntry {
                cell: 0,
                shard: 0,
                stamp: 99, // wrong on purpose
            }],
            &[],
            &mut (&mut cells),
            CommitMode::EarlyTid(early),
            &CommitTweaks::default(),
        );
        assert_eq!(
            out,
            CommitOutcome::Conflict {
                kept_tid: Some(early)
            }
        );
        // Nothing resolved: every shard still waits on TID 0.
        for sh in st.shards.iter() {
            assert_eq!(sh.nstid(), 0);
        }
        // Retry with the right stamp commits and releases everything.
        let out = commit(
            &st,
            &[ReadEntry {
                cell: 0,
                shard: 0,
                stamp: STAMP_INITIAL,
            }],
            &[],
            &mut (&mut cells),
            CommitMode::EarlyTid(early),
            &CommitTweaks::default(),
        );
        assert_eq!(out, CommitOutcome::Committed { tid: early });
        assert_eq!(st.stats.early_commits.load(), 1);
        for sh in st.shards.iter() {
            assert_eq!(sh.nstid(), 1);
        }
    }

    #[test]
    fn helper_claims_a_parked_tid_instead_of_waiting_forever() {
        let st = RState::new(2, 2);
        // TID 0 parked in a slot (an abort that never touched shards).
        let t = st.vendor.acquire(0);
        assert!(st.vendor.recycle(0, t));
        // TID 1's commit must not wait on the parked 0: the helper
        // claims and skips it.
        let mut cells = TestCells::new(1);
        let out = commit(
            &st,
            &[],
            &[WriteEntry { cell: 0, shard: 1 }],
            &mut (&mut cells),
            CommitMode::Normal { home: 1 },
            &CommitTweaks::default(),
        );
        assert_eq!(out, CommitOutcome::Committed { tid: 1 });
        assert_eq!(st.stats.claimed.load(), 1);
        assert_eq!(st.shards[0].nstid(), 2);
        assert_eq!(st.shards[1].nstid(), 2);
    }

    #[test]
    fn read_stall_predicate() {
        let st = RState::new(2, 2);
        assert!(!read_should_stall(&st, 0, TID_NONE));
        assert!(read_should_stall(&st, 0, 0), "serving TID 0, marked by 0");
        assert!(!read_should_stall(&st, 0, 5), "marker far from serving");
    }
}
