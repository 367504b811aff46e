//! The user-facing STM: [`TVar`] cells, composable [`Tx`] read/write
//! sets, and the retry loop with starvation escalation.
//!
//! The surface is kcas-shaped — `stm.atomically(|tx| { let v =
//! tx.read(&a)?; tx.write(&b, v + 1)?; Ok(()) })` — but the commit path
//! underneath is the paper's non-blocking protocol
//! ([`crate::proto::commit`]) over [`RealShim`] atomics, which is what
//! buys the livelock-freedom guarantee classic obstruction-free kcas
//! designs lack: the transaction holding the lowest TID never waits on
//! anyone, and a starved transaction escalates to early-TID acquisition
//! ([`CommitMode::EarlyTid`]) after `starvation_threshold` failed
//! attempts, after which it commits within two more executions.
//!
//! Cells are version pointers: a committed write fills one
//! [`Version<T>`] node (stamp + value) and publishes it with a single
//! pointer swap — the software image of the paper's write-back commit
//! via ownership publication, where commit communicates *who owns the
//! line*, not the data. Displaced versions, and a cell whose last
//! [`TVar`] handle dropped, are reclaimed through [`crate::ebr`], which
//! keeps reclaimed nodes for the next writes: in steady state a
//! transaction takes its nodes from its pinned participant's spare
//! list and never calls the allocator. Reads
//! are invisible — a read writes no shared word, not even a reference
//! count, because the transaction's EBR pin alone keeps the cells it
//! holds raw pointers to allocated. Consistency during execution is
//! incremental revalidation (NOrec-style): every read re-checks the
//! stamps of all prior reads *after* loading the new value, so the
//! whole read set was simultaneously current at that load — the
//! transaction never observes a state no serial execution could produce
//! (opacity), which matters because user closures run on it.

use crate::ebr;
use crate::proto::{
    self, stamp_of, CellAccess, CommitMode, CommitOutcome, CommitState, CommitTweaks, ReadEntry,
    WriteEntry, STAMP_INITIAL, TID_NONE,
};
use crate::shim::{RealShim, Shim, ShimU64};
use std::alloc::Layout;
use std::cell::Cell;
use std::marker::PhantomData;
use std::ptr::{self, NonNull};
use std::sync::atomic::{fence, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use tcc_types::Tid;

// ---------------------------------------------------------------------
// Version nodes
// ---------------------------------------------------------------------

/// Type-erased header every committed version starts with. `#[repr(C)]`
/// so a `*mut VersionHdr` is also a pointer to the containing
/// [`Version<T>`]'s first field and the stamp can be read without
/// knowing `T`.
#[repr(C)]
struct VersionHdr {
    stamp: u64,
    /// The `Version<T>` block's layout and value drop, so the cell can
    /// be dropped and the node reclaimed or reused type-erased.
    kind: &'static ebr::BlockKind,
}

#[repr(C)]
struct Version<T> {
    hdr: VersionHdr,
    value: T,
}

/// # Safety
///
/// `p` must point at a live `Version<T>` whose value nobody uses
/// afterwards.
unsafe fn drop_version<T>(p: NonNull<u8>) {
    // SAFETY: the caller's contract; the header needs no drop.
    unsafe { ptr::drop_in_place(&raw mut (*p.cast::<Version<T>>().as_ptr()).value) };
}

/// The one [`ebr::BlockKind`] of `Version<T>`.
fn version_kind<T>() -> &'static ebr::BlockKind {
    const {
        &ebr::BlockKind {
            layout: Layout::new::<Version<T>>(),
            drop_contents: drop_version::<T>,
        }
    }
}

/// A fresh `Version<T>` in a block from `guard`'s participant: a
/// reclaimed one when it keeps one, else a new one. The caller owns
/// the node until it publishes it.
fn new_version<T>(guard: &ebr::Guard<'_>, stamp: u64, value: T) -> *mut VersionHdr {
    let kind = version_kind::<T>();
    let v = guard.alloc(kind.layout).cast::<Version<T>>().as_ptr();
    let hdr = VersionHdr { stamp, kind };
    // SAFETY: an unused block of `Version<T>`'s layout.
    unsafe { v.write(Version { hdr, value }) };
    v.cast()
}

// ---------------------------------------------------------------------
// Cells
// ---------------------------------------------------------------------

/// Type-erased cell state shared by all clones of a [`TVar`].
/// Transactions refer to it by raw pointer; see [`TVar`] for why that
/// is safe.
struct CellCore {
    /// Home directory shard (assigned round-robin at creation — the
    /// software image of address-interleaved directories).
    shard: usize,
    /// Write-intent mark: TID of a committer about to publish here, or
    /// [`TID_NONE`]. A hint only — see [`proto::read_should_stall`].
    mark: AtomicU64,
    /// The current committed version. Readers `Acquire`-load it (to see
    /// the version's contents), commit `AcqRel`-swaps it.
    current: AtomicPtr<VersionHdr>,
    /// Live [`TVar`] handles. Transactions hold no count.
    handles: AtomicUsize,
}

impl Drop for CellCore {
    fn drop(&mut self) {
        // Runs from EBR once no transaction can still hold the cell:
        // nobody can load `current` anymore, and all *previous*
        // versions were retired through EBR at publish time, so the
        // final version can be freed here.
        if let Some(p) = NonNull::new(*self.current.get_mut()) {
            // SAFETY: the cell's own node, reachable from nowhere else
            // now, allocated with the layout its kind records.
            unsafe { (*p.as_ptr()).kind.free(p.cast()) };
        }
    }
}

/// # Safety
///
/// `p` must be a `CellCore` that no handle or pinned transaction can
/// still reach, dropped exactly once.
unsafe fn drop_core(p: NonNull<u8>) {
    // SAFETY: the caller's contract.
    unsafe { ptr::drop_in_place(p.cast::<CellCore>().as_ptr()) };
}

/// Max spins a read stalls on a marked cell whose writer holds the
/// serial position (an abort-avoidance hint).
const READ_STALL_SPINS: u32 = 64;

/// A cell's block: leaked from a `Box` by [`Stm::new_tvar`], so
/// allocated with `CellCore`'s layout.
static CELL_KIND: ebr::BlockKind = ebr::BlockKind {
    layout: Layout::new::<CellCore>(),
    drop_contents: drop_core,
};

/// A transactional variable: a `T`-typed cell readable and writable
/// only inside [`Tx`] closures. Cloning is cheap (one counter bump) and
/// clones alias the same cell.
///
/// A transaction's read and write sets hold raw pointers to the cell,
/// not counted references, so the handle count can reach zero while a
/// pinned transaction still holds the cell. The last handle therefore
/// does not free the cell inline: it retires it through the collector,
/// which frees it only once every transaction pinned at that moment has
/// unpinned. A transaction can only have got the pointer from a live
/// handle, so it was pinned before the retirement.
pub struct TVar<T> {
    core: NonNull<CellCore>,
    /// Keeps the commit state and collector alive as long as any
    /// handle exists; also identifies the owning instance.
    stm: Arc<Inner>,
    _t: PhantomData<T>,
}

impl<T> TVar<T> {
    fn core(&self) -> &CellCore {
        // SAFETY: the cell is retired only when the handle count drops
        // to zero, and this handle still holds its count.
        unsafe { self.core.as_ref() }
    }
}

impl<T> Clone for TVar<T> {
    fn clone(&self) -> Self {
        // Relaxed, as for `Arc`: a new handle is made from an existing
        // one, which already keeps the cell alive.
        self.core().handles.fetch_add(1, Ordering::Relaxed);
        TVar {
            core: self.core,
            stm: Arc::clone(&self.stm),
            _t: PhantomData,
        }
    }
}

impl<T> Drop for TVar<T> {
    fn drop(&mut self) {
        // Release/Acquire, as for `Arc`: every handle's use of the cell
        // happens before the retirement.
        if self.core().handles.fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        fence(Ordering::Acquire);
        // No handle is left to reach the cell, so no later pin can load
        // it; transactions pinned now may still hold it.
        let guard = self.stm.collector.pin();
        // SAFETY: no handle remains, so no pin taken from now on can
        // reach the cell, and the count hit zero exactly once.
        unsafe { guard.defer(self.core.cast(), &CELL_KIND) };
    }
}

// SAFETY: values of `T` move between threads through the cell and
// `&T` is cloned concurrently, hence both bounds. `core` points at a
// cell whose shared fields are atomics and whose lifetime the handle
// count and the collector manage; `stm` is an `Arc` of `Sync` state.
unsafe impl<T: Send + Sync> Send for TVar<T> {}
unsafe impl<T: Send + Sync> Sync for TVar<T> {}

// ---------------------------------------------------------------------
// Errors, receipts, config, stats
// ---------------------------------------------------------------------

/// Why a transaction attempt failed (it will be retried).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxError {
    /// A concurrent commit invalidated something this attempt read.
    Conflict,
}

pub type TxResult<T> = Result<T, TxError>;

/// Where a [`Tx::read_versioned`] value came from — the differential
/// harness uses this to reconstruct reads-from edges for the
/// simulator's serializability checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOrigin {
    /// A committed version: `Some(tid)` of the committing transaction,
    /// or `None` for the initial value.
    Committed(Option<Tid>),
    /// The transaction's own buffered write.
    OwnWrite,
}

/// Proof of commit returned by [`Stm::run`].
#[derive(Debug, Clone, Copy)]
pub struct CommitReceipt {
    /// The gap-free TID this transaction committed at — its position
    /// in the global serial order.
    pub tid: Tid,
    /// Execution attempts it took (1 = first try).
    pub attempts: u32,
    /// Whether the commit ran in early-TID starvation mode.
    pub early: bool,
}

/// Construction parameters for [`Stm::with_config`].
#[derive(Debug, Clone, Copy)]
pub struct StmConfig {
    /// Directory shard count, `1..=`[`proto::MAX_SHARDS`].
    pub shards: usize,
    /// TID-vendor handoff slots (usually = shards).
    pub vendor_slots: usize,
    /// Failed attempts before a transaction escalates to early-TID
    /// acquisition (the paper's starvation defense).
    pub starvation_threshold: u32,
}

impl Default for StmConfig {
    fn default() -> Self {
        StmConfig {
            shards: 8,
            vendor_slots: 8,
            starvation_threshold: 4,
        }
    }
}

/// Monotonic counters snapshot from [`Stm::stats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StmStats {
    pub commits: u64,
    pub conflicts: u64,
    pub early_commits: u64,
    pub recycled_tids: u64,
    pub claimed_tids: u64,
    pub slot_exhausted: u64,
    /// TIDs handed out by the global sequencer so far.
    pub issued_tids: u64,
}

// ---------------------------------------------------------------------
// Stm
// ---------------------------------------------------------------------

struct Inner {
    state: CommitState<RealShim>,
    collector: ebr::Collector,
    config: StmConfig,
    next_cell: AtomicUsize,
}

/// A software transactional memory instance: a TID vendor, a set of
/// directory shards, and an epoch collector. Cheap to clone (`Arc`).
#[derive(Clone)]
pub struct Stm {
    inner: Arc<Inner>,
}

impl Default for Stm {
    fn default() -> Self {
        Stm::new()
    }
}

/// Stable small integer for the calling thread, used as the vendor
/// handoff home so recycled TIDs stay local.
fn thread_home() -> usize {
    static NEXT_HOME: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static HOME: usize = NEXT_HOME.fetch_add(1, Ordering::Relaxed);
    }
    HOME.with(|h| *h)
}

impl Stm {
    #[must_use]
    pub fn new() -> Self {
        Stm::with_config(StmConfig::default())
    }

    /// # Panics
    ///
    /// Panics if the shard count is outside `1..=`[`proto::MAX_SHARDS`]
    /// or `vendor_slots` is zero.
    #[must_use]
    pub fn with_config(config: StmConfig) -> Self {
        Stm {
            inner: Arc::new(Inner {
                state: CommitState::new(config.shards, config.vendor_slots),
                collector: ebr::Collector::new(),
                config,
                next_cell: AtomicUsize::new(0),
            }),
        }
    }

    /// Creates a cell holding `init`. Cells are assigned to directory
    /// shards round-robin.
    pub fn new_tvar<T: Clone + Send + Sync + 'static>(&self, init: T) -> TVar<T> {
        let idx = self.inner.next_cell.fetch_add(1, Ordering::Relaxed);
        let first = new_version(&self.inner.collector.pin(), STAMP_INITIAL, init);
        let core = Box::new(CellCore {
            shard: idx % self.inner.config.shards,
            mark: AtomicU64::new(TID_NONE),
            current: AtomicPtr::new(first),
            handles: AtomicUsize::new(1),
        });
        TVar {
            core: NonNull::from(Box::leak(core)),
            stm: Arc::clone(&self.inner),
            _t: PhantomData,
        }
    }

    /// Runs `f` transactionally until it commits, returning its result
    /// plus the [`CommitReceipt`].
    ///
    /// `f` may be re-executed any number of times; side effects other
    /// than `tx` operations must be idempotent. If `f` panics, the
    /// panic propagates and the instance stays live: a starvation-mode
    /// early TID held at that point is resolved at every shard on
    /// unwind (see `EarlyTidGuard`), so other threads keep
    /// committing.
    pub fn run<R>(&self, mut f: impl FnMut(&mut Tx<'_>) -> TxResult<R>) -> (R, CommitReceipt) {
        let inner = &*self.inner;
        let home = thread_home();
        let mut attempts: u32 = 0;
        let mut early = EarlyTidGuard { inner, tid: None };
        loop {
            attempts += 1;
            if early.tid.is_none() && attempts > inner.config.starvation_threshold {
                // Starvation escalation: take the TID *before*
                // re-executing. Until we commit, no shard's NSTID can
                // pass it, so the state we re-read stabilizes and the
                // next validation is conflict-free.
                early.tid = Some(inner.state.vendor.acquire(home));
            }
            let mut tx = Tx::new(inner);
            match f(&mut tx) {
                Ok(r) => {
                    let was_early = early.tid.is_some();
                    let mode = match early.tid {
                        Some(t) => CommitMode::EarlyTid(t),
                        None => CommitMode::Normal { home },
                    };
                    match tx.commit(mode) {
                        CommitOutcome::Committed { tid } => {
                            // The commit resolved the TID everywhere;
                            // disarm the guard before returning.
                            early.tid = None;
                            return (
                                r,
                                CommitReceipt {
                                    tid: Tid(tid),
                                    attempts,
                                    early: was_early,
                                },
                            );
                        }
                        CommitOutcome::Conflict { kept_tid } => {
                            early.tid = kept_tid;
                        }
                    }
                }
                // Execution-time validation failure; an early TID (if
                // held) is kept — nothing was resolved under it.
                Err(TxError::Conflict) => {}
            }
            backoff(attempts);
        }
    }

    /// [`Stm::run`] without the receipt.
    pub fn atomically<R>(&self, f: impl FnMut(&mut Tx<'_>) -> TxResult<R>) -> R {
        self.run(f).0
    }

    pub fn stats(&self) -> StmStats {
        let s = &self.inner.state.stats;
        StmStats {
            commits: s.commits.load(),
            conflicts: s.conflicts.load(),
            early_commits: s.early_commits.load(),
            recycled_tids: s.recycled.load(),
            claimed_tids: s.claimed.load(),
            slot_exhausted: s.slot_exhausted.load(),
            issued_tids: self.inner.state.vendor.issued(),
        }
    }

    /// Protocol frontier: `(tids_issued, per-shard NSTID)`. At
    /// quiescence after a final commit, every shard's NSTID equals the
    /// issued count — the observable form of gap-freedom (no TID was
    /// ever lost; every one was resolved at every shard).
    pub fn frontier(&self) -> (u64, Vec<u64>) {
        (
            self.inner.state.vendor.issued(),
            self.inner.state.shards.iter().map(|s| s.nstid()).collect(),
        )
    }

    pub fn config(&self) -> StmConfig {
        self.inner.config
    }
}

/// Owns a starvation-mode early TID across re-executions of the user
/// closure in [`Stm::run`]. A gap in the TID sequence is fatal to the
/// whole instance — no shard can ever serve past an unresolved TID —
/// and user closures may panic (asserts, slice indexing are ordinary
/// Rust). If the closure unwinds while a TID is held, the TID has
/// touched no shard state (an early TID resolves nothing until its
/// commit succeeds), so this guard's `Drop` resolves it at every shard
/// and lets the panic propagate against a still-live instance. The run
/// loop disarms the guard (`tid = None`) once a commit has resolved
/// the TID itself.
struct EarlyTidGuard<'s> {
    inner: &'s Inner,
    tid: Option<u64>,
}

impl Drop for EarlyTidGuard<'_> {
    fn drop(&mut self) {
        if let Some(tid) = self.tid {
            let helper = self.inner.state.helper();
            for shard in self.inner.state.shards.iter() {
                shard.resolve(tid, &helper);
            }
        }
    }
}

fn backoff(attempts: u32) {
    // Yield-heavy: on an overcommitted host the conflicting committer
    // needs our quantum more than we need to spin.
    for _ in 0..(1u32 << attempts.min(4)) {
        std::thread::yield_now();
    }
}

// ---------------------------------------------------------------------
// Tx
// ---------------------------------------------------------------------

/// A transaction's handle on one cell: the cell, plus — in the write
/// set — the prepared version node commit will publish (null in the
/// read set). The read and write sets are arrays of
/// [`ReadEntry`]/[`WriteEntry`] over it, handed to [`proto::commit`]
/// as they are.
#[derive(Clone, Copy)]
struct CellRef {
    core: *const CellCore,
    /// Owned by the Tx until published (its stamp still
    /// [`STAMP_INITIAL`]), then owned by the cell.
    prepared: *mut VersionHdr,
}

impl CellRef {
    fn core(&self) -> &CellCore {
        // SAFETY: `CellRef`s live only in a transaction's sets; the
        // transaction took the pointer from a live handle while pinned
        // and stays pinned, so the cell is not freed (see `TVar`).
        unsafe { &*self.core }
    }
}

/// A read set and a write set. Each thread keeps one pair of buffers
/// and lends it to its transactions in turn, so in steady state an
/// attempt allocates nothing: its version nodes come from the
/// collector's spare list too.
#[derive(Default)]
struct TxSets {
    reads: Vec<ReadEntry<CellRef>>,
    writes: Vec<WriteEntry<CellRef>>,
}

thread_local! {
    /// This thread's idle buffers. A transaction started inside
    /// another's closure finds it empty and grows buffers of its own.
    static SETS: Cell<TxSets> = Cell::new(TxSets::default());
}

impl TxSets {
    fn take() -> Self {
        SETS.try_with(Cell::take).unwrap_or_default()
    }

    fn give_back(mut self) {
        self.reads.clear();
        self.writes.clear();
        let _ = SETS.try_with(|s| s.set(self));
    }
}

/// One transaction attempt: invisible-read read set + buffered write
/// set, pinned for its whole lifetime so version loads stay safe.
pub struct Tx<'s> {
    stm: &'s Inner,
    guard: ebr::Guard<'s>,
    sets: TxSets,
}

impl<'s> Tx<'s> {
    fn new(stm: &'s Inner) -> Self {
        Tx {
            stm,
            guard: stm.collector.pin(),
            sets: TxSets::take(),
        }
    }

    fn check_same_stm<T>(&self, v: &TVar<T>) {
        assert!(
            std::ptr::eq(Arc::as_ptr(&v.stm), self.stm),
            "TVar used with a different Stm instance"
        );
    }

    /// Re-checks that every recorded read still carries the stamp we
    /// observed. Called after each new read's value load: passing means
    /// the entire read set (including the value just loaded) was
    /// simultaneously current at that load instant.
    fn validate_reads(&self) -> TxResult<()> {
        for r in &self.sets.reads {
            let p = r.cell.core().current.load(Ordering::Acquire);
            if unsafe { (*p).stamp } != r.stamp {
                return Err(TxError::Conflict);
            }
        }
        Ok(())
    }

    /// Reads `v`, also reporting where the value came from.
    pub fn read_versioned<T: Clone + Send + Sync + 'static>(
        &mut self,
        v: &TVar<T>,
    ) -> TxResult<(T, ReadOrigin)> {
        self.check_same_stm(v);
        let core = v.core();
        let ptr: *const CellCore = core;

        // Read-your-own-write.
        if let Some(w) = self.sets.writes.iter().find(|w| w.cell.core == ptr) {
            // SAFETY: our unpublished node, made by `write` for this
            // cell and so for this `T`.
            let value = unsafe { (*w.cell.prepared.cast::<Version<T>>()).value.clone() };
            return Ok((value, ReadOrigin::OwnWrite));
        }

        // Mark stall: if a committer has marked this cell and already
        // holds the cell's serial position, its publication is
        // imminent — reading the doomed version would only manufacture
        // a conflict. Bounded, so it can never become a wait-for edge.
        let mut spins = 0;
        while spins < READ_STALL_SPINS {
            let m = core.mark.load(Ordering::SeqCst);
            if !proto::read_should_stall(&self.stm.state, core.shard, m) {
                break;
            }
            spins += 1;
            RealShim::pause();
        }

        let p = core.current.load(Ordering::Acquire);
        let (stamp, value) = unsafe { ((*p).stamp, (*p.cast::<Version<T>>()).value.clone()) };
        // Opacity: the whole read set must be current at the instant
        // `p` was loaded.
        self.validate_reads()?;

        let origin = if stamp == STAMP_INITIAL {
            ReadOrigin::Committed(None)
        } else {
            ReadOrigin::Committed(Some(Tid(stamp - 1)))
        };
        if !self.sets.reads.iter().any(|r| r.cell.core == ptr) {
            self.sets.reads.push(ReadEntry {
                cell: CellRef {
                    core: ptr,
                    prepared: std::ptr::null_mut(),
                },
                shard: core.shard,
                stamp,
            });
        }
        Ok((value, origin))
    }

    /// Reads `v`'s current value into the transaction's read set.
    pub fn read<T: Clone + Send + Sync + 'static>(&mut self, v: &TVar<T>) -> TxResult<T> {
        self.read_versioned(v).map(|(value, _)| value)
    }

    /// Buffers a write of `value` to `v` (visible to this transaction's
    /// subsequent reads, published only at commit).
    pub fn write<T: Clone + Send + Sync + 'static>(
        &mut self,
        v: &TVar<T>,
        value: T,
    ) -> TxResult<()> {
        self.check_same_stm(v);
        let core = v.core();
        let ptr: *const CellCore = core;
        if let Some(w) = self.sets.writes.iter().find(|w| w.cell.core == ptr) {
            // Overwrite: replace the prepared node's value in place.
            // SAFETY: our unpublished node for this cell, so of this `T`.
            unsafe { (*w.cell.prepared.cast::<Version<T>>()).value = value };
            return Ok(());
        }
        self.sets.writes.push(WriteEntry {
            cell: CellRef {
                core: ptr,
                prepared: new_version(&self.guard, STAMP_INITIAL, value),
            },
            shard: core.shard,
        });
        Ok(())
    }

    /// Number of distinct cells read / written so far.
    pub fn footprint(&self) -> (usize, usize) {
        (self.sets.reads.len(), self.sets.writes.len())
    }

    fn commit(self, mode: CommitMode) -> CommitOutcome {
        proto::commit::<RealShim, _>(
            &self.stm.state,
            &self.sets.reads,
            &self.sets.writes,
            &mut TxCells { guard: &self.guard },
            mode,
            &CommitTweaks::default(),
        )
        // Tx drops here: unpublished prepared nodes are recycled by the
        // Drop impl, the pin is released.
    }
}

impl Drop for Tx<'_> {
    fn drop(&mut self) {
        for w in &self.sets.writes {
            let node = w.cell.prepared;
            // Publishing stamps a node with `stamp_of(tid) > 0` before
            // handing it to the cell; one still at `STAMP_INITIAL` is
            // ours.
            // SAFETY: a published node may since have been displaced
            // and retired, but not freed: our pin is still held (the
            // guard field drops after this body). Nobody writes a
            // node's stamp after publication.
            if unsafe { (*node).stamp } == STAMP_INITIAL {
                // SAFETY: never published, so never shared; recycled
                // once, under the pin that allocated it.
                unsafe {
                    self.guard
                        .recycle(NonNull::new_unchecked(node).cast(), (*node).kind);
                }
            }
        }
        std::mem::take(&mut self.sets).give_back();
    }
}

/// [`CellAccess`] over a real transaction's cells.
struct TxCells<'t> {
    guard: &'t ebr::Guard<'t>,
}

impl CellAccess for TxCells<'_> {
    type Handle = CellRef;

    fn stamp(&self, h: CellRef) -> u64 {
        let p = h.core().current.load(Ordering::Acquire);
        unsafe { (*p).stamp }
    }

    fn set_mark(&self, h: CellRef, tid: u64) {
        h.core().mark.store(tid, Ordering::SeqCst);
    }

    fn clear_mark(&self, h: CellRef, tid: u64) {
        // CAS so we never erase a mark a later committer overwrote.
        let _ = h
            .core()
            .mark
            .compare_exchange(tid, TID_NONE, Ordering::SeqCst, Ordering::SeqCst);
    }

    fn publish(&mut self, h: CellRef, tid: u64) {
        // Stamp first (Release on the swap makes it visible with the
        // pointer), then ownership publication: one swap installs the
        // whole version.
        // SAFETY: `h` is a write-set entry, so `prepared` is our node
        // and not yet shared.
        unsafe { (*h.prepared).stamp = stamp_of(tid) };
        let old = h.core().current.swap(h.prepared, Ordering::AcqRel);
        // The displaced version may still be under a concurrent
        // reader's pin; EBR decides when it is really dead.
        // SAFETY: `old` was the cell's current node, so live and
        // allocated with its kind's layout; the swap unlinked it, and
        // only this swap got it back.
        unsafe {
            self.guard
                .defer(NonNull::new_unchecked(old).cast(), (*old).kind);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_threaded_read_write_commit() {
        let stm = Stm::new();
        let a = stm.new_tvar(10u64);
        let b = stm.new_tvar(0u64);
        let (sum, receipt) = stm.run(|tx| {
            let va = tx.read(&a)?;
            tx.write(&b, va + 5)?;
            tx.read(&b).map(|vb| va + vb)
        });
        assert_eq!(sum, 25, "read-your-own-write");
        assert_eq!(receipt.tid, Tid(0));
        assert_eq!(receipt.attempts, 1);
        assert!(!receipt.early);
        assert_eq!(stm.atomically(|tx| tx.read(&b)), 15);
    }

    #[test]
    fn read_origin_tracks_writer_tid() {
        let stm = Stm::new();
        let a = stm.new_tvar(1u32);
        let ((_, o0), _) = stm.run(|tx| tx.read_versioned(&a));
        assert_eq!(o0, ReadOrigin::Committed(None), "initial version");
        let (_, r1) = stm.run(|tx| tx.write(&a, 2));
        let ((v, o2), _) = stm.run(|tx| tx.read_versioned(&a));
        assert_eq!(v, 2);
        assert_eq!(o2, ReadOrigin::Committed(Some(r1.tid)));
        let ((v, o3), _) = stm.run(|tx| {
            tx.write(&a, 9)?;
            tx.read_versioned(&a)
        });
        assert_eq!((v, o3), (9, ReadOrigin::OwnWrite));
    }

    #[test]
    fn overwrite_in_same_tx_keeps_last_value() {
        let stm = Stm::new();
        let a = stm.new_tvar(String::from("x"));
        stm.atomically(|tx| {
            tx.write(&a, String::from("first"))?;
            tx.write(&a, String::from("second"))?;
            Ok(())
        });
        assert_eq!(stm.atomically(|tx| tx.read(&a)), "second");
    }

    #[test]
    fn frontier_shows_gap_free_resolution() {
        let stm = Stm::with_config(StmConfig {
            shards: 3,
            ..StmConfig::default()
        });
        let a = stm.new_tvar(0u64);
        for i in 0..10 {
            stm.atomically(|tx| tx.write(&a, i));
        }
        let (issued, nstids) = stm.frontier();
        assert_eq!(issued, 10);
        assert_eq!(nstids, vec![10, 10, 10], "every TID resolved everywhere");
    }

    #[test]
    fn drops_do_not_leak_or_double_free() {
        // Exercised under the full test suite's allocator; the
        // structure here is the hazard: unpublished prepared nodes,
        // published chains, live TVar clones outliving the Stm handle.
        let stm = Stm::new();
        let a = stm.new_tvar(vec![1u8, 2, 3]);
        let a2 = a.clone();
        stm.atomically(|tx| tx.write(&a, vec![9]));
        drop(stm);
        drop(a);
        drop(a2);
    }

    /// Counts drops of the instances stored in version nodes; the
    /// clones reads hand out are not counted.
    struct Canary {
        drops: Arc<AtomicUsize>,
        stored: bool,
    }

    impl Canary {
        fn stored(drops: &Arc<AtomicUsize>) -> Self {
            Canary {
                drops: Arc::clone(drops),
                stored: true,
            }
        }
    }

    impl Clone for Canary {
        fn clone(&self) -> Self {
            Canary {
                drops: Arc::clone(&self.drops),
                stored: false,
            }
        }
    }

    impl Drop for Canary {
        fn drop(&mut self) {
            if self.stored {
                self.drops.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    /// The last handle of a cell the transaction read and wrote drops
    /// inside the transaction. The cell must outlive the pin, and the
    /// commit still validates and publishes into it.
    #[test]
    fn last_handle_dropped_inside_a_transaction_outlives_the_pin() {
        let drops = Arc::new(AtomicUsize::new(0));
        let stm = Stm::new();
        let mut handle = Some(stm.new_tvar(Canary::stored(&drops)));
        let (_, receipt) = stm.run(|tx| {
            let a = handle.take().expect("nothing conflicts: one attempt");
            tx.read(&a)?;
            tx.write(&a, Canary::stored(&drops))?;
            drop(a);
            assert_eq!(drops.load(Ordering::SeqCst), 0, "freed under the pin");
            Ok(())
        });
        assert_eq!(receipt.attempts, 1);
        assert_eq!(stm.stats().commits, 1);
        assert_eq!(stm.frontier().1, vec![1; 8], "TID resolved everywhere");
        drop(stm);
        // The displaced initial version and the published one, each
        // freed exactly once.
        assert_eq!(drops.load(Ordering::SeqCst), 2);
    }

    /// As above, but a second thread drops the last handle — and then
    /// commits enough to push the collector's epoch — while the first
    /// thread's transaction is still pinned holding the cell.
    #[test]
    fn last_handle_dropped_by_another_thread_outlives_the_pin() {
        let drops = Arc::new(AtomicUsize::new(0));
        let stm = Stm::new();
        let churn = stm.new_tvar(0u64);
        let a = stm.new_tvar(Canary::stored(&drops));
        let mut theirs = Some(a.clone());
        let mut mine = Some(a);
        std::thread::scope(|s| {
            let (_, receipt) = stm.run(|tx| {
                let a = mine.take().expect("nothing conflicts: one attempt");
                tx.read(&a)?;
                tx.write(&a, Canary::stored(&drops))?;
                drop(a);
                let last = theirs.take().expect("one attempt");
                let (stm, churn) = (&stm, &churn);
                s.spawn(move || {
                    drop(last);
                    for i in 0..1_000 {
                        stm.atomically(|tx| tx.write(churn, i));
                    }
                })
                .join()
                .unwrap();
                assert_eq!(drops.load(Ordering::SeqCst), 0, "freed under the pin");
                Ok(())
            });
            assert_eq!(receipt.attempts, 1);
            assert_eq!(receipt.tid, Tid(1_000), "serialized after the churn");
        });
        assert_eq!(stm.stats().commits, 1_001);
        drop((stm, churn));
        assert_eq!(drops.load(Ordering::SeqCst), 2);
    }

    #[test]
    #[should_panic(expected = "different Stm instance")]
    fn cross_instance_tvar_is_rejected() {
        let stm1 = Stm::new();
        let stm2 = Stm::new();
        let foreign = stm2.new_tvar(0u8);
        stm1.atomically(|tx| tx.read(&foreign));
    }

    /// Regression: a user closure that panics while the transaction
    /// holds a starvation-mode early TID must not strand it — a
    /// stranded TID freezes every shard's NSTID and deadlocks the whole
    /// instance for every other thread, forever.
    #[test]
    fn panic_in_starvation_mode_does_not_strand_the_early_tid() {
        let stm = Stm::with_config(StmConfig {
            starvation_threshold: 1,
            ..StmConfig::default()
        });
        let a = stm.new_tvar(0u64);
        let mut calls = 0u32;
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            stm.run(|tx| -> TxResult<()> {
                tx.read(&a)?;
                calls += 1;
                if calls == 1 {
                    // Fail the first attempt so the retry escalates to
                    // early-TID acquisition...
                    return Err(TxError::Conflict);
                }
                // ...and blow up while holding it.
                panic!("user closure panicked in starvation mode");
            })
        }));
        assert!(unwound.is_err());
        assert_eq!(calls, 2, "the panic fired on the escalated attempt");

        // The unwind resolved the early TID everywhere: later
        // transactions still commit and the frontier stays gap-free.
        let (_, receipt) = stm.run(|tx| {
            let v = tx.read(&a)?;
            tx.write(&a, v + 1)
        });
        assert!(!receipt.early);
        assert_eq!(stm.atomically(|tx| tx.read(&a)), 1);
        let (issued, nstids) = stm.frontier();
        assert_eq!(issued, 3, "panicked TID + two commits");
        assert!(
            nstids.iter().all(|&n| n == issued),
            "every TID resolved at every shard: {nstids:?}"
        );
    }

    #[test]
    fn two_thread_counter_smoke() {
        let stm = Stm::new();
        let c = stm.new_tvar(0u64);
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let stm = stm.clone();
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        stm.atomically(|tx| {
                            let v = tx.read(&c)?;
                            tx.write(&c, v + 1)
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(stm.atomically(|tx| tx.read(&c)), 200);
        assert!(stm.stats().commits >= 200);
    }
}
