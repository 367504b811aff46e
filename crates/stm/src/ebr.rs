//! Hand-rolled epoch-based reclamation for version nodes.
//!
//! Commit publishes a write by swapping a cell's version pointer
//! ([`Stm`](crate::Stm)); the displaced version may still be in use by a
//! concurrent reader that loaded the pointer a moment earlier, so it
//! cannot be freed inline. This is the classic three-epoch scheme
//! (Fraser's EBR, the same shape as `crossbeam-epoch`, hand-rolled here
//! because the workspace is hermetic):
//!
//! * A global epoch counter advances only when every *pinned*
//!   participant has observed the current value.
//! * A thread [`pin`](Collector::pin)s before dereferencing any version
//!   pointer and stays pinned for the whole transaction; retired
//!   garbage is stamped with the **global** epoch at retirement time
//!   (not the retiring thread's pinned epoch, which may lag the global
//!   by one — see [`Guard::defer`]).
//! * Garbage stamped `e` is freed once the global epoch reaches `e + 2`:
//!   any reader still holding the pointer pinned before the unlink, so
//!   at an epoch `≤ e`, and a participant pinned at `e' < e + 1` blocks
//!   every advance toward `e + 2` — by the time the global gets there,
//!   all such readers have unpinned.
//!
//! Three bags per participant, indexed `epoch % 3`, make the stamp
//! check implicit: when a bag is reused at epoch `e` its previous
//! contents are from some `e' ≤ e - 3`, which is always safely
//! reclaimable. Participants are acquired per-pin from a lock-free
//! (Treiber) registry with an ownership CAS. A pin first tries the
//! participant the calling thread used last (a thread-local hint), so
//! in steady state each thread keeps touching its own participant's
//! line and never another thread's. The hint is keyed by a collector id
//! that is never reused, so a hint left over from a dropped collector
//! matches no live one and its dangling pointer is never followed.
//!
//! Reclamation recycles. A retired block is described by a
//! [`BlockKind`] (its layout and how to drop what it holds), and when
//! its bag drains the collector drops the contents in place and keeps
//! the block on the draining participant's spare list instead of
//! returning it to the allocator. [`Guard::alloc`] takes a block of the
//! same layout from that list before it calls the allocator, so a
//! thread that allocates about as many blocks as it retires — a
//! committer, whose every publication displaces one version — stops
//! calling the allocator at all. A block is reused exactly where it
//! would have been freed, and a spare list, like the bags, is touched
//! only by the thread that owns its participant.

use std::alloc::{self, Layout};
use std::cell::{Cell, UnsafeCell};
use std::ptr::NonNull;
use std::sync::atomic::{
    AtomicBool, AtomicPtr, AtomicU64,
    Ordering::{Relaxed, SeqCst},
};

/// Retired garbage: drain a bag this many items deep tries to advance
/// the global epoch so the bag can empty soon.
const ADVANCE_THRESHOLD: usize = 64;

/// Spare blocks a participant keeps per layout; a drained block beyond
/// this goes back to the allocator.
const SPARE_CAP: usize = 1024;

/// What the collector needs to know about a kind of heap block: how it
/// was allocated and how to drop what it holds. One `'static` table per
/// stored type, so a block can carry a pointer to it and be reclaimed
/// without knowing the type.
pub struct BlockKind {
    /// The layout the block was allocated with by the global allocator.
    pub layout: Layout,
    /// Drops the block's contents in place and leaves the block
    /// allocated.
    pub drop_contents: unsafe fn(NonNull<u8>),
}

impl BlockKind {
    /// Drops `p`'s contents and returns the block to the allocator.
    ///
    /// # Safety
    ///
    /// `p` must be a live block of this kind, allocated by the global
    /// allocator with `self.layout`, that nobody uses afterwards.
    pub unsafe fn free(&self, p: NonNull<u8>) {
        // SAFETY: the caller's contract.
        unsafe {
            (self.drop_contents)(p);
            alloc::dealloc(p.as_ptr(), self.layout);
        }
    }
}

/// One deferred reclamation.
struct Garbage {
    ptr: NonNull<u8>,
    kind: &'static BlockKind,
}

// Garbage travels from the retiring thread's stack into a bag that a
// different thread (the collector's dropper) may drain.
unsafe impl Send for Garbage {}

struct Bag {
    /// Epoch at which the current contents were retired.
    epoch: u64,
    items: Vec<Garbage>,
}

/// Empty blocks of one layout, kept for reuse.
struct SpareBucket {
    layout: Layout,
    /// Reserved at [`SPARE_CAP`] when the bucket is made, so keeping a
    /// block never allocates.
    blocks: Vec<NonNull<u8>>,
}

/// A participant's blocks: the three epoch bags and the spare list
/// their drained blocks go to, a bucket per layout.
struct Local {
    bags: [Bag; 3],
    spares: Vec<SpareBucket>,
}

impl Local {
    /// Keeps the empty block `p` of `layout` for reuse, or frees it if
    /// its bucket is full.
    ///
    /// # Safety
    ///
    /// `p` must be allocated by the global allocator with `layout`,
    /// hold no live value, and be unreachable by any other thread.
    unsafe fn keep(&mut self, p: NonNull<u8>, layout: Layout) {
        let i = match self.spares.iter().position(|b| b.layout == layout) {
            Some(i) => i,
            None => {
                self.spares.push(SpareBucket {
                    layout,
                    blocks: Vec::with_capacity(SPARE_CAP),
                });
                self.spares.len() - 1
            }
        };
        let bucket = &mut self.spares[i];
        if bucket.blocks.len() < SPARE_CAP {
            bucket.blocks.push(p);
        } else {
            // SAFETY: the caller's contract.
            unsafe { alloc::dealloc(p.as_ptr(), layout) };
        }
    }

    /// Reclaims every item of bag `i`: drops its contents and keeps
    /// the block.
    fn drain(&mut self, i: usize) {
        let mut items = std::mem::take(&mut self.bags[i].items);
        for g in items.drain(..) {
            // SAFETY: a bag holds only blocks whose `defer` contract
            // made them unreachable, and it drains once no pin that
            // could still hold them remains.
            unsafe {
                (g.kind.drop_contents)(g.ptr);
                self.keep(g.ptr, g.kind.layout);
            }
        }
        // Hand the emptied buffer back, so the bag keeps its capacity.
        self.bags[i].items = items;
    }

    /// Returns every spare block to the allocator.
    fn free_spares(&mut self) {
        for bucket in self.spares.drain(..) {
            for p in bucket.blocks {
                // SAFETY: kept by `keep`, whose contract says `p` was
                // allocated with this layout and holds nothing.
                unsafe { alloc::dealloc(p.as_ptr(), bucket.layout) };
            }
        }
    }
}

/// One pinning slot. Aligned to a cache line of its own: its owner
/// writes `active` on every pin and unpin.
#[repr(align(128))]
struct Participant {
    /// `0` = quiescent; otherwise `(epoch << 1) | 1`.
    active: AtomicU64,
    /// Ownership flag: a pin CASes this `false → true` to claim the
    /// slot, so `local` is only ever touched by one thread at a time.
    owned: AtomicBool,
    next: *mut Participant,
    local: UnsafeCell<Local>,
}

/// Source of [`Collector`] ids; starts at 1 so the empty hint (id 0)
/// matches no collector.
static NEXT_COLLECTOR_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(collector id, participant)` this thread pinned with last.
    static HINT: Cell<(u64, *mut Participant)> =
        const { Cell::new((0, std::ptr::null_mut())) };
}

/// The collector one [`crate::Stm`] instance owns. Aligned to a cache
/// line of its own: every pin reads `global`, and no unrelated write
/// may evict it.
#[repr(align(128))]
pub struct Collector {
    global: AtomicU64,
    head: AtomicPtr<Participant>,
    /// Never reused, so it can key the thread-local participant hint.
    id: u64,
}

// `head` chains heap nodes only this collector frees; all cross-thread
// state in a node is atomic, and `local` is guarded by `owned`.
unsafe impl Send for Collector {}
unsafe impl Sync for Collector {}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

impl Collector {
    #[must_use]
    pub fn new() -> Self {
        Collector {
            global: AtomicU64::new(0),
            head: AtomicPtr::new(std::ptr::null_mut()),
            id: NEXT_COLLECTOR_ID.fetch_add(1, Relaxed),
        }
    }

    /// Current global epoch (test/introspection hook).
    pub fn epoch(&self) -> u64 {
        self.global.load(SeqCst)
    }

    /// Pins the calling thread: until the returned [`Guard`] drops,
    /// the global epoch can advance at most once, so any version
    /// pointer loaded under the guard stays allocated.
    pub fn pin(&self) -> Guard<'_> {
        let part = self.acquire_participant();
        let p = unsafe { &*part };
        let mut e = self.global.load(SeqCst);
        // Publish our epoch, then re-check: if the global moved while
        // we were publishing, chase it so an advancer never observes us
        // pinned more than one epoch behind.
        loop {
            p.active.store((e << 1) | 1, SeqCst);
            let now = self.global.load(SeqCst);
            if now == e {
                break;
            }
            e = now;
        }
        // Opportunistically drain any of our bags whose contents are
        // already two epochs stale.
        let local = unsafe { &mut *p.local.get() };
        for i in 0..3 {
            let bag = &local.bags[i];
            if !bag.items.is_empty() && e >= bag.epoch + 2 {
                local.drain(i);
            }
        }
        Guard {
            collector: self,
            part,
        }
    }

    fn acquire_participant(&self) -> *mut Participant {
        // Affinity: the participant this thread pinned with last.
        let (id, hint) = HINT
            .try_with(Cell::get)
            .unwrap_or((0, std::ptr::null_mut()));
        // SAFETY: participants live until their collector drops, and
        // the id match (ids are never reused) means `hint` is one of
        // `self`'s.
        if id == self.id && unsafe { Self::try_own(hint) } {
            return hint;
        }
        let p = self.scan_or_register();
        let _ = HINT.try_with(|h| h.set((self.id, p)));
        p
    }

    /// Claims `p` if no pin holds it.
    ///
    /// # Safety
    ///
    /// `p` must be a participant of a collector that is still alive.
    unsafe fn try_own(p: *mut Participant) -> bool {
        // SAFETY: the caller's contract.
        unsafe { &*p }
            .owned
            .compare_exchange(false, true, SeqCst, SeqCst)
            .is_ok()
    }

    fn scan_or_register(&self) -> *mut Participant {
        // Reuse a released slot if one exists.
        let mut p = self.head.load(SeqCst);
        while !p.is_null() {
            // SAFETY: a node of `self`'s registry, live as long as
            // `self`.
            if unsafe { Self::try_own(p) } {
                return p;
            }
            // SAFETY: as above.
            p = unsafe { (*p).next };
        }
        // Register a fresh one (never unregistered before collector
        // drop; participant count is bounded by peak pin concurrency).
        let make_bag = || Bag {
            epoch: 0,
            items: Vec::new(),
        };
        let node = Box::into_raw(Box::new(Participant {
            active: AtomicU64::new(0),
            owned: AtomicBool::new(true),
            next: std::ptr::null_mut(),
            local: UnsafeCell::new(Local {
                bags: [make_bag(), make_bag(), make_bag()],
                spares: Vec::new(),
            }),
        }));
        loop {
            let head = self.head.load(SeqCst);
            unsafe { (*node).next = head };
            if self
                .head
                .compare_exchange(head, node, SeqCst, SeqCst)
                .is_ok()
            {
                return node;
            }
        }
    }

    /// Advances the global epoch if every pinned participant has
    /// caught up to it.
    fn try_advance(&self) {
        let e = self.global.load(SeqCst);
        let mut p = self.head.load(SeqCst);
        while !p.is_null() {
            let node = unsafe { &*p };
            let a = node.active.load(SeqCst);
            if a & 1 == 1 && a >> 1 != e {
                return; // someone is still pinned in the previous epoch
            }
            p = node.next;
        }
        let _ = self.global.compare_exchange(e, e + 1, SeqCst, SeqCst);
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        // Exclusive access: no guards can outlive the collector (their
        // lifetime borrows it), so every bag is safe to drain and every
        // participant node safe to free.
        let mut p = *self.head.get_mut();
        while !p.is_null() {
            let mut node = unsafe { Box::from_raw(p) };
            p = node.next;
            let local = node.local.get_mut();
            for i in 0..3 {
                local.drain(i);
            }
            local.free_spares();
        }
    }
}

/// An active pin. `!Send` by construction (raw participant pointer):
/// the pin must be released on the thread that took it.
pub struct Guard<'c> {
    collector: &'c Collector,
    part: *mut Participant,
}

impl Guard<'_> {
    /// This guard's participant's blocks.
    ///
    /// # Safety
    ///
    /// The caller must not hold the returned reference across another
    /// call that takes it. (The guard owns the participant — `owned`
    /// stays set until it drops — and is `!Send`, so no other thread
    /// touches `local` meanwhile.)
    #[allow(clippy::mut_from_ref)]
    unsafe fn local(&self) -> &mut Local {
        // SAFETY: the guard owns the participant; the caller's contract
        // keeps the borrow unique on this thread.
        unsafe { &mut *(*self.part).local.get() }
    }

    /// A block of `layout`: a spare one if this participant keeps one,
    /// otherwise a fresh one from the global allocator. The caller owns
    /// it, uninitialised.
    ///
    /// # Panics
    ///
    /// Panics if `layout` has size zero.
    pub fn alloc(&self, layout: Layout) -> NonNull<u8> {
        assert!(layout.size() != 0, "zero-sized blocks are not pooled");
        // SAFETY: the borrow ends before this function returns.
        let local = unsafe { self.local() };
        if let Some(bucket) = local.spares.iter_mut().find(|b| b.layout == layout) {
            if let Some(p) = bucket.blocks.pop() {
                return p;
            }
        }
        // SAFETY: `layout` has a non-zero size (asserted above).
        let p = unsafe { alloc::alloc(layout) };
        NonNull::new(p).unwrap_or_else(|| alloc::handle_alloc_error(layout))
    }

    /// Reclaims a block nobody else ever saw: drops its contents now
    /// and keeps the block for reuse.
    ///
    /// # Safety
    ///
    /// `ptr` must be a live block of `kind`, allocated by the global
    /// allocator with `kind.layout`, that no other thread can reach and
    /// that nobody uses afterwards.
    pub unsafe fn recycle(&self, ptr: NonNull<u8>, kind: &'static BlockKind) {
        // SAFETY: the caller's contract; the value's drop runs before
        // `local` is borrowed, and the borrow ends with the call.
        unsafe {
            (kind.drop_contents)(ptr);
            self.local().keep(ptr, kind.layout);
        }
    }

    /// Defers reclaiming `ptr` until every thread pinned at this
    /// moment has unpinned. The block is then dropped in place and kept
    /// for reuse by whichever participant drains it.
    ///
    /// # Safety
    ///
    /// `ptr` must not be reachable by any thread that pins *after* this
    /// call (i.e. it has been unlinked from all shared locations), and
    /// must be a live block of `kind`, allocated by the global
    /// allocator with `kind.layout`, deferred exactly once.
    pub unsafe fn defer(&self, ptr: NonNull<u8>, kind: &'static BlockKind) {
        // Stamp with the *global* epoch, not our pinned epoch. Our pin
        // may lag the global by one (pin at `e`, global advances to
        // `e + 1`, then we unlink), and a reader pinned at `e + 1` can
        // have loaded the pointer before the unlink. Stamping `e` would
        // let a pin at `e + 2` free under that reader; stamping the
        // global (`e + 1` here) makes the `stamp + 2` drain condition
        // wait for it. The global is ≥ the pin epoch of every reader
        // that pinned before the unlink, and monotone across successive
        // defers, so bag reuse below stays ordered.
        let e = self.collector.global.load(SeqCst);
        // SAFETY: the borrow ends before this function returns.
        let local = unsafe { self.local() };
        let i = (e % 3) as usize;
        if local.bags[i].epoch != e {
            // Previous contents are from epoch ≤ e - 3: reclaimable.
            local.drain(i);
            local.bags[i].epoch = e;
        }
        let bag = &mut local.bags[i];
        bag.items.push(Garbage { ptr, kind });
        if bag.items.len() >= ADVANCE_THRESHOLD {
            self.collector.try_advance();
        }
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let p = unsafe { &*self.part };
        p.active.store(0, SeqCst);
        p.owned.store(false, SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    thread_local! {
        /// Blocks of `COUNTED_U64` dropped on this thread: per thread,
        /// so tests running in parallel do not see each other's drops.
        /// Every test that reads it drains on its own thread.
        static FREED: Cell<usize> = const { Cell::new(0) };
    }

    fn freed() -> usize {
        FREED.with(Cell::get)
    }

    unsafe fn count_drop(_: NonNull<u8>) {
        FREED.with(|c| c.set(c.get() + 1));
    }

    static COUNTED_U64: BlockKind = BlockKind {
        layout: Layout::new::<u64>(),
        drop_contents: count_drop,
    };

    fn boxed_u64() -> NonNull<u8> {
        NonNull::from(Box::leak(Box::new(0u64))).cast()
    }

    fn retire_one(g: &Guard<'_>) -> NonNull<u8> {
        let b = boxed_u64();
        unsafe { g.defer(b, &COUNTED_U64) };
        b
    }

    fn spares(g: &Guard<'_>, layout: Layout) -> usize {
        let local = unsafe { &*(*g.part).local.get() };
        local
            .spares
            .iter()
            .find(|b| b.layout == layout)
            .map_or(0, |b| b.blocks.len())
    }

    #[test]
    fn garbage_survives_while_pinned_and_frees_after_epochs() {
        let c = Collector::new();
        {
            let g = c.pin();
            retire_one(&g);
            assert_eq!(freed(), 0);
        }
        // Advance two epochs with nobody pinned, then pin again: the
        // stale bag drains on pin.
        c.try_advance();
        c.try_advance();
        {
            let _g = c.pin();
            assert_eq!(freed(), 1);
        }
    }

    #[test]
    fn pinned_reader_blocks_advance() {
        let c = Collector::new();
        let g1 = c.pin();
        let e0 = c.epoch();
        c.try_advance();
        assert_eq!(c.epoch(), e0 + 1, "one advance is fine");
        c.try_advance();
        assert_eq!(c.epoch(), e0 + 1, "second advance must wait for g1");
        drop(g1);
        c.try_advance();
        assert_eq!(c.epoch(), e0 + 2);
    }

    /// Regression: a retirer pinned at epoch `e` unlinks *after* the
    /// global has advanced to `e + 1`. A reader pinned at `e + 1`
    /// (which loaded the pointer before the unlink) does not block the
    /// advance to `e + 2`, so garbage stamped with the retirer's pin
    /// epoch `e` would be freed at `e + 2` under that reader. Stamping
    /// with the global epoch (`e + 1`) keeps it alive.
    #[test]
    fn defer_after_global_advance_waits_for_lagging_epoch_reader() {
        let c = Collector::new();
        let retirer = c.pin(); // pinned at epoch 0
        c.try_advance();
        assert_eq!(c.epoch(), 1, "retirer at 0 does not block 0 -> 1");
        let reader = c.pin(); // pinned at epoch 1, "holds" the pointer
        retire_one(&retirer); // unlink happens at global epoch 1
        drop(retirer);
        c.try_advance();
        assert_eq!(c.epoch(), 2, "reader at 1 does not block 1 -> 2");
        {
            // A pin at epoch 2 drains stale bags in the retirer's
            // recycled slot; the garbage is stamped 1, and 2 < 1 + 2,
            // so it must survive while `reader` is still pinned.
            let _g = c.pin();
            assert_eq!(freed(), 0, "freed under a live reader");
        }
        drop(reader);
        c.try_advance();
        assert_eq!(c.epoch(), 3);
        // The last pin above reused the retirer's slot and left this
        // thread's hint on it, so the next pin takes it again — and its
        // bag is now two epochs stale and drains.
        let _g1 = c.pin();
        let _g2 = c.pin();
        assert_eq!(freed(), 1, "freed once the reader unpins");
    }

    #[test]
    fn collector_drop_frees_everything() {
        {
            let c = Collector::new();
            let g = c.pin();
            for _ in 0..10 {
                retire_one(&g);
            }
            drop(g);
        }
        assert_eq!(freed(), 10);
    }

    #[test]
    fn participants_are_reused_across_pins() {
        let c = Collector::new();
        let p1 = c.pin().part;
        let p2 = c.pin().part;
        assert_eq!(p1, p2, "sequential pins reuse the released slot");
    }

    /// Thread A pins; thread B pins meanwhile and so registers a
    /// second participant, which lands at the registry head. Once both
    /// unpin, A must get its own participant back, not B's from the
    /// head: each thread keeps to its own cache line.
    #[test]
    fn pin_returns_to_the_threads_own_participant() {
        let c = Collector::new();
        let a = c.pin();
        let mine = a.part as usize;
        std::thread::scope(|s| {
            s.spawn(|| {
                let b = c.pin();
                assert_ne!(b.part as usize, mine, "A's participant is still held");
            });
        });
        drop(a);
        assert_eq!(
            c.pin().part as usize,
            mine,
            "A's next pin reclaims its own slot"
        );
    }

    /// A hint left by a dropped collector is keyed by that collector's
    /// id, so a new collector (possibly at the same address) ignores it.
    #[test]
    fn stale_hint_from_a_dropped_collector_is_ignored() {
        let old = Collector::new();
        drop(old.pin());
        drop(old);
        let c = Collector::new();
        let g = c.pin();
        assert_eq!(g.part, c.head.load(SeqCst), "registered fresh");
    }

    /// A drained block is handed out again by the next `alloc` of its
    /// layout, and a recycled one at once; neither reaches the
    /// allocator.
    #[test]
    fn drained_and_recycled_blocks_are_reused() {
        let c = Collector::new();
        let retired = {
            let g = c.pin();
            retire_one(&g)
        };
        c.try_advance();
        c.try_advance();
        let g = c.pin();
        assert_eq!(freed(), 1, "dropped in place on drain");
        assert_eq!(spares(&g, COUNTED_U64.layout), 1);
        let again = g.alloc(COUNTED_U64.layout);
        assert_eq!(again, retired, "the drained block comes back");
        assert_eq!(spares(&g, COUNTED_U64.layout), 0);
        unsafe { g.recycle(again, &COUNTED_U64) };
        assert_eq!(freed(), 2, "recycle drops at once");
        assert_eq!(g.alloc(COUNTED_U64.layout), again);
        // A different layout is not served from this bucket.
        let other = Layout::new::<[u64; 2]>();
        let fresh = g.alloc(other);
        assert_ne!(fresh, again);
        unsafe { alloc::dealloc(fresh.as_ptr(), other) };
        unsafe { alloc::dealloc(again.as_ptr(), COUNTED_U64.layout) };
    }

    /// A spare bucket holds at most `SPARE_CAP` blocks; the rest of a
    /// large drain goes back to the allocator.
    #[test]
    fn spare_list_is_bounded() {
        let c = Collector::new();
        {
            let g = c.pin();
            for _ in 0..SPARE_CAP + 10 {
                retire_one(&g);
            }
        }
        c.try_advance();
        c.try_advance();
        c.try_advance();
        let g = c.pin();
        assert_eq!(freed(), SPARE_CAP + 10, "every item dropped");
        assert_eq!(spares(&g, COUNTED_U64.layout), SPARE_CAP);
    }

    #[test]
    fn concurrent_pin_smoke() {
        unsafe fn drop_u64(_: NonNull<u8>) {}
        static U64: BlockKind = BlockKind {
            layout: Layout::new::<u64>(),
            drop_contents: drop_u64,
        };
        let c = Arc::new(Collector::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let g = c.pin();
                        let b = g.alloc(U64.layout);
                        unsafe {
                            b.cast::<u64>().write(7);
                            g.defer(b, &U64);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // Drop frees the remainder; miri/asan would flag leaks or UAF.
    }
}
