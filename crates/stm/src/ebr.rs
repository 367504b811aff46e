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

use std::cell::{Cell, UnsafeCell};
use std::sync::atomic::{
    AtomicBool, AtomicPtr, AtomicU64,
    Ordering::{Relaxed, SeqCst},
};

/// Retired garbage: drain a bag this many items deep tries to advance
/// the global epoch so the bag can empty soon.
const ADVANCE_THRESHOLD: usize = 64;

/// One deferred deallocation.
struct Garbage {
    ptr: *mut (),
    free: unsafe fn(*mut ()),
}

// Garbage travels from the retiring thread's stack into a bag that a
// different thread (the collector's dropper) may drain.
unsafe impl Send for Garbage {}

struct Bag {
    /// Epoch at which the current contents were retired.
    epoch: u64,
    items: Vec<Garbage>,
}

impl Bag {
    fn drain(&mut self) {
        for g in self.items.drain(..) {
            unsafe { (g.free)(g.ptr) };
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
    /// slot, so `bags` is only ever touched by one thread at a time.
    owned: AtomicBool,
    next: *mut Participant,
    bags: UnsafeCell<[Bag; 3]>,
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
// state in a node is atomic, and `bags` is guarded by `owned`.
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
        let bags = unsafe { &mut *p.bags.get() };
        for bag in bags.iter_mut() {
            if !bag.items.is_empty() && e >= bag.epoch + 2 {
                bag.drain();
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
            bags: UnsafeCell::new([make_bag(), make_bag(), make_bag()]),
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
            for bag in node.bags.get_mut().iter_mut() {
                bag.drain();
            }
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
    /// Defers `free(ptr)` until every thread pinned at this moment has
    /// unpinned.
    ///
    /// # Safety
    ///
    /// `ptr` must not be reachable by any thread that pins *after* this
    /// call (i.e. it has been unlinked from all shared locations), and
    /// `free` must be safe to call on it exactly once.
    pub unsafe fn defer(&self, ptr: *mut (), free: unsafe fn(*mut ())) {
        let p = unsafe { &*self.part };
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
        let bags = unsafe { &mut *p.bags.get() };
        let bag = &mut bags[(e % 3) as usize];
        if bag.epoch != e {
            // Previous contents are from epoch ≤ e - 3: reclaimable.
            bag.drain();
            bag.epoch = e;
        }
        bag.items.push(Garbage { ptr, free });
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
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    static FREED: AtomicUsize = AtomicUsize::new(0);

    unsafe fn count_free(p: *mut ()) {
        drop(unsafe { Box::from_raw(p.cast::<u64>()) });
        FREED.fetch_add(1, SeqCst);
    }

    fn retire_one(g: &Guard<'_>) {
        let b = Box::into_raw(Box::new(0u64));
        unsafe { g.defer(b.cast(), count_free) };
    }

    #[test]
    fn garbage_survives_while_pinned_and_frees_after_epochs() {
        FREED.store(0, SeqCst);
        let c = Collector::new();
        {
            let g = c.pin();
            retire_one(&g);
            assert_eq!(FREED.load(SeqCst), 0);
        }
        // Advance two epochs with nobody pinned, then pin again: the
        // stale bag drains on pin.
        c.try_advance();
        c.try_advance();
        {
            let _g = c.pin();
            assert_eq!(FREED.load(SeqCst), 1);
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
        FREED.store(0, SeqCst);
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
            assert_eq!(FREED.load(SeqCst), 0, "freed under a live reader");
        }
        drop(reader);
        c.try_advance();
        assert_eq!(c.epoch(), 3);
        // The last pin above reused the retirer's slot and left this
        // thread's hint on it, so the next pin takes it again — and its
        // bag is now two epochs stale and drains.
        let _g1 = c.pin();
        let _g2 = c.pin();
        assert_eq!(FREED.load(SeqCst), 1, "freed once the reader unpins");
    }

    #[test]
    fn collector_drop_frees_everything() {
        FREED.store(0, SeqCst);
        {
            let c = Collector::new();
            let g = c.pin();
            for _ in 0..10 {
                retire_one(&g);
            }
            drop(g);
        }
        assert_eq!(FREED.load(SeqCst), 10);
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

    #[test]
    fn concurrent_pin_smoke() {
        let c = Arc::new(Collector::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let g = c.pin();
                        let b = Box::into_raw(Box::new(7u64));
                        unsafe {
                            g.defer(b.cast(), |p| drop(Box::from_raw(p.cast::<u64>())));
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
