//! Allocation gate for the commit path: in steady state a transaction
//! attempt allocates exactly its version nodes — one per written cell —
//! and nothing else. Read and write sets reuse per-thread buffers, and
//! commit hands them to the protocol as they are.
//!
//! A counting global allocator counts the calling thread's allocations
//! only, so a helper thread that forces a conflict does not show in the
//! count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};

use tcc_stm::{Stm, TVar};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Reads `reads` cells, writes `k` others, and — when `interfere` is
/// set — has a helper thread commit to the first read cell between the
/// body and the commit, so the first attempt fails validation and the
/// transaction retries. Returns (allocations on this thread, attempts).
fn one_tx(
    stm: &Stm,
    cells: &[TVar<u64>],
    reads: usize,
    k: usize,
    interfere: Option<&AtomicU64>,
) -> (u64, u32) {
    let before = allocs();
    let mut first = true;
    let (_, receipt) = stm.run(|tx| {
        let mut sum = 0u64;
        for c in &cells[..reads] {
            sum = sum.wrapping_add(tx.read(c)?);
        }
        for c in &cells[reads..reads + k] {
            tx.write(c, sum)?;
        }
        if let (Some(flag), true) = (interfere, first) {
            first = false;
            // Ask the helper to commit to cells[0] and wait until it
            // has: our read of it is now stale.
            flag.store(1, SeqCst);
            while flag.load(SeqCst) != 2 {
                std::thread::yield_now();
            }
        }
        Ok(())
    });
    (allocs() - before, receipt.attempts)
}

#[test]
fn steady_state_attempts_allocate_only_their_version_nodes() {
    const READS: usize = 3;
    const K: usize = 2;
    let stm = Stm::new();
    let cells: Vec<TVar<u64>> = (0..READS + K).map(|i| stm.new_tvar(i as u64)).collect();
    // 0 idle, 1 requested, 2 done, 3 stop.
    let flag = AtomicU64::new(0);
    /// Stops the helper even if an assertion unwinds the scope, which
    /// would otherwise wait for it forever.
    struct Stop<'a>(&'a AtomicU64);
    impl Drop for Stop<'_> {
        fn drop(&mut self) {
            self.0.store(3, SeqCst);
        }
    }
    std::thread::scope(|s| {
        s.spawn(|| loop {
            match flag.load(SeqCst) {
                1 => {
                    stm.atomically(|tx| {
                        let v = tx.read(&cells[0])?;
                        tx.write(&cells[0], v + 1)
                    });
                    flag.store(2, SeqCst);
                }
                3 => return,
                _ => std::thread::yield_now(),
            }
        });

        let _stop = Stop(&flag);
        // Warm up: buffers, EBR bags and the participant registry reach
        // their steady-state capacities.
        for _ in 0..2_000 {
            one_tx(&stm, &cells, READS, K, None);
            flag.store(0, SeqCst);
            one_tx(&stm, &cells, READS, K, Some(&flag));
            flag.store(0, SeqCst);
        }

        for round in 0..50 {
            let (n, attempts) = one_tx(&stm, &cells, READS, K, None);
            assert_eq!(attempts, 1);
            assert_eq!(n, K as u64, "round {round}: uncontended commit");

            let (n, attempts) = one_tx(&stm, &cells, READS, K, Some(&flag));
            flag.store(0, SeqCst);
            assert_eq!(attempts, 2, "the helper's commit forces one retry");
            assert_eq!(
                n,
                K as u64 * u64::from(attempts),
                "round {round}: each attempt allocates only its {K} version nodes"
            );
        }
    });
    assert!(stm.stats().conflicts >= 50);
}
