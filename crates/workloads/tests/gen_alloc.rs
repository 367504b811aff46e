//! Allocation gate for STM script generation.
//!
//! Scripts cost what they hold: each transaction's op vector is
//! reserved at its exact length (a read-modify-write pushes two ops),
//! so generating never reallocates and takes one allocation per
//! transaction, plus one per thread's script, one for the script
//! vector and two for the Zipf tables.
//!
//! A counting global allocator counts the calling thread's allocations
//! and reallocations, so tests running on other threads do not show in
//! the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tcc_workloads::stm::StmProfile;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCS);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn counts() -> (u64, u64) {
    (ALLOCS.with(Cell::get), REALLOCS.with(Cell::get))
}

const THREADS: usize = 2;
const TXS_PER_THREAD: usize = 10_000;

#[test]
fn zipfian_generation_allocates_once_per_transaction() {
    let profile = StmProfile::zipfian(256, 0.9);
    let (a0, r0) = counts();
    let scripts = profile.generate(THREADS, TXS_PER_THREAD, 0);
    let (a1, r1) = counts();
    let (allocs, reallocs) = (a1 - a0, r1 - r0);
    eprintln!("zipfian(256, 0.9): {allocs} allocations, {reallocs} reallocations");
    assert_eq!(reallocs, 0, "generation reallocated {reallocs} times");
    // One per transaction, one per thread's script, one for the script
    // vector and two for the Zipf tables (cumulative and guide).
    let bound = (THREADS * TXS_PER_THREAD + THREADS + 1 + 2) as u64;
    assert!(
        allocs <= bound,
        "generation took {allocs} allocations (bound {bound})"
    );
    assert_eq!(scripts.len(), THREADS);
}

#[test]
fn every_transaction_holds_exactly_its_ops() {
    for profile in [
        StmProfile::zipfian(256, 0.9),
        StmProfile::disjoint(64),
        StmProfile::zipfian(8, 0.5).with_footprint(1, 3),
    ] {
        let scripts = profile.generate(THREADS, 1_000, 0);
        for tx in scripts.iter().flatten() {
            assert_eq!(
                tx.ops.capacity(),
                tx.ops.len(),
                "{}: a transaction reserved {} slots for {} ops",
                profile.name,
                tx.ops.capacity(),
                tx.ops.len()
            );
        }
    }
}
