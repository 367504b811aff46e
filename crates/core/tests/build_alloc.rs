//! Allocation gates for the paper's full-scale 64-processor machine.
//!
//! Building it costs a few hundred allocations and under a megabyte of
//! heap, independent of cache capacity. Each processor's two
//! set-associative arrays allocate one word and one length byte per
//! set, and give a set its way slots and its pool entries only as lines
//! are filled, so construction never touches the 2,304 sets of a
//! processor one by one, and the program digest snapshots gate on is
//! computed only when a checkpoint asks for it.
//!
//! Its programs cost what they hold: one allocation per transaction
//! and per thread, and about 8.5 heap bytes per operation
//! (`Transaction`'s encoding, DESIGN.md §16).
//!
//! A counting global allocator counts the calling thread's allocations
//! and the bytes they hold, so tests running on other threads do not
//! show in the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tcc_core::{ProtocolKind, Simulator, SystemConfig, WorkItem};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Counts one allocation request that grows the thread's live heap by
/// `bytes`.
fn bump(bytes: i64) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    grow(bytes);
}

fn grow(bytes: i64) {
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + bytes));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

/// Allocations allowed for building one volrend@64 machine. It takes
/// 264 (two per cache array, the rest for directories, network and
/// queues); a layout that allocates per set (2,304 sets per processor)
/// or renders the programs at build time takes ~147,600.
const BUILD_ALLOC_BOUND: u64 = 400;

/// Heap bytes a freshly built volrend@64 machine may hold. TCC holds
/// 865,280 and Tardis 829,952, 590 KB of it the per-set chunk words of
/// the cache arrays. Way slots sized by capacity (`sets × ways` per
/// array) held 4,722,688; those of the L1s alone would add 262,144.
const BUILD_BYTES_BOUND: i64 = 1_000_000;

#[test]
fn full_scale_volrend_at_64_builds_in_a_few_hundred_allocations() {
    let programs = tcc_workloads::apps::volrend().generate(64, 0);
    for kind in [ProtocolKind::Tcc, ProtocolKind::Tardis] {
        let mut cfg = SystemConfig::with_procs(64);
        cfg.protocol = kind;
        let builder = Simulator::builder(cfg).programs(programs.clone());
        let (allocs_before, bytes_before) = (allocs(), live_bytes());
        let sim = builder.build().expect("volrend@64 is a valid machine");
        let n = allocs() - allocs_before;
        let bytes = live_bytes() - bytes_before;
        eprintln!("{kind}: {n} allocations and {bytes} heap bytes to build volrend@64");
        assert!(
            n <= BUILD_ALLOC_BOUND,
            "{kind}: building volrend@64 took {n} allocations (bound {BUILD_ALLOC_BOUND})"
        );
        assert!(
            bytes <= BUILD_BYTES_BOUND,
            "{kind}: building volrend@64 holds {bytes} heap bytes (bound {BUILD_BYTES_BOUND})"
        );
        drop(sim);
    }
}

/// Heap bytes the volrend@64 programs may hold per operation. They
/// hold 8.506: 8.285 in the transactions (8 per operand plus one kind
/// word per group of up to 32 ops, about 113 ops per transaction) and
/// 0.22 in the item vectors. A `Vec<TxOp>` per transaction held 16.4;
/// one spare op reserved per transaction would hold 8.58.
const PROGRAM_BYTES_PER_OP_BOUND: f64 = 8.52;

/// Allocations allowed for generating the volrend@64 programs of seed
/// 0: the 6,785 that a `Vec<TxOp>` per transaction in a growing item
/// vector per thread took. They take 6,465: one per transaction, one
/// per thread and one for the program vector.
const GENERATE_ALLOC_BOUND: u64 = 6_785;

#[test]
fn full_scale_volrend_at_64_programs_cost_what_they_hold() {
    let (allocs_before, bytes_before) = (allocs(), live_bytes());
    let programs = tcc_workloads::apps::volrend().generate(64, 0);
    let n_allocs = allocs() - allocs_before;
    let bytes = live_bytes() - bytes_before;
    let ops: usize = programs
        .iter()
        .flat_map(|p| &p.items)
        .map(|item| match item {
            WorkItem::Tx(t) => t.len(),
            WorkItem::Barrier => 0,
        })
        .sum();
    let per_op = bytes as f64 / ops as f64;
    eprintln!(
        "volrend@64: {ops} ops in {bytes} heap bytes ({per_op:.3} per op), {n_allocs} allocations"
    );
    assert!(
        per_op <= PROGRAM_BYTES_PER_OP_BOUND,
        "volrend@64 programs hold {per_op:.3} heap bytes per op (bound {PROGRAM_BYTES_PER_OP_BOUND})"
    );
    assert!(
        n_allocs <= GENERATE_ALLOC_BOUND,
        "generating volrend@64 took {n_allocs} allocations (bound {GENERATE_ALLOC_BOUND})"
    );
}
