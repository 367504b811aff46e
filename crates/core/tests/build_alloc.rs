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
//! and per thread, and about 4.3 heap bytes per operation
//! (`Transaction`'s encoding, DESIGN.md §16). Generating, building and
//! running it on TCC peaks under 10 MB of live heap.
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
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Counts one allocation request that grows the thread's live heap by
/// `bytes`.
fn bump(bytes: i64) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    grow(bytes);
}

fn grow(bytes: i64) {
    let _ = LIVE_BYTES.try_with(|c| {
        let live = c.get() + bytes;
        c.set(live);
        let _ = PEAK_BYTES.try_with(|p| p.set(p.get().max(live)));
    });
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

/// Restarts the thread's peak at its live heap.
fn reset_peak() {
    PEAK_BYTES.with(|p| p.set(live_bytes()));
}

fn peak_bytes() -> i64 {
    PEAK_BYTES.with(Cell::get)
}

/// Allocations allowed for building one volrend@64 machine. It takes
/// 263 (two per cache array, the rest for directories, network and
/// queues); a layout that allocates per set (2,304 sets per processor)
/// or renders the programs at build time takes ~147,600.
const BUILD_ALLOC_BOUND: u64 = 400;

/// Heap bytes a freshly built volrend@64 machine may hold. TCC holds
/// 852,992 and Tardis 818,688, 590 KB of it the per-set chunk words of
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
/// hold 4.293: 4 in the transactions (one `u32` word per op, none out
/// of line) and 0.29 in the item vectors (a 32-byte `WorkItem` per
/// transaction, about 113 ops each). Groups of 32 ops in `u64` words
/// held 8.506 and a `Vec<TxOp>` per transaction 16.4; one spare op
/// reserved per transaction would hold 4.33.
const PROGRAM_BYTES_PER_OP_BOUND: f64 = 4.30;

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

/// Peak live heap bytes allowed for generating, building and running
/// volrend@64 of seed 0 on TCC, above the thread's heap before it. It
/// peaks at 9,656,912, 3.1 MB of it the programs; with ops in groups of
/// `u64` words it peaked at 12,708,104.
const RUN_PEAK_BYTES_BOUND: i64 = 9_900_000;

#[test]
fn full_scale_volrend_at_64_runs_within_its_peak_heap() {
    reset_peak();
    let before = live_bytes();
    let programs = tcc_workloads::apps::volrend().generate(64, 0);
    let sim = Simulator::builder(SystemConfig::with_procs(64))
        .programs(programs)
        .build()
        .expect("volrend@64 is a valid machine");
    sim.try_run().expect("volrend@64 runs to completion");
    let peak = peak_bytes() - before;
    eprintln!("volrend@64 on TCC: peak live heap {peak} bytes");
    assert!(
        peak <= RUN_PEAK_BYTES_BOUND,
        "volrend@64 on TCC peaked at {peak} live heap bytes (bound {RUN_PEAK_BYTES_BOUND})"
    );
}
