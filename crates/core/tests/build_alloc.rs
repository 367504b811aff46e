//! Allocation gate for machine construction: building the paper's
//! full-scale 64-processor machine costs a few hundred allocations,
//! independent of cache capacity. Each processor's two set-associative
//! arrays allocate their slot tables once and grow their way pools only
//! as lines are filled, so construction never touches the 2,304 sets
//! of a processor one by one, and the program digest snapshots gate on
//! is computed only when a checkpoint asks for it.
//!
//! A counting global allocator counts the calling thread's allocations
//! only, so tests running on other threads do not show in the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tcc_core::{ProtocolKind, Simulator, SystemConfig};

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

/// Allocations allowed for building one volrend@64 machine. It takes
/// 264 (two per cache array, the rest for directories, network and
/// queues); a layout that allocates per set (2,304 sets per processor)
/// or renders the programs at build time takes ~147,600.
const BUILD_ALLOC_BOUND: u64 = 400;

#[test]
fn full_scale_volrend_at_64_builds_in_a_few_hundred_allocations() {
    let programs = tcc_workloads::apps::volrend().generate(64, 0);
    for kind in [ProtocolKind::Tcc, ProtocolKind::Tardis] {
        let mut cfg = SystemConfig::with_procs(64);
        cfg.protocol = kind;
        let builder = Simulator::builder(cfg).programs(programs.clone());
        let before = allocs();
        let sim = builder.build().expect("volrend@64 is a valid machine");
        let n = allocs() - before;
        eprintln!("{kind}: {n} allocations to build volrend@64");
        assert!(
            n <= BUILD_ALLOC_BOUND,
            "{kind}: building volrend@64 took {n} allocations (bound {BUILD_ALLOC_BOUND})"
        );
        drop(sim);
    }
}
