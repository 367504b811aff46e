//! Reclamation leaves nothing behind: the epoch collector keeps
//! reclaimed version nodes on per-participant spare lists for reuse,
//! and every one of them must still be returned to the allocator when
//! the `Stm` drops, and every stored value dropped exactly once.
//!
//! A counting global allocator counts every allocation and
//! deallocation in the process. The binary runs without the libtest
//! harness (`harness = false` in the crate manifest), whose threads
//! allocate at times this test does not control; `main` runs the
//! checks one after another, so nothing else runs while one measures.
//! Workers are joined explicitly: a join waits for the thread's
//! thread-local buffers to be freed, where the end of a
//! `thread::scope` does not.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::thread::spawn;

use tcc_stm::{Stm, TVar, TxError};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, SeqCst);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, SeqCst);
        unsafe { System.alloc_zeroed(layout) }
    }
    // A reallocation moves a live block: the live count stays.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCS.fetch_add(1, SeqCst);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Blocks allocated and not yet freed.
fn live() -> i64 {
    ALLOCS.load(SeqCst) as i64 - DEALLOCS.load(SeqCst) as i64
}

/// Each of `threads` workers runs `n` read-modify-write transactions
/// over the same two cells, so most of them conflict with the other
/// worker's.
fn conflicting_increments<T, F>(stm: &Stm, cells: &[TVar<T>; 2], threads: usize, n: usize, bump: F)
where
    T: Clone + Send + Sync + 'static,
    F: Fn(&T) -> T + Clone + Send + 'static,
{
    let start = Arc::new(Barrier::new(threads));
    let workers: Vec<_> = (0..threads)
        .map(|_| {
            let (stm, cells, start, bump) =
                (stm.clone(), cells.clone(), start.clone(), bump.clone());
            spawn(move || {
                start.wait();
                for _ in 0..n {
                    stm.atomically(|tx| {
                        let a = tx.read(&cells[0])?;
                        let b = tx.read(&cells[1])?;
                        tx.write(&cells[0], bump(&a))?;
                        tx.write(&cells[1], bump(&b))
                    });
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker panicked");
    }
}

/// Reads a cell on a thread of its own, so the main thread grows no
/// transaction buffers that would outlive the measurement.
fn read_on_worker<T: Clone + Send + Sync + 'static>(stm: &Stm, cell: &TVar<T>) -> T {
    let (stm, cell) = (stm.clone(), cell.clone());
    spawn(move || stm.atomically(|tx| tx.read(&cell)))
        .join()
        .expect("reader panicked")
}

fn dropping_the_stm_returns_every_spare_block() {
    const N: usize = 5_000;
    let before = live();
    let stm = Stm::new();
    let cells = [stm.new_tvar(0u64), stm.new_tvar(0u64)];
    conflicting_increments(&stm, &cells, 2, N, |v| v + 1);
    assert_eq!(read_on_worker(&stm, &cells[0]), 2 * N as u64);
    assert!(stm.stats().conflicts > 0, "the workers never conflicted");
    drop(cells);
    assert!(
        live() > before,
        "the Stm still holds its collector's blocks"
    );
    drop(stm);
    assert_eq!(live(), before, "blocks stranded after the Stm dropped");
}

/// Every instance ever made, by id, and the ids dropped so far.
#[derive(Default)]
struct Ledger {
    made: u64,
    dropped: HashSet<u64>,
    dropped_twice: Vec<u64>,
}

static LEDGER: Mutex<Option<Ledger>> = Mutex::new(None);

fn ledger() -> MutexGuard<'static, Option<Ledger>> {
    LEDGER
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A value whose every instance — stored version, buffered write or a
/// read's clone — has its own id, so a second drop of one instance
/// shows.
struct Canary {
    id: u64,
    n: u64,
}

impl Canary {
    fn new(n: u64) -> Self {
        let mut l = ledger();
        let l = l.as_mut().expect("ledger open");
        l.made += 1;
        Canary { id: l.made, n }
    }
}

impl Clone for Canary {
    fn clone(&self) -> Self {
        Canary::new(self.n)
    }
}

impl Drop for Canary {
    fn drop(&mut self) {
        let mut l = ledger();
        let l = l.as_mut().expect("ledger open");
        if !l.dropped.insert(self.id) {
            l.dropped_twice.push(self.id);
        }
    }
}

fn every_version_value_is_dropped_exactly_once() {
    const N: usize = 2_000;
    *ledger() = Some(Ledger::default());
    let stm = Stm::new();
    let cells = [stm.new_tvar(Canary::new(0)), stm.new_tvar(Canary::new(0))];
    conflicting_increments(&stm, &cells, 2, N, |c: &Canary| Canary::new(c.n + 1));
    assert_eq!(read_on_worker(&stm, &cells[1]).n, 2 * N as u64);
    // A transaction that overwrites its own buffered write drops the
    // first value at once, and an aborted attempt's node is recycled
    // with its value dropped.
    let (s, c) = (stm.clone(), cells[0].clone());
    spawn(move || {
        let mut first = true;
        s.atomically(|tx| {
            tx.write(&c, Canary::new(7))?;
            tx.write(&c, Canary::new(8))?;
            if std::mem::take(&mut first) {
                return Err(TxError::Conflict);
            }
            Ok(())
        });
    })
    .join()
    .expect("writer panicked");
    drop((stm, cells));
    let l = ledger().take().expect("ledger open");
    assert!(
        l.dropped_twice.is_empty(),
        "dropped twice: {:?}",
        l.dropped_twice
    );
    assert_eq!(
        l.dropped.len() as u64,
        l.made,
        "every instance dropped once the Stm is gone"
    );
}

fn a_participant_reused_by_a_second_thread_leaks_nothing() {
    const N: usize = 3_000;
    let before = live();
    let stm = Stm::new();
    let cells = [stm.new_tvar(0u64), stm.new_tvar(0u64)];
    // One thread at a time: the second finds the first's participant
    // released, with its bags and spare list, and takes it over.
    for round in 1..=2u64 {
        conflicting_increments(&stm, &cells, 1, N, |v| v + 1);
        assert_eq!(read_on_worker(&stm, &cells[0]), round * N as u64);
    }
    drop((stm, cells));
    assert_eq!(live(), before, "blocks stranded after the Stm dropped");
}

fn main() {
    let checks: [(&str, fn()); 3] = [
        (
            "dropping_the_stm_returns_every_spare_block",
            dropping_the_stm_returns_every_spare_block,
        ),
        (
            "every_version_value_is_dropped_exactly_once",
            every_version_value_is_dropped_exactly_once,
        ),
        (
            "a_participant_reused_by_a_second_thread_leaks_nothing",
            a_participant_reused_by_a_second_thread_leaks_nothing,
        ),
    ];
    for (name, check) in checks {
        check();
        println!("test {name} ... ok");
    }
}
