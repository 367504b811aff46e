//! A process-wide worker budget: every layer that fans out onto
//! threads leases its workers here, so nested fan-outs never put more
//! runnable threads on the machine than it has CPUs.
//!
//! More than one layer fans out onto threads: `tcc-bench --jobs` runs
//! grid cells in parallel, and the chaos explorer fans scenarios out
//! onto its own pool. Uncoordinated, nested fan-outs multiply: two
//! layers of 8 would put 64 runnable threads on an 8-way machine. Instead,
//! every layer asks [`WorkerBudget::lease`] for the parallelism it
//! *wants* and runs with what it is *granted*; the grant always
//! includes the calling thread (which its parent already accounted
//! for), so a depleted budget degrades each layer to sequential
//! execution instead of failing.
//!
//! Determinism note: a lease changes only how many worker threads
//! run independent simulations, never what any one of them computes,
//! so budget-driven degradation is invisible in every fingerprint.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;

/// Shared pool of grantable worker threads. Cloning shares the pool.
#[derive(Debug, Clone)]
pub struct WorkerBudget {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    /// Maximum concurrent threads, including the root thread.
    total: usize,
    /// Additional threads still grantable (total minus the root thread
    /// minus outstanding grants).
    available: AtomicUsize,
}

/// A granted lease; holds `extra` threads out of the budget until
/// dropped. [`WorkerLease::workers`] is what the holder may run with.
#[derive(Debug)]
pub struct WorkerLease {
    inner: Arc<Inner>,
    extra: usize,
}

impl WorkerBudget {
    /// A budget allowing at most `total` concurrent threads (including
    /// the caller's own). `total` is clamped to at least 1.
    #[must_use]
    pub fn new(total: usize) -> WorkerBudget {
        let total = total.max(1);
        WorkerBudget {
            inner: Arc::new(Inner {
                total,
                available: AtomicUsize::new(total - 1),
            }),
        }
    }

    /// The process-wide budget, sized to the machine's available
    /// parallelism. All production call sites lease from this one.
    pub fn global() -> &'static WorkerBudget {
        static GLOBAL: OnceLock<WorkerBudget> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let n = thread::available_parallelism().map_or(1, usize::from);
            WorkerBudget::new(n)
        })
    }

    /// Maximum concurrent threads this budget allows.
    #[must_use]
    pub fn total(&self) -> usize {
        self.inner.total
    }

    /// Additional threads currently grantable.
    #[must_use]
    pub fn available(&self) -> usize {
        self.inner.available.load(Ordering::Relaxed)
    }

    /// Leases up to `desired` workers (including the calling thread).
    /// The grant is `1 + min(desired − 1, available)`: never zero,
    /// never more than asked for, and the extra threads return to the
    /// budget when the lease drops.
    #[must_use]
    pub fn lease(&self, desired: usize) -> WorkerLease {
        let want_extra = desired.saturating_sub(1);
        let mut extra = 0;
        // Claim up to `want_extra` via CAS so concurrent leases never
        // over-grant.
        let mut cur = self.inner.available.load(Ordering::Relaxed);
        while extra < want_extra {
            if cur == 0 {
                break;
            }
            let take = want_extra.min(cur);
            match self.inner.available.compare_exchange_weak(
                cur,
                cur - take,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    extra = take;
                    break;
                }
                Err(actual) => cur = actual,
            }
        }
        WorkerLease {
            inner: Arc::clone(&self.inner),
            extra,
        }
    }
}

impl WorkerLease {
    /// Number of workers the holder may run concurrently (the calling
    /// thread plus the leased extras). Always at least 1.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.extra + 1
    }
}

impl Drop for WorkerLease {
    fn drop(&mut self) {
        if self.extra > 0 {
            self.inner.available.fetch_add(self.extra, Ordering::AcqRel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_are_capped_and_returned() {
        let b = WorkerBudget::new(8);
        assert_eq!(b.total(), 8);
        assert_eq!(b.available(), 7);
        let l1 = b.lease(4);
        assert_eq!(l1.workers(), 4);
        assert_eq!(b.available(), 4);
        let l2 = b.lease(16);
        assert_eq!(l2.workers(), 5, "grant is capped by what remains");
        assert_eq!(b.available(), 0);
        let l3 = b.lease(4);
        assert_eq!(l3.workers(), 1, "a depleted budget degrades to sequential");
        drop(l2);
        assert_eq!(b.available(), 4);
        drop(l1);
        drop(l3);
        assert_eq!(b.available(), 7);
    }

    /// Three nested layers of leases can never exceed the budget,
    /// whatever each layer asks for.
    #[test]
    fn nested_leases_stay_within_budget() {
        let b = WorkerBudget::new(8);
        // Outer layer: a bench harness wanting 4 jobs.
        let jobs = b.lease(4);
        // Middle layer: each of the 4 job threads wants an 8-worker
        // pool; together they may only consume what is left.
        let pools: Vec<_> = (0..jobs.workers()).map(|_| b.lease(8)).collect();
        // Inner layer: a chaos explorer under one pool wants 8 more.
        let explorer = b.lease(8);
        let threads: usize = jobs.workers()
            + pools.iter().map(|l| l.workers() - 1).sum::<usize>()
            + (explorer.workers() - 1);
        assert!(
            threads <= b.total(),
            "nested leases exceed the budget: {threads} > {}",
            b.total()
        );
        // Every layer still makes progress.
        assert!(pools.iter().all(|l| l.workers() >= 1));
        assert!(explorer.workers() >= 1);
        drop(explorer);
        drop(pools);
        drop(jobs);
        assert_eq!(b.available(), 7, "all extras returned");
    }

    #[test]
    fn zero_total_still_allows_the_caller() {
        let b = WorkerBudget::new(0);
        assert_eq!(b.total(), 1);
        let l = b.lease(4);
        assert_eq!(l.workers(), 1);
    }

    #[test]
    fn global_budget_matches_machine() {
        let g = WorkerBudget::global();
        assert!(g.total() >= 1);
    }
}
