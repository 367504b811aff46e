//! The instrumented atomics layer the commit protocol runs on.
//!
//! Every atomic word of the *commit-path state* — the TID vendor, the
//! directory shards' NSTID/skip-window registers, cell marks, and (in
//! the model) cell version stamps — is accessed through the [`Shim`]
//! trait instead of `std::sync::atomic` directly. The protocol code in
//! [`crate::proto`] is generic over the shim, which gives it exactly two
//! instantiations:
//!
//! * [`RealShim`] — plain `std` atomics. All protocol-state operations
//!   use `SeqCst`: they are read-modify-write operations on a handful of
//!   contended words where the cost difference against `AcqRel` is noise
//!   on every mainstream ISA, and sequential consistency is the memory
//!   model the interleaving explorer actually verifies. Claiming weaker
//!   orderings than the model checks would be unsound by construction.
//!   (The *data* path — cell version pointers — is not shim state; its
//!   Acquire/Release discipline is documented at the site, DESIGN.md
//!   §12.6.)
//! * [`ModelShim`] — every operation first yields to a cooperative
//!   [scheduler](crate::explore) that decides which thread runs next, so
//!   a bounded-exhaustive or seeded-random explorer can drive the *same
//!   protocol code* through adversarial interleavings. Outside a model
//!   run (no scheduler registered for the thread) it behaves exactly
//!   like [`RealShim`].
//!
//! Spin-wait sites call [`Shim::pause`] rather than looping hot: the
//! real shim yields the CPU (essential on overcommitted hosts — a
//! committer that spins through its quantum while holding the lowest
//! TID would stall the whole system), and the model shim reports
//! "blocked" to the scheduler so exploration switches threads instead
//! of burning its step budget.

use std::sync::atomic::{AtomicU64, Ordering};

/// One 64-bit word of commit-protocol state.
pub trait ShimU64: Send + Sync + 'static {
    fn new(v: u64) -> Self;
    fn load(&self) -> u64;
    fn store(&self, v: u64);
    fn swap(&self, v: u64) -> u64;
    /// Compare-and-swap; returns `Err(actual)` on failure.
    fn compare_exchange(&self, current: u64, new: u64) -> Result<u64, u64>;
    fn fetch_add(&self, v: u64) -> u64;
}

/// Selects the atomics substrate the protocol runs on.
pub trait Shim: Sized + Send + Sync + 'static {
    type U64: ShimU64;

    /// Back off inside a spin-wait. Called every iteration of every
    /// wait loop in the protocol; must eventually let other threads
    /// run.
    fn pause();
}

// ---------------------------------------------------------------------
// Real mode
// ---------------------------------------------------------------------

/// Production substrate: `std` atomics, `SeqCst` protocol state.
pub struct RealShim;

/// [`ShimU64`] backed directly by [`AtomicU64`].
#[derive(Debug, Default)]
pub struct RealU64(AtomicU64);

impl ShimU64 for RealU64 {
    #[inline]
    fn new(v: u64) -> Self {
        RealU64(AtomicU64::new(v))
    }
    #[inline]
    fn load(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
    #[inline]
    fn store(&self, v: u64) {
        self.0.store(v, Ordering::SeqCst);
    }
    #[inline]
    fn swap(&self, v: u64) -> u64 {
        self.0.swap(v, Ordering::SeqCst)
    }
    #[inline]
    fn compare_exchange(&self, current: u64, new: u64) -> Result<u64, u64> {
        self.0
            .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
    }
    #[inline]
    fn fetch_add(&self, v: u64) -> u64 {
        self.0.fetch_add(v, Ordering::SeqCst)
    }
}

impl Shim for RealShim {
    type U64 = RealU64;

    #[inline]
    fn pause() {
        // A few pipeline pauses then a scheduler yield: on an
        // overcommitted host the thread we are waiting on may not be
        // running at all, so spinning without yielding is a livelock.
        std::hint::spin_loop();
        std::thread::yield_now();
    }
}

// ---------------------------------------------------------------------
// Model mode
// ---------------------------------------------------------------------

/// Exploration substrate: every operation is a scheduling point.
pub struct ModelShim;

/// [`ShimU64`] that reports to the thread's registered model scheduler
/// before every access. The underlying storage is still a real atomic —
/// the scheduler serializes threads, so each access happens in the
/// exact order the explored schedule dictates.
#[derive(Debug, Default)]
pub struct ModelU64(AtomicU64);

impl ShimU64 for ModelU64 {
    fn new(v: u64) -> Self {
        ModelU64(AtomicU64::new(v))
    }
    fn load(&self) -> u64 {
        crate::explore::yieldpoint(false);
        self.0.load(Ordering::SeqCst)
    }
    fn store(&self, v: u64) {
        crate::explore::yieldpoint(false);
        self.0.store(v, Ordering::SeqCst);
    }
    fn swap(&self, v: u64) -> u64 {
        crate::explore::yieldpoint(false);
        self.0.swap(v, Ordering::SeqCst)
    }
    fn compare_exchange(&self, current: u64, new: u64) -> Result<u64, u64> {
        crate::explore::yieldpoint(false);
        self.0
            .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
    }
    fn fetch_add(&self, v: u64) -> u64 {
        crate::explore::yieldpoint(false);
        self.0.fetch_add(v, Ordering::SeqCst)
    }
}

impl Shim for ModelShim {
    type U64 = ModelU64;

    fn pause() {
        // Report "spinning": the scheduler must hand the CPU to another
        // thread or the wait can never be satisfied.
        crate::explore::yieldpoint(true);
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_u64_semantics() {
        let a = RealU64::new(7);
        assert_eq!(a.load(), 7);
        a.store(9);
        assert_eq!(a.swap(11), 9);
        assert_eq!(a.compare_exchange(11, 12), Ok(11));
        assert_eq!(a.compare_exchange(11, 13), Err(12));
        assert_eq!(a.fetch_add(5), 12);
        assert_eq!(a.load(), 17);
    }

    #[test]
    fn model_u64_without_scheduler_acts_real() {
        // Outside an exploration run the model shim must be a drop-in
        // real atomic, so model-mode unit tests can run it directly.
        let a = ModelU64::new(1);
        assert_eq!(a.fetch_add(1), 1);
        assert_eq!(a.load(), 2);
        ModelShim::pause();
    }
}
