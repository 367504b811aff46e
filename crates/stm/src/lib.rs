//! `tcc-stm` — a real software transactional memory running Scalable
//! TCC's non-blocking commit protocol on actual threads.
//!
//! The rest of the workspace *simulates* the paper's hardware protocol
//! with cycle-level fidelity; this crate *is* the protocol, translated
//! from coherence messages to atomics and run under real hardware
//! concurrency:
//!
//! * gap-free TIDs from a sharded [`proto::Vendor`] with per-shard
//!   handoff (aborts recycle their TID instead of leaving a gap);
//! * directory shards carrying per-shard NSTID plus a packed Skip
//!   Vector ([`proto::Shard`]);
//! * the Skip/Probe/Mark race-elimination rules as atomic operations on
//!   that sharded commit state ([`proto::commit`]);
//! * write-back commit via ownership publication: one pointer swap
//!   installs a committed version ([`Stm`]).
//!
//! What makes the crate trustworthy is that the commit path is generic
//! over an instrumented atomics layer ([`shim`]): the exact same code
//! is driven through bounded-exhaustive and seeded-random adversarial
//! interleavings by a hand-rolled loom-style explorer ([`explore`]),
//! replayed against the simulator's serializability checker by the
//! differential harness (`tests/differential.rs`), and stressed on real
//! threads (`tests/stress.rs`, `tcc-bench --bin stm`).
//!
//! ```
//! use tcc_stm::Stm;
//!
//! let stm = Stm::new();
//! let a = stm.new_tvar(10u64);
//! let b = stm.new_tvar(32u64);
//! let sum = stm.atomically(|tx| {
//!     let x = tx.read(&a)?;
//!     let y = tx.read(&b)?;
//!     tx.write(&b, x + y)?;
//!     tx.read(&b)
//! });
//! assert_eq!(sum, 42);
//! ```

pub mod ebr;
pub mod explore;
pub mod proto;
pub mod shim;
mod stm;

pub use stm::{CommitReceipt, ReadOrigin, Stm, StmConfig, StmStats, TVar, Tx, TxError, TxResult};
