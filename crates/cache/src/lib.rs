//! Speculative cache hierarchy for the Scalable TCC simulator.
//!
//! §3.1 of the paper stores all speculative state in the processor's
//! private data caches: every cache line carries per-word
//! speculatively-read (SR) and speculatively-modified (SM) bits, a valid
//! bit, and — new in Scalable TCC — a **dirty** bit supporting the
//! write-back protocol. This crate models that hierarchy:
//!
//! * [`LineState`] — per-line metadata (SR/SM masks, dirty, owned) plus
//!   the simulated contents used by the serializability checker.
//! * [`SetArray`] — a generic set-associative array with true-LRU
//!   replacement, used for both levels.
//! * [`HierCache`] — the two-level inclusive hierarchy: L1 hit/miss
//!   timing, fills, evictions (write-backs of dirty committed lines),
//!   first-speculative-write-to-dirty-line write-backs, transaction
//!   commit/abort bookkeeping, and speculative-overflow detection.
//!
//! # Example
//!
//! ```
//! use tcc_cache::{CacheConfig, HierCache, LoadOutcome};
//! use tcc_types::{LineAddr, LineValues};
//!
//! let cfg = CacheConfig::default();
//! let mut c = HierCache::new(cfg.clone());
//! let line = LineAddr(7);
//!
//! // A cold load misses; the fill installs the line; the retry hits.
//! assert!(matches!(c.load(line, 0), LoadOutcome::Miss));
//! let fill = c.fill(line, LineValues::fresh(8), false);
//! assert!(fill.evictions.is_empty());
//! assert!(matches!(c.load(line, 0), LoadOutcome::Hit { .. }));
//! // The load left an SR bit behind: the line is in the read-set.
//! assert_eq!(c.speculative_lines(), 1);
//! ```

mod array;
mod config;
mod hier;
mod line;

pub use array::{SetArray, MAX_WAYS};
pub use config::{CacheConfig, Granularity, Level};
pub use hier::{
    Eviction, FillResult, ForcedFillResult, HierCache, InvalidateOutcome, LoadOutcome, StoreOutcome,
};
pub use line::LineState;
