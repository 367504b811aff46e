//! The directory controller of the Scalable TCC protocol.
//!
//! Each node of the machine hosts one directory responsible for a
//! contiguous slice of physical memory (Fig. 4 of the paper). The
//! directory is where Scalable TCC's three key mechanisms live:
//!
//! 1. **Commit serialization per directory**: the [`SkipVector`] and the
//!    *Now Serving TID* register admit exactly one committing transaction
//!    at a time, in global TID order, while different directories serve
//!    different transactions concurrently (parallel commit).
//! 2. **Write-back ownership**: committed data stays in the committer's
//!    cache; the directory records the owner and forwards loads to it.
//! 3. **Coherence filtering**: a full-bit [`SharerSet`] per line sends
//!    invalidations only to processors that may cache the data.
//!
//! [`Directory`] is a pure state machine: each `handle_*` method
//! consumes one incoming message and returns the [`DirAction`]s (outgoing
//! payloads) it triggers. Timing — directory-cache latency, occupancy —
//! is applied by the simulation layer in `tcc-core`.

mod controller;
mod entry;
mod sharer_set;
mod skip_vector;
pub mod tardis;

pub use controller::{DirAction, DirConfig, Directory};
pub use entry::DirEntry;
pub use sharer_set::SharerSet;
pub use skip_vector::{SkipRefused, SkipVector};
pub use tardis::{TardisHome, TardisLine};
