//! Shared vocabulary types for the Scalable TCC simulator.
//!
//! This crate defines the identifiers, addresses, and coherence messages
//! used throughout the reproduction of *"A Scalable, Non-blocking Approach
//! to Transactional Memory"* (Chafi et al., HPCA 2007). Every other crate
//! in the workspace builds on these definitions:
//!
//! * [`ids`] — strongly-typed identifiers: [`Cycle`], [`NodeId`], [`DirId`],
//!   [`Tid`].
//! * [`addr`] — byte addresses, cache-line addresses, per-word bit masks,
//!   and the line geometry that relates them.
//! * [`msg`] — the coherence message set of Table 1 of the paper, plus the
//!   replies and acknowledgements the protocol needs on an unordered
//!   interconnect, with on-wire size accounting per traffic category.
//!
//! # Example
//!
//! ```
//! use tcc_types::{Addr, LineGeometry, NodeId, Tid};
//!
//! let geom = LineGeometry::new(32, 4);
//! let a = Addr(0x1040);
//! assert_eq!(geom.line_of(a).0, 0x1040 / 32);
//! assert_eq!(geom.word_index(a), 0x1040 % 32 / 4);
//! assert!(Tid(3) < Tid(7));
//! let home = NodeId(5);
//! assert_eq!(home.index(), 5);
//! ```

pub mod addr;
pub mod bugs;
pub mod hash;
pub mod ids;
pub mod msg;
pub mod protocol;
pub mod rng;
pub mod snap;
pub mod wire;

pub use addr::{Addr, LineAddr, LineGeometry, WordMask};
pub use bugs::ProtocolBugs;
pub use ids::{Cycle, DirId, NodeId, Tid};
pub use msg::{
    DataSource, LineValues, Message, Payload, TrafficCategory, ADDR_BYTES, HEADER_BYTES,
};
pub use protocol::ProtocolKind;
pub use wire::{Frame, ACK_BYTES, SEQ_BYTES};
