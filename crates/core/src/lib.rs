//! The Scalable TCC protocol and full-system simulator.
//!
//! This crate is the primary contribution of the reproduction of
//! *"A Scalable, Non-blocking Approach to Transactional Memory"*
//! (Chafi et al., HPCA 2007): a cycle-level model of a directory-based
//! distributed-shared-memory machine running the Scalable TCC hardware
//! transactional memory protocol, plus the small-scale (serialized
//! commit) TCC baseline the paper motivates against.
//!
//! # Architecture
//!
//! * [`SystemConfig`] — the simulated machine (Table 2 defaults).
//! * [`ThreadProgram`] / [`Transaction`] / [`TxOp`] — the workload
//!   abstraction: continuous transactions separated by barriers.
//! * The TCC processor — the per-node protocol engine: the shared
//!   program driver (speculative execution over a `tcc-cache`
//!   hierarchy, miss stalls, barriers, cycle accounting) with the TCC
//!   backend plugged in — the two-phase parallel commit (TID
//!   acquisition, skip multicast, deferred probes, marks, commit),
//!   violations, the overflow victim buffer, and the early-TID
//!   forward-progress mechanism.
//! * [`Simulator`] — wires processors, `tcc-directory` controllers, the
//!   `tcc-network` mesh, and the gap-free TID vendor into one
//!   deterministic event-driven simulation; produces [`SimResult`].
//! * Two comparison backends — the small-scale TCC protocol (global
//!   commit token + write-through broadcast commit, OCC condition 2, or
//!   condition 1 with [`SystemConfig::serial_execution`]) used as the
//!   scalability baseline, and timestamp-ordered Tardis coherence. Like
//!   the TCC machine, both run programs through the one shared driver;
//!   [`SystemConfig::protocol`] (a [`ProtocolKind`]) picks the backend
//!   a [`Simulator`] runs.
//! * [`Checker`] — a serializability oracle that validates every
//!   committed execution against a serial replay in TID order.
//!
//! # Quick start
//!
//! ```
//! use tcc_core::{Simulator, SystemConfig, ThreadProgram, Transaction, TxOp, WorkItem};
//! use tcc_types::Addr;
//!
//! // Two processors increment disjoint counters transactionally.
//! let mut cfg = SystemConfig::with_procs(2);
//! cfg.check_serializability = true;
//! let programs: Vec<ThreadProgram> = (0..2u64)
//!     .map(|p| {
//!         let tx = Transaction::new(vec![
//!             TxOp::Load(Addr(p * 256)),
//!             TxOp::Compute(20),
//!             TxOp::Store(Addr(p * 256)),
//!         ]);
//!         ThreadProgram::new(vec![WorkItem::Tx(tx)])
//!     })
//!     .collect();
//! let result = Simulator::builder(cfg)
//!     .programs(programs)
//!     .build()?
//!     .try_run()?;
//! assert_eq!(result.commits, 2);
//! assert_eq!(result.violations, 0);
//! result.assert_serializable();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`Simulator::try_run`] is the default path: stalls (deadlock, cycle
//! limit, watchdog, transport retry exhaustion) come back as typed
//! [`RunError`] values. The panicking [`Simulator::run`] remains as a
//! convenience for tests and examples that treat a stall as a bug.

#[cfg(test)]
mod baseline;
mod breakdown;
mod checker;
mod config;
mod driver;
mod processor;
mod profiling;
mod program;
mod protocol;
mod serialized;
mod sim;
mod stall;
mod tardis;

pub use breakdown::{Breakdown, TxCharacteristics};
pub use checker::{Checker, SerializabilityError, TxRecord};
pub use config::{ConfigError, ParallelConfig, SystemConfig};
pub use driver::ProcCounters;
pub use profiling::{LineConflicts, ProfileReport, StarvationEvent, ViolationEvent};
pub use program::{ThreadProgram, Transaction, TxOp, WorkItem};
pub use sim::{ResumeError, SimResult, Simulator, SimulatorBuilder, Step};
// Re-exported so backend selection does not require a tcc-types import.
pub use stall::{RunError, RunProvenance, StallDiagnostic, StallReason};
pub use tcc_types::ProtocolKind;
// Re-exported so downstream crates can enable the reliable transport
// and the watchdog without depending on tcc-network/tcc-engine
// directly (`WorkerBudget` for tccbench's host report).
pub use tcc_engine::{WatchdogConfig, WorkerBudget};
pub use tcc_network::TransportConfig;
// Re-exported so checkpoint producers/consumers (bench soak harness,
// chaos explorer) get the container and journal types from tcc-core.
pub use tcc_snapshot::{Journal, JournalEntry, Snapshot, SnapshotError};
