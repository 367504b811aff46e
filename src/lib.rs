//! # scalable-tcc — a reproduction of Scalable TCC (HPCA 2007)
//!
//! This workspace reproduces *"A Scalable, Non-blocking Approach to
//! Transactional Memory"* (Chafi, Casper, Carlstrom, McDonald, Cao Minh,
//! Baek, Kozyrakis, Olukotun — HPCA 2007): the first directory-based,
//! livelock-free, lazy hardware transactional memory for distributed
//! shared-memory machines.
//!
//! The umbrella crate re-exports the workspace libraries under one
//! roof and hosts the runnable examples (`examples/`) and cross-crate
//! integration tests (`tests/`):
//!
//! * [`core`] — the Scalable TCC protocol, full-system simulator,
//!   serialized-commit baseline, and serializability checker.
//! * [`workloads`] — the eleven synthetic applications of Table 3.
//! * [`stats`] — figure/table reductions and text rendering.
//! * [`trace`] — protocol event tracing, metrics, and the
//!   `BENCH_*.json` run-report / Chrome-trace exporters.
//! * [`traffic`] — production-traffic generation: open-loop arrival
//!   processes, key-popularity models, in-memory traces, and
//!   deterministic replay on both execution backends.
//! * [`cache`], [`directory`], [`network`], [`engine`], [`types`] — the
//!   hardware substrates.
//!
//! ## Quick start
//!
//! Simulators are constructed through the validating builder and run
//! with [`try_run`](core::Simulator::try_run), which reports stalls
//! (deadlock, cycle limit, watchdog, transport retry exhaustion) as
//! typed [`RunError`](core::RunError) values. The panicking
//! [`run`](core::Simulator::run) remains as a convenience where a stall
//! simply means "bug".
//!
//! ```
//! use scalable_tcc::prelude::*;
//!
//! let app = apps::specjbb();
//! let cfg = SystemConfig::with_procs(8);
//! let programs = app.generate_scaled(8, 42, Scale::Smoke);
//! let result = Simulator::builder(cfg)
//!     .programs(programs)
//!     .build()?
//!     .try_run()?;
//! assert!(result.commits > 0);
//! println!("{} commits in {} cycles", result.commits, result.total_cycles);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Choosing a coherence backend
//!
//! The simulator's event loop is protocol-agnostic: every commit/
//! coherence state machine is one backend of a closed set inside
//! [`core`], selected per run with
//! [`ProtocolKind`](types::ProtocolKind) — `Tcc` (the paper's scalable
//! non-blocking commit), `SerializedCommit` (the §2.2 token-serialized
//! baseline), or `Tardis` (timestamp-ordered coherence with lease-based
//! reads and zero invalidation traffic). All backends share the mesh,
//! transport, chaos injection, checkpointing, and the serializability
//! checker.
//!
//! ```
//! use scalable_tcc::prelude::*;
//!
//! let mut cfg = SystemConfig::with_procs(4);
//! cfg.protocol = ProtocolKind::Tardis;
//! cfg.check_serializability = true;
//! let programs = apps::radix().generate(4, 7);
//! let result = Simulator::builder(cfg)
//!     .programs(programs)
//!     .build()?
//!     .try_run()?;
//! result.assert_serializable();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `README.md` for the experiment index and `DESIGN.md` for the
//! system inventory and the documented deviations from the paper.

pub use tcc_cache as cache;
pub use tcc_core as core;
pub use tcc_directory as directory;
pub use tcc_engine as engine;
pub use tcc_network as network;
pub use tcc_stats as stats;
pub use tcc_trace as trace;
pub use tcc_traffic as traffic;
pub use tcc_types as types;
pub use tcc_workloads as workloads;

pub mod prelude {
    //! The names nearly every experiment, example, and test imports —
    //! construction ([`Simulator`], [`SystemConfig`], [`SimulatorBuilder`],
    //! [`ConfigError`]), backend selection ([`ProtocolKind`] — the
    //! serialized-commit baseline is `ProtocolKind::SerializedCommit`,
    //! with `SystemConfig::serial_execution` for OCC condition 1), results
    //! ([`SimResult`], [`RunError`]), workloads ([`apps`], [`Scale`],
    //! program-building types), and tracing ([`Tracer`], [`TraceConfig`]).
    //!
    //! ```
    //! use scalable_tcc::prelude::*;
    //!
    //! let cfg = SystemConfig::with_procs(2);
    //! let sim = Simulator::builder(cfg)
    //!     .programs(apps::radix().generate(2, 1))
    //!     .build()?;
    //! let result = sim.try_run()?;
    //! assert!(result.commits > 0);
    //! # Ok::<(), Box<dyn std::error::Error>>(())
    //! ```

    pub use tcc_core::{
        ConfigError, ProtocolKind, RunError, SimResult, Simulator, SimulatorBuilder, SystemConfig,
        ThreadProgram, Transaction, TxOp, WorkItem,
    };
    pub use tcc_trace::{TraceConfig, Tracer};
    pub use tcc_types::Addr;
    pub use tcc_workloads::{apps, Scale};
}
