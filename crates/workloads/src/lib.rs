//! Synthetic application workloads for the Scalable TCC reproduction.
//!
//! The paper evaluates eleven applications (§4.1, Table 3): barnes,
//! Cluster GA, equake, radix, SPECjbb2000, SVM Classify, swim, tomcatv,
//! volrend, water-nsquared, and water-spatial — compiled PowerPC
//! binaries with the code between barriers converted to continuous
//! transactions. We cannot run those binaries, so each application is
//! reproduced as a **parameterized transaction-trace generator**
//! ([`AppProfile`]) tuned to the characteristics the paper reports:
//!
//! * 90th-percentile transaction size in instructions (200 … 45 000),
//! * read-/write-set sizes (read ≤ 16 KB, write ≤ 8 KB at the 90th
//!   percentile),
//! * operations per word written (≈ 6 … 640),
//! * directories touched per commit (1–2 common; radix touches all),
//! * sharing/communication intensity and barrier structure.
//!
//! These are the protocol-relevant properties that drive every figure:
//! commit bandwidth, conflict rates, locality, and traffic. The per-app
//! parameter values live in [`apps`]; DESIGN.md documents the
//! substitution.
//!
//! # Example
//!
//! ```
//! use tcc_workloads::apps;
//!
//! let app = apps::by_name("swim").expect("known app");
//! let programs = app.generate(4, 0x5eed);
//! assert_eq!(programs.len(), 4);
//! // swim's transactions are huge (tens of thousands of instructions).
//! let total: u64 = programs.iter().map(|p| p.instructions()).sum();
//! assert!(total > 100_000);
//! ```

pub mod apps;
mod profile;
pub mod sampling;
pub mod stm;

pub use profile::{AppProfile, Scale};
