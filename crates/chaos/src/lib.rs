//! `tcc-chaos` — fault injection, adversarial schedule exploration, and
//! failure-case shrinking for the Scalable TCC simulator.
//!
//! The protocol's hardest correctness content is its §3.3 race
//! elimination on *unordered* interconnects. This crate promotes the
//! ad-hoc randomized schedules of `crates/core/tests/random.rs` into a
//! first-class subsystem with four parts:
//!
//! 1. **Adversarial schedules** — every run wraps the mesh in a seeded
//!    [`tcc_network::SeededInjector`] ([`progen::chaos_profile`] derives
//!    jitter, kind-targeted delays, and hot spots from one chaos seed)
//!    and can additionally permute same-cycle event ordering via the
//!    engine's seeded tie-break.
//! 2. **Exploration** ([`explorer`]) — (program seed × chaos seed ×
//!    config) grids swept through the full simulator in parallel on
//!    `std::thread` workers, with the serializability checker (plus
//!    commit counting and panic capture) as oracle.
//! 3. **Shrinking** ([`mod@shrink`]) — failing cases are minimized along
//!    both axes to a replayable JSON [`Scenario`] artifact, and the
//!    [`corpus`] loader turns checked-in artifacts into permanent
//!    regression tests.
//! 4. **Mutation self-test** — [`tcc_types::ProtocolBugs`] knobs
//!    disable individual race-elimination rules; the test suite proves
//!    the explorer catches every knob within a bounded seed budget, so
//!    the subsystem demonstrably has teeth.
//!
//! Everything is deterministic from explicit seeds and fully hermetic
//! (zero external crates): a failure found anywhere replays everywhere.

pub mod corpus;
pub mod explorer;
pub mod progen;
pub mod scenario;
pub mod shrink;

pub use corpus::{witnesses, Witness};
pub use explorer::{run_scenarios, seeds_to_first_failure, ExploreReport, GridSpec, Variant};
pub use progen::{chaos_profile, generate_programs, tie_break_for, ProgramSpec};
pub use scenario::{ConfigTweaks, Failure, POp, RunOutcome, Scenario};
pub use shrink::{shrink, ShrinkStats};
