//! `tcc-traffic`: production-traffic generation, in-memory traces,
//! and deterministic replay for the TCC stack.
//!
//! The paper's workloads are closed-loop microbenchmarks: each
//! processor issues its next transaction the instant the previous one
//! commits, so offered load self-throttles to whatever the system
//! sustains. Production traffic is the opposite — **open-loop**: users
//! arrive on their own schedule (bursts, diurnal swings), fight over a
//! skewed and *moving* hot set, and when the system saturates, the
//! overload shows up as latency, not as a politely reduced request
//! rate. This crate synthesizes that kind of traffic deterministically
//! and replays it on both execution backends:
//!
//! * [`config`] — scenario descriptions ([`TrafficConfig`]) with
//!   field+hint validation;
//! * [`arrival`] — seeded open-loop arrival processes (Poisson,
//!   bursty/MMPP-2, diurnal envelope);
//! * [`popularity`] — key-popularity models (uniform, Zipfian(θ),
//!   hot-key migration);
//! * [`shapes`] — application shapes: KV mixes, graph traversal with
//!   hot supernodes, and TPC-C-lite order/payment;
//! * [`trace`] — the in-memory [`Trace`]: delta-encoded LEB128
//!   records and the fingerprint the goldens pin;
//! * [`replay`] — lowering to `tcc-core` simulator programs and
//!   `tcc-stm` real-thread transactions;
//! * [`scenarios`] — the four named presets the bench harness and CI
//!   sweep.
//!
//! The contract throughout: the same `(config, seed)` synthesizes the
//! identical trace, and with it the identical fingerprint.
//!
//! ```
//! use tcc_traffic::{scenarios, synthesize};
//!
//! let cfg = scenarios::zipfian_steady();
//! let trace = synthesize(&cfg, 1_000).unwrap();
//! assert_eq!(trace.n_records(), 1_000);
//! // The same config and seed synthesize the same trace.
//! assert_eq!(synthesize(&cfg, 1_000).unwrap().fingerprint(), trace.fingerprint());
//! ```

pub mod arrival;
pub mod config;
pub mod popularity;
pub mod replay;
pub mod scenarios;
pub mod shapes;
pub mod trace;

pub use arrival::ArrivalProcess;
pub use config::{ArrivalConfig, PopularityConfig, ShapeConfig, TrafficConfig};
pub use popularity::Popularity;
pub use replay::{run_sim_replay, run_stm_replay, SimReplay, StmReplay};
pub use shapes::{Shape, TrafficOp, TrafficTx};
pub use trace::Trace;

use tcc_core::ConfigError;
use tcc_workloads::sampling::stream_rng;

/// Stream index of the arrival-timing RNG.
const STREAM_ARRIVAL: u64 = 0;
/// Stream index of the op-generation RNG (popularity draws + shape
/// choices).
const STREAM_OPS: u64 = 1;

/// Synthesizes `n_txs` transactions of the scenario into a [`Trace`].
///
/// Arrival timing and op generation draw from two independent RNG
/// streams derived from the scenario seed, so changing a shape
/// parameter never perturbs the arrival schedule (and vice versa).
/// Synthesis is single-pass and allocation-light: ~10⁶ transactions
/// synthesize in well under a second.
///
/// # Errors
///
/// Returns the [`ConfigError`] from [`TrafficConfig::validate`] if the
/// scenario is degenerate.
pub fn synthesize(cfg: &TrafficConfig, n_txs: usize) -> Result<Trace, ConfigError> {
    cfg.validate()?;
    let mut arrival_rng = stream_rng(cfg.seed, STREAM_ARRIVAL);
    let mut ops_rng = stream_rng(cfg.seed, STREAM_OPS);
    let mut arrivals = ArrivalProcess::new(cfg.arrival.clone());
    let pop = Popularity::new(&cfg.popularity);
    let shape = Shape::new(&cfg.shape, cfg.popularity.n_keys());
    let mut trace = Trace::new(&cfg.scenario, cfg.key_space() as u64);
    let mut ops = Vec::new();
    for _ in 0..n_txs {
        let at = arrivals.next_at(&mut arrival_rng);
        shape.generate(at, &pop, &mut ops_rng, &mut ops);
        trace.push(at, &ops);
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesize_rejects_invalid_configs() {
        let mut cfg = scenarios::zipfian_steady();
        cfg.popularity = PopularityConfig::Zipfian {
            n_keys: 0,
            theta: 0.9,
        };
        let e = synthesize(&cfg, 10).unwrap_err();
        assert_eq!(e.field(), "popularity.n_keys");
    }

    #[test]
    fn every_preset_synthesizes() {
        for cfg in scenarios::all() {
            let trace = synthesize(&cfg, 500).expect("preset is valid");
            assert_eq!(trace.n_records(), 500);
            assert_eq!(trace.scenario(), cfg.scenario);
            assert_eq!(trace.n_keys(), cfg.key_space() as u64);
            // Every op addresses the declared key space.
            for tx in trace.iter() {
                for op in &tx.ops {
                    assert!(op.key() < trace.n_keys());
                }
            }
        }
    }

    #[test]
    fn shape_changes_do_not_perturb_arrival_schedule() {
        let a = scenarios::zipfian_steady();
        let mut b = a.clone();
        b.shape = ShapeConfig::Kv {
            reads_per_tx: 1,
            writes_per_tx: 7,
        };
        let ta = synthesize(&a, 300).unwrap();
        let tb = synthesize(&b, 300).unwrap();
        let at_a: Vec<u64> = ta.iter().map(|t| t.at).collect();
        let at_b: Vec<u64> = tb.iter().map(|t| t.at).collect();
        assert_eq!(at_a, at_b, "independent streams: timing is shape-invariant");
    }
}
