//! The determinism suite: the contract that `(config, seed)` fully
//! determines the trace and that a lowered simulator replay is
//! deterministic.

use tcc_core::{Simulator, SystemConfig};
use tcc_traffic::{replay, scenarios, synthesize};

#[test]
fn synthesis_is_byte_identical_across_runs() {
    for cfg in scenarios::all() {
        let a = synthesize(&cfg, 2_000).expect("valid");
        let b = synthesize(&cfg, 2_000).expect("valid");
        assert!(a == b, "scenario {} is not deterministic", cfg.scenario);
    }
}

#[test]
fn seed_changes_the_trace() {
    let a = scenarios::zipfian_steady();
    let mut b = a.clone();
    b.seed ^= 1;
    let ta = synthesize(&a, 1_000).expect("valid");
    let tb = synthesize(&b, 1_000).expect("valid");
    assert_ne!(ta.fingerprint(), tb.fingerprint());
}

/// A lowered simulator replay commits every transaction of the trace,
/// and two runs agree on the cycle count.
#[test]
fn sim_replay_commits_every_lowered_transaction() {
    let cfg = scenarios::zipfian_steady();
    let trace = synthesize(&cfg, 400).expect("valid");
    let run = || {
        let programs = replay::sim_programs(&trace, 4, 2, 400);
        Simulator::builder(SystemConfig::with_procs(4))
            .programs(programs)
            .build()
            .expect("valid config")
            .run()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.commits, 400);
    assert_eq!(
        (a.total_cycles, a.commits),
        (b.total_cycles, b.commits),
        "replay is not deterministic"
    );
}
