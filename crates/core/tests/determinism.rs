//! Cross-run determinism regression for every protocol backend.
//!
//! Guard for the iteration-order caveat documented in
//! `tcc-types::hash`: any `FxHashMap`/`FxHashSet` whose iteration
//! order leaks into scheduling, message emission, or fingerprints
//! makes two identically-seeded runs diverge — most visibly in the
//! per-processor breakdowns, which fold in every cycle of every
//! processor. Two fresh builds of the same config + workload must
//! agree on the full result surface, for every `ProtocolKind`.

use tcc_core::{
    ProtocolKind, SimResult, Simulator, SystemConfig, ThreadProgram, Transaction, TxOp, WorkItem,
};
use tcc_types::rng::SmallRng;
use tcc_types::Addr;

fn random_programs(n_procs: usize, txs: usize, seed: u64) -> Vec<ThreadProgram> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n_procs)
        .map(|_| {
            let mut items = Vec::new();
            for t in 0..txs {
                let n_ops = rng.gen_range(1..=8);
                let mut ops = Vec::with_capacity(n_ops);
                for _ in 0..n_ops {
                    let line = rng.gen_range(0..6u64);
                    let word = rng.gen_range(0..8u64);
                    let addr = Addr(line * 32 + word * 4);
                    if rng.gen_bool(0.5) {
                        ops.push(TxOp::Store(addr));
                    } else {
                        ops.push(TxOp::Load(addr));
                    }
                    if rng.gen_bool(0.5) {
                        ops.push(TxOp::Compute(rng.gen_range(1..100)));
                    }
                }
                items.push(WorkItem::Tx(Transaction::new(ops)));
                if (t + 1) % 3 == 0 {
                    items.push(WorkItem::Barrier);
                }
            }
            ThreadProgram::new(items)
        })
        .collect()
}

fn run(cfg: &SystemConfig, programs: &[ThreadProgram]) -> SimResult {
    Simulator::builder(cfg.clone())
        .programs(programs.to_vec())
        .build()
        .expect("valid config")
        .try_run()
        .expect("run must complete")
}

/// Every per-processor observable that could catch an unordered-map
/// leak: the full breakdown rows, the protocol counters, and the
/// result fingerprint.
fn assert_identical(a: &SimResult, b: &SimResult, tag: &str) {
    assert_eq!(a.fingerprint(), b.fingerprint(), "{tag}: fingerprint");
    assert_eq!(a.total_cycles, b.total_cycles, "{tag}: makespan");
    assert_eq!(a.breakdowns.len(), b.breakdowns.len(), "{tag}");
    for (i, (x, y)) in a.breakdowns.iter().zip(&b.breakdowns).enumerate() {
        assert_eq!(x, y, "{tag}: proc {i} breakdown diverged between runs");
    }
    for (i, (x, y)) in a.proc_counters.iter().zip(&b.proc_counters).enumerate() {
        assert_eq!(x, y, "{tag}: proc {i} counters diverged between runs");
    }
    assert_eq!(a.events, b.events, "{tag}: events processed");
    assert_eq!(a.transport, b.transport, "{tag}: transport stats");
}

#[test]
fn identically_seeded_runs_agree_per_processor_for_every_protocol() {
    for kind in ProtocolKind::ALL {
        let mut cfg = SystemConfig::with_procs(4);
        cfg.protocol = kind;
        cfg.check_serializability = true;
        let programs = random_programs(4, 6, 0xD5E7);
        let a = run(&cfg, &programs);
        let b = run(&cfg, &programs);
        assert_identical(&a, &b, kind.as_str());
    }
}
