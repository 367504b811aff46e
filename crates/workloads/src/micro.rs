//! Micro-workloads: small hand-shaped transactional kernels.
//!
//! Unlike the calibrated application profiles in [`crate::apps`], these
//! are minimal, fully-understood kernels for targeted measurement and
//! teaching: each isolates exactly one protocol behaviour (contention,
//! producer-consumer forwarding, commit pressure, embarrassing
//! parallelism). The examples, integration tests, and ablations build
//! on them.

use tcc_core::{ThreadProgram, Transaction, TxOp, WorkItem};
use tcc_types::Addr;

/// Byte address of word `word` of cache line `line` (32-byte lines).
#[must_use]
fn addr(line: u64, word: u64) -> Addr {
    Addr(line * 32 + (word % 8) * 4)
}

/// Every processor read-modify-writes the *same* word `txs` times — the
/// maximally contended kernel. Exactly one transaction wins each round;
/// everyone else violates and retries.
#[must_use]
pub fn contended_counter(n_procs: usize, txs: usize) -> Vec<ThreadProgram> {
    let counter = addr(64, 0);
    (0..n_procs)
        .map(|_| {
            let items = (0..txs)
                .map(|_| {
                    WorkItem::Tx(Transaction::new(vec![
                        TxOp::Load(counter),
                        TxOp::Compute(30),
                        TxOp::Store(counter),
                    ]))
                })
                .collect();
            ThreadProgram::new(items)
        })
        .collect()
}

/// Processor 0 writes `lines` lines; after a barrier every other
/// processor reads them all — pure producer-consumer through the
/// write-back protocol (owner forwards, no conflicts).
#[must_use]
pub fn producer_consumer(n_procs: usize, lines: u64) -> Vec<ThreadProgram> {
    assert!(n_procs >= 2, "need a producer and at least one consumer");
    let produce: Transaction = (0..lines).map(|l| TxOp::Store(addr(1000 + l, l))).collect();
    let consume: Transaction = (0..lines).map(|l| TxOp::Load(addr(1000 + l, l))).collect();
    let idle = Transaction::new(vec![TxOp::Compute(1)]);
    (0..n_procs)
        .map(|p| {
            if p == 0 {
                ThreadProgram::new(vec![
                    WorkItem::Tx(produce.clone()),
                    WorkItem::Barrier,
                    WorkItem::Tx(idle.clone()),
                ])
            } else {
                ThreadProgram::new(vec![
                    WorkItem::Tx(idle.clone()),
                    WorkItem::Barrier,
                    WorkItem::Tx(consume.clone()),
                ])
            }
        })
        .collect()
}

/// Every processor runs `txs` *tiny* transactions over private data —
/// pure commit-protocol pressure with zero conflicts (the volrend limit
/// case, distilled).
#[must_use]
pub fn commit_storm(n_procs: usize, txs: usize) -> Vec<ThreadProgram> {
    (0..n_procs as u64)
        .map(|p| {
            let items = (0..txs as u64)
                .map(|t| {
                    WorkItem::Tx(Transaction::new(vec![
                        TxOp::Compute(20),
                        TxOp::Store(addr(10_000 + p * 1024 + t % 16, t)),
                    ]))
                })
                .collect();
            ThreadProgram::new(items)
        })
        .collect()
}

/// Embarrassingly parallel: each processor computes over its own lines;
/// no sharing of any kind. The protocol-overhead floor.
#[must_use]
pub fn embarrassingly_parallel(n_procs: usize, txs: usize, work: u32) -> Vec<ThreadProgram> {
    (0..n_procs as u64)
        .map(|p| {
            let items = (0..txs as u64)
                .map(|t| {
                    WorkItem::Tx(Transaction::new(vec![
                        TxOp::Load(addr(20_000 + p * 256 + t % 64, 0)),
                        TxOp::Compute(work),
                        TxOp::Store(addr(20_000 + p * 256 + t % 64, 1)),
                    ]))
                })
                .collect();
            ThreadProgram::new(items)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcc_core::{Simulator, SystemConfig};

    fn checked(n: usize) -> SystemConfig {
        SystemConfig {
            check_serializability: true,
            ..SystemConfig::with_procs(n)
        }
    }

    #[test]
    fn contended_counter_serializes_increments() {
        let r = Simulator::builder(checked(4))
            .programs(contended_counter(4, 4))
            .build()
            .expect("valid config")
            .run();
        assert_eq!(r.commits, 16);
        assert!(r.violations > 0, "a contended counter must conflict");
        r.assert_serializable();
    }

    #[test]
    fn producer_consumer_forwards_without_conflicts() {
        let r = Simulator::builder(checked(4))
            .programs(producer_consumer(4, 16))
            .build()
            .expect("valid config")
            .run();
        assert_eq!(r.commits, 8);
        assert_eq!(r.violations, 0);
        r.assert_serializable();
    }

    #[test]
    fn commit_storm_commits_everything() {
        let r = Simulator::builder(checked(8))
            .programs(commit_storm(8, 10))
            .build()
            .expect("valid config")
            .run();
        assert_eq!(r.commits, 80);
        assert_eq!(r.violations, 0);
        r.assert_serializable();
    }

    #[test]
    fn embarrassingly_parallel_scales() {
        let t1 = Simulator::builder(checked(1))
            .programs(embarrassingly_parallel(1, 32, 500))
            .build()
            .expect("valid config")
            .run()
            .total_cycles;
        // Same per-proc work on 8 procs finishes in about the same time
        // (it is 8x the total work at 1x the makespan).
        let t8 = Simulator::builder(checked(8))
            .programs(embarrassingly_parallel(8, 32, 500))
            .build()
            .expect("valid config")
            .run()
            .total_cycles;
        assert!(
            (t8 as f64) < (t1 as f64) * 1.8,
            "independent work should not slow down together: {t1} vs {t8}"
        );
    }

    #[test]
    #[should_panic(expected = "need a producer")]
    fn producer_consumer_needs_two_procs() {
        let _ = producer_consumer(1, 4);
    }
}
