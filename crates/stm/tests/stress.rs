//! Multithreaded stress: atomicity invariants under sustained
//! contention, opacity for concurrent snapshot readers, livelock
//! freedom (every started transaction eventually commits — the tests
//! terminating *is* the assertion), and end-state gap-freedom of the
//! TID space.

use tcc_stm::{Stm, StmConfig, TVar};

fn spawn_all<F: FnOnce() + Send + 'static>(fs: Vec<F>) {
    let handles: Vec<_> = fs.into_iter().map(std::thread::spawn).collect();
    for h in handles {
        h.join().expect("stress thread panicked");
    }
}

/// Classic lost-update hunt: N threads × M read-modify-write increments
/// on one cell must sum exactly.
#[test]
fn concurrent_counter_is_exact() {
    let stm = Stm::new();
    let counter = stm.new_tvar(0u64);
    let threads = 4;
    let per_thread = 300u64;
    spawn_all(
        (0..threads)
            .map(|_| {
                let stm = stm.clone();
                let counter = counter.clone();
                move || {
                    for _ in 0..per_thread {
                        stm.atomically(|tx| {
                            let v = tx.read(&counter)?;
                            tx.write(&counter, v + 1)
                        });
                    }
                }
            })
            .collect(),
    );
    assert_eq!(
        stm.atomically(|tx| tx.read(&counter)),
        threads as u64 * per_thread
    );
    let stats = stm.stats();
    assert_eq!(stats.commits, threads as u64 * per_thread + 1);
}

/// Bank invariant under transfers plus concurrent full-snapshot
/// readers: the readers exercise opacity — a transaction must never
/// observe a torn (mid-transfer) state, even on attempts that would
/// later abort, because the sum assertion runs *inside* the closure.
#[test]
fn transfers_preserve_the_total_and_snapshots_are_opaque() {
    let stm = Stm::with_config(StmConfig {
        shards: 4,
        vendor_slots: 4,
        ..StmConfig::default()
    });
    let n_accounts = 8usize;
    let initial = 1_000u64;
    let accounts: Vec<TVar<u64>> = (0..n_accounts).map(|_| stm.new_tvar(initial)).collect();
    let total = initial * n_accounts as u64;

    let mut workers: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    // Two transfer threads with different (deterministic) walk patterns.
    for t in 0..2u64 {
        let stm = stm.clone();
        let accounts = accounts.clone();
        workers.push(Box::new(move || {
            for i in 0..400u64 {
                let from = ((i * 7 + t * 3) % n_accounts as u64) as usize;
                let to = ((i * 5 + t + 1) % n_accounts as u64) as usize;
                if from == to {
                    continue;
                }
                stm.atomically(|tx| {
                    let a = tx.read(&accounts[from])?;
                    let b = tx.read(&accounts[to])?;
                    let amount = (a / 2).min(i % 97);
                    tx.write(&accounts[from], a - amount)?;
                    tx.write(&accounts[to], b + amount)
                });
            }
        }));
    }
    // Two snapshot readers asserting the invariant inside the
    // transaction body.
    for _ in 0..2 {
        let stm = stm.clone();
        let accounts = accounts.clone();
        workers.push(Box::new(move || {
            for _ in 0..200 {
                let sum = stm.atomically(|tx| {
                    let mut sum = 0u64;
                    for acct in &accounts {
                        sum += tx.read(acct)?;
                    }
                    Ok(sum)
                });
                assert_eq!(sum, total, "torn snapshot escaped the STM");
            }
        }));
    }
    spawn_all(workers);

    let final_sum = stm.atomically(|tx| {
        let mut sum = 0u64;
        for acct in &accounts {
            sum += tx.read(acct)?;
        }
        Ok(sum)
    });
    assert_eq!(final_sum, total);
}

/// Worst-case starvation pressure: one shard, tiny vendor, immediate
/// escalation, every transaction touching the same cell. Termination
/// proves livelock freedom; the stats prove the starvation machinery
/// (not luck) is what delivered it.
#[test]
fn high_contention_single_shard_never_livelocks() {
    let stm = Stm::with_config(StmConfig {
        shards: 1,
        vendor_slots: 1,
        starvation_threshold: 1,
    });
    let hot = stm.new_tvar(0u64);
    let threads = 4;
    let per_thread = 150u64;
    spawn_all(
        (0..threads)
            .map(|_| {
                let stm = stm.clone();
                let hot = hot.clone();
                move || {
                    for _ in 0..per_thread {
                        let (_, receipt) = stm.run(|tx| {
                            let v = tx.read(&hot)?;
                            tx.write(&hot, v + 1)
                        });
                        // Bounded retries: early-TID mode guarantees
                        // commit within two executions of escalating.
                        assert!(
                            receipt.attempts <= 64,
                            "transaction needed {} attempts",
                            receipt.attempts
                        );
                    }
                }
            })
            .collect(),
    );
    assert_eq!(
        stm.atomically(|tx| tx.read(&hot)),
        threads as u64 * per_thread
    );
}

/// After any amount of churn, one final commit must leave the TID space
/// gap-free: every TID the vendor ever issued has been resolved at
/// every shard (NSTID == issued everywhere), i.e. no abort, handoff,
/// claim, or slot-exhaustion path ever lost a TID.
#[test]
fn tid_space_is_gap_free_after_stress() {
    let stm = Stm::with_config(StmConfig {
        shards: 8,
        vendor_slots: 2,
        starvation_threshold: 2,
    });
    let cells: Vec<TVar<u64>> = (0..16).map(|_| stm.new_tvar(0u64)).collect();
    spawn_all(
        (0..4u64)
            .map(|t| {
                let stm = stm.clone();
                let cells = cells.clone();
                move || {
                    for i in 0..250u64 {
                        let a = ((i + t) % 16) as usize;
                        let b = ((i * 3 + t * 5) % 16) as usize;
                        stm.atomically(|tx| {
                            let va = tx.read(&cells[a])?;
                            tx.write(&cells[b], va + 1)
                        });
                    }
                }
            })
            .collect(),
    );
    // A final transaction flushes any TID still parked in a handoff
    // slot (its commit claims and skips parked TIDs it stalls behind).
    stm.atomically(|tx| {
        let v = tx.read(&cells[0])?;
        tx.write(&cells[0], v)
    });
    let (issued, nstids) = stm.frontier();
    for (shard, nstid) in nstids.iter().enumerate() {
        assert_eq!(
            *nstid, issued,
            "shard {shard}: NSTID {nstid} != issued {issued} — a TID was lost"
        );
    }
    // Every issued TID is resolved at all shards exactly once: by its
    // committing owner, by a helper that claimed it out of a handoff
    // slot, or by its aborting owner when the slot was full. (Recycled
    // TIDs are re-vended, not resolved, so they don't appear here.)
    let stats = stm.stats();
    assert_eq!(
        stats.commits + stats.claimed_tids + stats.slot_exhausted,
        issued,
        "TID resolution accounting is off: {stats:?}"
    );
}
