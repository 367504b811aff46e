//! Deterministic trace replay: lowering to both execution backends.
//!
//! Two consumers read the same synthesized [`Trace`]:
//!
//! * [`sim_programs`] / [`run_sim_replay`] — lowering to
//!   [`tcc_core`] `ThreadProgram`s: record *i* dispatches to processor
//!   `i % n_procs` (a front-end load balancer), inter-arrival gaps
//!   become leading `Compute` pacing so the open-loop schedule
//!   survives the translation, keys map to words of the shared region,
//!   and writes become read-modify-writes.
//! * [`run_stm_replay`] — replay on the real-thread STM
//!   ([`tcc_stm`]): each thread takes its round-robin shard, *waits*
//!   for each transaction's scheduled arrival (open loop: latency
//!   absorbs overload, arrivals never throttle), and measures
//!   scheduled-arrival→commit latency, which includes queueing delay.

use std::time::{Duration, Instant};

use tcc_core::{
    ConfigError, SimResult, Simulator, SystemConfig, ThreadProgram, Transaction, TxOp, WorkItem,
};
use tcc_trace::{Histogram, TraceConfig};
use tcc_types::Addr;

use crate::shapes::TrafficOp;
use crate::trace::Trace;

/// First line of the shared region keys map into (below the private
/// region at `1 << 20`; matches the `tcc-workloads` address layout).
const SHARED_BASE_LINE: u64 = 1 << 10;
/// Line geometry of the default Table 2 cache (32-byte lines, 4-byte
/// words).
const WORDS_PER_LINE: u64 = 8;
const LINE_BYTES: u64 = 32;

/// Maps a logical key to a word address in the shared region. Eight
/// keys share a cache line; the protocol's word-granularity conflict
/// detection keeps them conflict-free, and line homes (`line %
/// n_procs`) spread the directory load.
#[must_use]
pub fn key_addr(key: u64) -> Addr {
    let line = SHARED_BASE_LINE + key / WORDS_PER_LINE;
    Addr(line * LINE_BYTES + (key % WORDS_PER_LINE) * 4)
}

/// Lowers the first `limit` records to one `ThreadProgram` per
/// processor. Record `i` goes to processor `i % n_procs`; the gap to
/// the processor's previous arrival becomes a leading `Compute`
/// (clamped to `u32::MAX` cycles), so relative pacing — bursts, lulls,
/// the diurnal envelope — survives lowering. Writes lower to
/// `Load`+`Store` (read-modify-write).
#[must_use]
pub fn sim_programs(
    trace: &Trace,
    n_procs: usize,
    cycles_per_tick: u64,
    limit: usize,
) -> Vec<ThreadProgram> {
    assert!(n_procs > 0, "need at least one processor");
    let mut items: Vec<Vec<WorkItem>> = vec![Vec::new(); n_procs];
    let mut last_at = vec![0u64; n_procs];
    for (i, tx) in trace.iter().take(limit).enumerate() {
        let p = i % n_procs;
        let gap_cycles = (tx.at - last_at[p]).saturating_mul(cycles_per_tick);
        last_at[p] = tx.at;
        let mut t = Transaction::with_capacity(tx.ops.len() * 2 + 1);
        if gap_cycles > 0 {
            t.push(TxOp::Compute(u32::try_from(gap_cycles).unwrap_or(u32::MAX)));
        }
        for op in &tx.ops {
            let addr = key_addr(op.key());
            match op {
                TrafficOp::Read(_) => t.push(TxOp::Load(addr)),
                TrafficOp::Write(_) => {
                    t.push(TxOp::Load(addr));
                    t.push(TxOp::Store(addr));
                }
            }
        }
        items[p].push(WorkItem::Tx(t));
    }
    items.into_iter().map(ThreadProgram::new).collect()
}

/// One simulator-backend replay measurement.
#[derive(Debug)]
pub struct SimReplay {
    /// Offered load: arrivals per million cycles (the trace's arrival
    /// span scaled by `cycles_per_tick`).
    pub offered_tx_per_mcycle: f64,
    /// Sustained completion rate: commits per million cycles of
    /// makespan.
    pub sustained_tx_per_mcycle: f64,
    /// Commit-phase latency histogram (cycles, TID acquire → commit
    /// multicast), from the `commit.latency` tcc-trace metric.
    pub commit_latency: Histogram,
    pub result: SimResult,
}

/// Replays the first `limit` records on the cycle-accurate simulator
/// with `n_procs` processors.
///
/// # Errors
///
/// Propagates [`ConfigError`] from the simulator builder.
pub fn run_sim_replay(
    trace: &Trace,
    n_procs: usize,
    cycles_per_tick: u64,
    limit: usize,
) -> Result<SimReplay, ConfigError> {
    let programs = sim_programs(trace, n_procs, cycles_per_tick, limit);
    let n = programs
        .iter()
        .map(ThreadProgram::transactions)
        .sum::<usize>() as u64;
    let span_ticks = trace.iter().take(limit).last().map_or(0, |tx| tx.at).max(1);
    let mut cfg = SystemConfig::with_procs(n_procs);
    cfg.trace = TraceConfig::metrics_only();
    let result = Simulator::builder(cfg).programs(programs).build()?.run();
    let commit_latency = result
        .trace
        .as_ref()
        .and_then(|t| t.metrics.histogram("commit.latency"))
        .cloned()
        .unwrap_or_default();
    let span_cycles = span_ticks.saturating_mul(cycles_per_tick).max(1);
    Ok(SimReplay {
        offered_tx_per_mcycle: n as f64 * 1e6 / span_cycles as f64,
        sustained_tx_per_mcycle: result.commits as f64 * 1e6 / result.total_cycles.max(1) as f64,
        commit_latency,
        result,
    })
}

/// One real-thread STM replay measurement.
#[derive(Debug)]
pub struct StmReplay {
    /// Offered load implied by the trace's arrival span at the chosen
    /// time scale, in transactions per second.
    pub offered_tx_per_s: f64,
    /// Completed transactions per wall-clock second.
    pub sustained_tx_per_s: f64,
    /// Transactions executed.
    pub completed: u64,
    /// Wall-clock of the whole replay.
    pub wall_s: f64,
    /// Scheduled-arrival→commit latency in nanoseconds (open-loop:
    /// includes time spent queued behind a saturated system).
    pub latency_ns: Histogram,
}

/// Replays the first `limit` records on the real-thread STM with
/// `threads` OS threads, `ns_per_tick` nanoseconds per trace tick.
///
/// Each thread takes the round-robin shard `i % threads`, spins until
/// each transaction's scheduled arrival, then runs it via
/// [`tcc_stm::Stm::atomically`]: reads accumulate into a running sum,
/// writes store it (the same arithmetic as the STM bench, so conflicts
/// are real read-modify-write conflicts).
#[must_use]
pub fn run_stm_replay(trace: &Trace, threads: usize, ns_per_tick: u64, limit: usize) -> StmReplay {
    let threads = threads.max(1);
    let txs: Vec<crate::shapes::TrafficTx> = trace.iter().take(limit).collect();
    let n_keys = trace.n_keys() as usize;
    let stm = tcc_stm::Stm::new();
    let cells: Vec<tcc_stm::TVar<u64>> = (0..n_keys).map(|_| stm.new_tvar(0u64)).collect();
    let span_ticks = txs.last().map_or(0, |tx| tx.at).max(1);
    let start = Instant::now();
    let shards: Vec<(Histogram, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let stm = stm.clone();
                let txs = &txs;
                let cells = &cells;
                scope.spawn(move || {
                    let mut h = Histogram::default();
                    let mut done = 0u64;
                    for tx in txs.iter().skip(w).step_by(threads) {
                        let due = Duration::from_nanos(tx.at.saturating_mul(ns_per_tick));
                        // Open loop: wait for the scheduled arrival
                        // (sleep coarse, spin fine); if we are behind,
                        // start immediately — the lateness shows up as
                        // latency, never as reduced offered load.
                        loop {
                            let elapsed = start.elapsed();
                            if elapsed >= due {
                                break;
                            }
                            let wait = due - elapsed;
                            if wait > Duration::from_micros(200) {
                                std::thread::sleep(wait - Duration::from_micros(100));
                            } else {
                                std::hint::spin_loop();
                            }
                        }
                        stm.atomically(|t| {
                            let mut sum = 0u64;
                            for op in &tx.ops {
                                match *op {
                                    TrafficOp::Read(k) => {
                                        sum = sum.wrapping_add(t.read(&cells[k as usize])?);
                                    }
                                    TrafficOp::Write(k) => {
                                        sum = sum.wrapping_add(t.read(&cells[k as usize])?);
                                        t.write(&cells[k as usize], sum)?;
                                    }
                                }
                            }
                            Ok(())
                        });
                        let latency = start.elapsed().saturating_sub(due);
                        h.record(latency.as_nanos() as u64);
                        done += 1;
                    }
                    (h, done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stm replay thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut latency = Histogram::default();
    let mut completed = 0u64;
    for (h, n) in &shards {
        latency.merge(h);
        completed += n;
    }
    StmReplay {
        offered_tx_per_s: txs.len() as f64 * 1e9 / (span_ticks * ns_per_tick).max(1) as f64,
        sustained_tx_per_s: completed as f64 / wall_s.max(1e-9),
        completed,
        wall_s,
        latency_ns: latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;
    use crate::synthesize;

    #[test]
    fn key_addr_spreads_homes_and_separates_words() {
        let a = key_addr(0);
        let b = key_addr(1);
        let c = key_addr(8);
        assert_ne!(a, b, "adjacent keys get distinct words");
        assert_eq!(a.0 / LINE_BYTES, b.0 / LINE_BYTES, "…of the same line");
        assert_ne!(
            a.0 / LINE_BYTES,
            c.0 / LINE_BYTES,
            "key 8 starts a new line"
        );
        assert!(a.0 / LINE_BYTES >= SHARED_BASE_LINE);
    }

    #[test]
    fn sim_programs_preserve_work_and_pace() {
        let trace = synthesize(&scenarios::zipfian_steady(), 200).expect("synth");
        let programs = sim_programs(&trace, 4, 2, 200);
        assert_eq!(programs.len(), 4);
        let total: usize = programs.iter().map(ThreadProgram::transactions).sum();
        assert_eq!(total, 200, "every record lowers to exactly one tx");
        // Pacing gaps exist: some transaction must lead with Compute.
        let has_pacing = programs.iter().any(|p| {
            p.items
                .iter()
                .any(|i| matches!(i, WorkItem::Tx(t) if matches!(t.op(0), Some(TxOp::Compute(_)))))
        });
        assert!(has_pacing, "open-loop pacing vanished in lowering");
    }

    #[test]
    fn sim_replay_commits_every_arrival() {
        let trace = synthesize(&scenarios::zipfian_steady(), 300).expect("synth");
        let r = run_sim_replay(&trace, 4, 2, 300).expect("valid config");
        assert_eq!(r.result.commits, 300);
        assert!(r.commit_latency.count() > 0, "commit latency was traced");
        assert!(r.offered_tx_per_mcycle > 0.0);
        assert!(r.sustained_tx_per_mcycle > 0.0);
    }

    #[test]
    fn stm_replay_completes_the_shard_union() {
        let trace = synthesize(&scenarios::zipfian_steady(), 400).expect("synth");
        // Fast time scale: the replay finishes quickly regardless of
        // host speed.
        let r = run_stm_replay(&trace, 4, 1, 400);
        assert_eq!(r.completed, 400);
        assert_eq!(r.latency_ns.count(), 400);
        assert!(r.offered_tx_per_s > 0.0);
    }
}
