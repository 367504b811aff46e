//! Differential tests of the deterministic parallel execution engine.
//!
//! The contract under test: with `cfg.parallel` set, the sharded
//! windowed engine produces a [`SimResult`] whose fingerprint is
//! byte-identical at every worker count, and — under the default FIFO
//! tie-break — identical to the classic single-threaded engine's,
//! across protocol variants, barrier placement, network parameters,
//! chaos fault injection, and the reliable transport.

use tcc_core::{
    ParallelConfig, RunError, SimResult, Simulator, StallReason, SystemConfig, ThreadProgram,
    Transaction, TransportConfig, TxOp, WatchdogConfig, WorkItem, WorkerBudget,
};
use tcc_network::{ChaosConfig, DropRule, DupRule};
use tcc_trace::TraceConfig;
use tcc_types::rng::SmallRng;
use tcc_types::Addr;

/// Worker counts exercised for every differential case. The container
/// running CI may have a single core, so the parallel configs
/// oversubscribe: the engine must be schedule-independent, and real
/// preemption on one core is the harshest scheduler available.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn parallel_cfg(base: &SystemConfig, workers: usize) -> SystemConfig {
    let mut cfg = base.clone();
    cfg.parallel = Some(ParallelConfig {
        workers,
        oversubscribe: true,
    });
    cfg
}

fn run(cfg: SystemConfig, programs: &[ThreadProgram]) -> SimResult {
    Simulator::builder(cfg)
        .programs(programs.to_vec())
        .build()
        .expect("valid config")
        .try_run()
        .expect("run must complete")
}

/// Runs `cfg` classic and parallel at every worker count; asserts all
/// fingerprints are byte-identical and the history is serializable
/// when the checker is on. The multi-worker runs carry a metrics-only
/// tracer; returns the fewest parallel windows any of them ran, so a
/// case can prove it exercised the threaded path and not only merged
/// windows.
fn assert_differential(cfg: &SystemConfig, programs: &[ThreadProgram], tag: &str) -> u64 {
    assert!(cfg.parallel.is_none(), "base config must be classic");
    let classic = run(cfg.clone(), programs);
    if cfg.check_serializability {
        classic.assert_serializable();
    }
    let mut parallel_windows = u64::MAX;
    for workers in WORKER_COUNTS {
        let mut pcfg = parallel_cfg(cfg, workers);
        if workers >= 2 {
            pcfg.trace = TraceConfig::metrics_only();
        }
        let par = run(pcfg, programs);
        assert_eq!(
            classic.fingerprint(),
            par.fingerprint(),
            "{tag}: parallel({workers}) diverged from classic\n\
             classic: cycles={} commits={} violations={} events={}\n\
             par:     cycles={} commits={} violations={} events={}",
            classic.total_cycles,
            classic.commits,
            classic.violations,
            classic.events,
            par.total_cycles,
            par.commits,
            par.violations,
            par.events,
        );
        assert_eq!(classic.transport, par.transport, "{tag}: transport stats");
        assert_eq!(classic.tx_chars.len(), par.tx_chars.len(), "{tag}");
        if cfg.check_serializability {
            par.assert_serializable();
        }
        if let Some(trace) = &par.trace {
            let windows = trace.metrics.counter("par.windows.parallel");
            parallel_windows = parallel_windows.min(windows);
        }
    }
    parallel_windows
}

// ---------------------------------------------------------------------
// Workload generation (mirrors tests/random.rs: hot regions, frequent
// conflicts, optional barriers).
// ---------------------------------------------------------------------

struct Spec {
    n_procs: usize,
    txs_per_proc: usize,
    max_ops: usize,
    n_lines: u64,
    store_fraction: f64,
    barrier_every: Option<usize>,
}

fn random_programs(spec: &Spec, seed: u64) -> Vec<ThreadProgram> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..spec.n_procs)
        .map(|_| {
            let mut items = Vec::new();
            for t in 0..spec.txs_per_proc {
                let n_ops = rng.gen_range(1..=spec.max_ops);
                let mut ops = Vec::with_capacity(n_ops);
                for _ in 0..n_ops {
                    let line = rng.gen_range(0..spec.n_lines);
                    let word = rng.gen_range(0..8u64);
                    let addr = Addr(line * 32 + word * 4);
                    if rng.gen_bool(spec.store_fraction) {
                        ops.push(TxOp::Store(addr));
                    } else {
                        ops.push(TxOp::Load(addr));
                    }
                    if rng.gen_bool(0.5) {
                        ops.push(TxOp::Compute(rng.gen_range(1..200)));
                    }
                }
                items.push(WorkItem::Tx(Transaction::new(ops)));
                if let Some(k) = spec.barrier_every {
                    if (t + 1) % k == 0 {
                        items.push(WorkItem::Barrier);
                    }
                }
            }
            ThreadProgram::new(items)
        })
        .collect()
}

fn checked_cfg(n: usize) -> SystemConfig {
    SystemConfig {
        check_serializability: true,
        ..SystemConfig::with_procs(n)
    }
}

// ---------------------------------------------------------------------
// FIFO exactness: parallel == classic, byte for byte.
// ---------------------------------------------------------------------

#[test]
fn hot_contention_matches_classic() {
    for seed in 0..6 {
        let spec = Spec {
            n_procs: 4,
            txs_per_proc: 6,
            max_ops: 8,
            n_lines: 4,
            store_fraction: 0.5,
            barrier_every: None,
        };
        let programs = random_programs(&spec, seed);
        let tag = format!("hot/{seed}");
        let windows = assert_differential(&checked_cfg(4), &programs, &tag);
        assert!(windows > 0, "{tag}: no parallel window ran");
    }
}

#[test]
fn barriers_match_classic() {
    // Barrier windows force the merged sequential path; interleaving
    // them with parallel windows must not perturb anything.
    for seed in 50..54 {
        let spec = Spec {
            n_procs: 8,
            txs_per_proc: 5,
            max_ops: 8,
            n_lines: 12,
            store_fraction: 0.4,
            barrier_every: Some(2),
        };
        let programs = random_programs(&spec, seed);
        let tag = format!("barrier/{seed}");
        let windows = assert_differential(&checked_cfg(8), &programs, &tag);
        assert!(windows > 0, "{tag}: no parallel window ran");
    }
}

#[test]
fn barrier_per_transaction_matches_classic() {
    // The pathological case: a barrier after every transaction keeps
    // the engine almost permanently in sequential windows.
    let spec = Spec {
        n_procs: 4,
        txs_per_proc: 4,
        max_ops: 5,
        n_lines: 4,
        store_fraction: 0.5,
        barrier_every: Some(1),
    };
    let programs = random_programs(&spec, 99);
    assert_differential(&checked_cfg(4), &programs, "barrier-every-tx");
}

#[test]
fn network_extremes_match_classic() {
    // Window width B tracks 1 + link_latency: exercise both a wide
    // window (slow links) and the minimum-width window (fast links).
    for (tag, link) in [("slow", 16u64), ("fast", 1)] {
        let spec = Spec {
            n_procs: 8,
            txs_per_proc: 4,
            max_ops: 8,
            n_lines: 8,
            store_fraction: 0.5,
            barrier_every: None,
        };
        let programs = random_programs(&spec, 7);
        let mut cfg = checked_cfg(8);
        cfg.network.link_latency = link;
        assert_differential(&cfg, &programs, &format!("net/{tag}"));
    }
}

#[test]
fn protocol_variants_match_classic() {
    // Owner-drop flush mode, line granularity, tight starvation
    // threshold, tiny caches (overflow spills), and a small directory
    // cache: every protocol-variant code path runs identically.
    let spec = Spec {
        n_procs: 4,
        txs_per_proc: 5,
        max_ops: 8,
        n_lines: 6,
        store_fraction: 0.5,
        barrier_every: None,
    };
    let programs = random_programs(&spec, 11);

    let mut cfg = checked_cfg(4);
    cfg.owner_flush_keeps_line = false;
    cfg.starvation_threshold = 1;
    assert_differential(&cfg, &programs, "variant/owner-drop");

    let mut cfg = checked_cfg(4);
    cfg.cache.granularity = tcc_cache::Granularity::Line;
    assert_differential(&cfg, &programs, "variant/line-granularity");

    let mut cfg = checked_cfg(4);
    cfg.cache.l1_bytes = 64;
    cfg.cache.l1_ways = 1;
    cfg.cache.l2_bytes = 256;
    cfg.cache.l2_ways = 2;
    cfg.dir_cache_entries = Some(4);
    assert_differential(&cfg, &programs, "variant/tiny-caches");
}

#[test]
fn single_proc_machine_matches_classic() {
    // One shard: every window takes the <=1-active-shard sequential
    // path. Degenerate but must still be exact.
    let spec = Spec {
        n_procs: 1,
        txs_per_proc: 6,
        max_ops: 8,
        n_lines: 4,
        store_fraction: 0.5,
        barrier_every: Some(2),
    };
    let programs = random_programs(&spec, 3);
    assert_differential(&checked_cfg(1), &programs, "single-proc");
}

// ---------------------------------------------------------------------
// Chaos + reliable transport.
// ---------------------------------------------------------------------

fn lossy_chaos(seed: u64, drop_prob: f64) -> ChaosConfig {
    ChaosConfig {
        seed,
        drops: vec![DropRule {
            kind: "*".to_string(),
            prob: drop_prob,
            from: 0,
            until: u64::MAX,
        }],
        dups: vec![DupRule {
            kind: "*".to_string(),
            prob: 0.2,
            delay: 11,
            from: 0,
            until: u64::MAX,
        }],
        reorder: 40,
        reorder_prob: 0.4,
        ..ChaosConfig::default()
    }
}

fn contended_programs(n: u64, txs: u64) -> Vec<ThreadProgram> {
    (0..n)
        .map(|p| {
            let items = (0..txs)
                .map(|i| {
                    WorkItem::Tx(Transaction::new(vec![
                        TxOp::Load(Addr(((p + i) % n) * 32)),
                        TxOp::Store(Addr(((p + i + 1) % n) * 32 + 4)),
                        TxOp::Compute(40),
                    ]))
                })
                .collect();
            ThreadProgram::new(items)
        })
        .collect()
}

#[test]
fn reliable_transport_matches_classic() {
    // Transport without chaos: per-node channel state sharded across
    // workers must sequence, ack, and deliver identically.
    let mut cfg = checked_cfg(4);
    cfg.transport = Some(TransportConfig::default());
    let programs = contended_programs(4, 6);
    assert_differential(&cfg, &programs, "transport/clean");
}

#[test]
fn lossy_wire_matches_classic() {
    // Chaos defers every send to the join so the injector's RNG draws
    // replay in classic order: drops, dups, and reordering must land
    // on exactly the same frames.
    for seed in 0..3 {
        let mut cfg = checked_cfg(4);
        cfg.chaos = Some(lossy_chaos(seed, 0.10));
        cfg.transport = Some(TransportConfig::default());
        cfg.watchdog = Some(WatchdogConfig::default());
        let programs = contended_programs(4, 6);
        assert_differential(&cfg, &programs, &format!("chaos/{seed}"));
    }
    // A 4-entry directory cache on the same lossy wire, over enough
    // lines (16 per home) that entries spill: miss surcharges shift
    // home service times, and with them every later frame's wire fate.
    let spec = Spec {
        n_procs: 4,
        txs_per_proc: 8,
        max_ops: 8,
        n_lines: 64,
        store_fraction: 0.4,
        barrier_every: None,
    };
    let programs = random_programs(&spec, 5);
    let mut cfg = checked_cfg(4);
    cfg.chaos = Some(lossy_chaos(0, 0.10));
    cfg.transport = Some(TransportConfig::default());
    cfg.watchdog = Some(WatchdogConfig::default());
    let uncached = run(cfg.clone(), &programs);
    cfg.dir_cache_entries = Some(4);
    assert_ne!(
        run(cfg.clone(), &programs).fingerprint(),
        uncached.fingerprint(),
        "the directory cache must miss on this workload"
    );
    assert_differential(&cfg, &programs, "chaos/dir-cache");
}

// ---------------------------------------------------------------------
// Typed stalls: end conditions must be reported identically.
// ---------------------------------------------------------------------

#[test]
fn cycle_limit_stall_matches_classic() {
    let spec = Spec {
        n_procs: 4,
        txs_per_proc: 6,
        max_ops: 8,
        n_lines: 4,
        store_fraction: 0.5,
        barrier_every: None,
    };
    let programs = random_programs(&spec, 21);
    let mut base = checked_cfg(4);
    base.max_cycles = 2_000;
    let classic = Simulator::builder(base.clone())
        .programs(programs.clone())
        .build()
        .unwrap()
        .try_run()
        .expect_err("2k cycles is not enough");
    let RunError::Stalled(cdiag) = classic;
    assert!(matches!(cdiag.reason, StallReason::CycleLimit { .. }));
    for workers in WORKER_COUNTS {
        let err = Simulator::builder(parallel_cfg(&base, workers))
            .programs(programs.clone())
            .build()
            .unwrap()
            .try_run()
            .expect_err("parallel must hit the same limit");
        let RunError::Stalled(diag) = err;
        assert!(
            matches!(diag.reason, StallReason::CycleLimit { .. }),
            "workers {workers}: {:?}",
            diag.reason
        );
        assert_eq!(diag.at, cdiag.at, "workers {workers}: stall cycle");
        assert_eq!(diag.commits, cdiag.commits, "workers {workers}");
        assert_eq!(
            diag.queued_events, cdiag.queued_events,
            "workers {workers}: queue parity at the stall"
        );
    }
}

#[test]
fn retry_exhaustion_stall_matches_classic() {
    let mut base = checked_cfg(4);
    base.chaos = Some(lossy_chaos(1, 1.0)); // every frame dropped
    base.transport = Some(TransportConfig {
        max_retries: 3,
        ..TransportConfig::default()
    });
    base.watchdog = Some(WatchdogConfig::default());
    let programs = contended_programs(4, 6);
    let classic = Simulator::builder(base.clone())
        .programs(programs.clone())
        .build()
        .unwrap()
        .try_run()
        .expect_err("a fully lossy wire must stall");
    let RunError::Stalled(cdiag) = classic;
    let StallReason::RetryExhausted { .. } = cdiag.reason else {
        panic!("expected RetryExhausted, got {:?}", cdiag.reason);
    };
    for workers in WORKER_COUNTS {
        let err = Simulator::builder(parallel_cfg(&base, workers))
            .programs(programs.clone())
            .build()
            .unwrap()
            .try_run()
            .expect_err("parallel must exhaust retries too");
        let RunError::Stalled(diag) = err;
        assert!(
            matches!(diag.reason, StallReason::RetryExhausted { .. }),
            "workers {workers}: {:?}",
            diag.reason
        );
        assert_eq!(diag.at, cdiag.at, "workers {workers}: stall cycle");
    }
}

// ---------------------------------------------------------------------
// Seeded tie-breaking: worker-count invariant (but a different
// schedule than classic, by design).
// ---------------------------------------------------------------------

#[test]
fn seeded_tie_break_is_worker_invariant() {
    // Seeded runs explore a different (but equally deterministic)
    // schedule than classic, and some schedules legitimately end in a
    // typed stall — the classic engine stalls on the same salts. The
    // invariant is that the *outcome*, healthy or stalled, does not
    // depend on the worker count.
    for salt in [0xDEAD_BEEF_u64, 42] {
        let spec = Spec {
            n_procs: 4,
            txs_per_proc: 5,
            max_ops: 8,
            n_lines: 4,
            store_fraction: 0.5,
            barrier_every: Some(2),
        };
        let programs = random_programs(&spec, salt);
        let mut base = checked_cfg(4);
        base.tie_break_seed = Some(salt);
        let outcome = |workers: usize| {
            Simulator::builder(parallel_cfg(&base, workers))
                .programs(programs.clone())
                .build()
                .expect("valid config")
                .try_run()
        };
        let reference = outcome(1);
        for workers in &WORKER_COUNTS[1..] {
            match (&reference, &outcome(*workers)) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(
                        a.fingerprint(),
                        b.fingerprint(),
                        "salt {salt:#x}, workers {workers}: seeded runs diverged"
                    );
                    b.assert_serializable();
                }
                (Err(RunError::Stalled(a)), Err(RunError::Stalled(b))) => {
                    assert_eq!(a.reason.kind(), b.reason.kind(), "salt {salt:#x}");
                    assert_eq!(a.at, b.at, "salt {salt:#x}, workers {workers}");
                    assert_eq!(a.commits, b.commits, "salt {salt:#x}");
                }
                (a, b) => panic!(
                    "salt {salt:#x}, workers {workers}: outcome flipped: \
                     {a:?} vs {b:?}"
                ),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Worker budget composition.
// ---------------------------------------------------------------------

#[test]
fn depleted_budget_degrades_without_changing_results() {
    // An outer consumer (a bench driver, the chaos explorer) holds the
    // whole budget; a nested engine lease must degrade to one worker —
    // never block, never oversubscribe, never change a result.
    let spec = Spec {
        n_procs: 4,
        txs_per_proc: 5,
        max_ops: 8,
        n_lines: 4,
        store_fraction: 0.5,
        barrier_every: None,
    };
    let programs = random_programs(&spec, 5);
    let base = checked_cfg(4);
    let classic = run(base.clone(), &programs);
    let outer = WorkerBudget::global().lease(usize::MAX);
    let mut cfg = base.clone();
    cfg.parallel = Some(ParallelConfig::with_workers(8)); // leased path
    let par = run(cfg, &programs);
    drop(outer);
    assert_eq!(
        classic.fingerprint(),
        par.fingerprint(),
        "a budget-starved parallel run must still be exact"
    );
}

// ---------------------------------------------------------------------
// Non-TCC backends under `parallel` (central-mode dispatch).
// ---------------------------------------------------------------------

#[test]
fn non_tcc_backends_match_classic_under_parallel() {
    // The serialized baseline and Tardis run the classic loop under any
    // `parallel` config (central-mode dispatch in `try_run`): the knob
    // must be accepted by validation and the result byte-identical at
    // every worker count.
    let spec = Spec {
        n_procs: 4,
        txs_per_proc: 5,
        max_ops: 8,
        n_lines: 6,
        store_fraction: 0.5,
        barrier_every: Some(2),
    };
    let programs = random_programs(&spec, 13);
    for kind in [
        tcc_core::ProtocolKind::SerializedCommit,
        tcc_core::ProtocolKind::Tardis,
    ] {
        let mut cfg = checked_cfg(4);
        cfg.protocol = kind;
        assert_differential(&cfg, &programs, &format!("backend/{}", kind.as_str()));
    }
}

// ---------------------------------------------------------------------
// Sustained pairwise traffic through many parallel windows.
// ---------------------------------------------------------------------

#[test]
fn sustained_pairwise_traffic_matches_classic() {
    // Eight shards whose cross-traffic is exclusively mutual within
    // disjoint pairs (2i <-> 2i+1): every join replays deferred ops
    // between the same shard pairs, window after window, for 40
    // transactions per processor; fingerprints must stay
    // classic-exact throughout.
    let n = 8u64;
    let programs: Vec<ThreadProgram> = (0..n)
        .map(|p| {
            let partner = p ^ 1;
            let items = (0..40)
                .map(|i| {
                    WorkItem::Tx(Transaction::new(vec![
                        TxOp::Load(Addr((if i % 2 == 0 { p } else { partner }) * 32)),
                        TxOp::Store(Addr(partner * 32 + 4)),
                        TxOp::Compute(20),
                    ]))
                })
                .collect();
            ThreadProgram::new(items)
        })
        .collect();
    let windows = assert_differential(&checked_cfg(n as usize), &programs, "pairs");
    assert!(windows > 0, "pairs: no parallel window ran");
}

// ---------------------------------------------------------------------
// Stall diagnostics carry the active window bounds (adaptive windows
// must not hide the faulting cycle behind a later window end).
// ---------------------------------------------------------------------

#[test]
fn lossy_wire_stall_reports_true_fault_cycle_and_window_bounds() {
    let mut base = checked_cfg(4);
    base.chaos = Some(lossy_chaos(1, 1.0)); // every frame dropped
    base.transport = Some(TransportConfig {
        max_retries: 3,
        ..TransportConfig::default()
    });
    base.watchdog = Some(WatchdogConfig::default());
    let programs = contended_programs(4, 6);
    let classic = Simulator::builder(base.clone())
        .programs(programs.clone())
        .build()
        .unwrap()
        .try_run()
        .expect_err("a fully lossy wire must stall");
    let RunError::Stalled(cdiag) = classic;
    assert!(
        cdiag.window_bounds.is_none(),
        "the classic engine has no windows to report"
    );
    for workers in WORKER_COUNTS {
        let err = Simulator::builder(parallel_cfg(&base, workers))
            .programs(programs.clone())
            .build()
            .unwrap()
            .try_run()
            .expect_err("parallel must stall identically");
        let RunError::Stalled(diag) = err;
        // True fault cycle: identical to the classic engine's, however
        // wide the window that contained it was.
        assert_eq!(diag.at, cdiag.at, "workers {workers}: fault cycle");
        let (lo, hi) = diag
            .window_bounds
            .unwrap_or_else(|| panic!("workers {workers}: stall lacks window bounds"));
        assert!(
            lo <= diag.at && diag.at < hi,
            "workers {workers}: fault cycle {} outside window [{lo}, {hi})",
            diag.at
        );
        let json = diag.to_json().to_compact();
        assert!(
            json.contains("window_bounds"),
            "workers {workers}: bounds missing from JSON: {json}"
        );
    }
}
