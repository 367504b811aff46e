//! Randomized protocol stress tests.
//!
//! Each test generates seeded pseudo-random transactional programs with
//! aggressive sharing and runs them through the full simulator with the
//! serializability checker enabled. Any coherence or commit-ordering bug
//! that survives the targeted tests in `protocol.rs` has to get past
//! hundreds of randomized schedules here.

use tcc_core::{ProtocolKind, Simulator, SystemConfig, ThreadProgram, Transaction, TxOp, WorkItem};
use tcc_types::rng::SmallRng;
use tcc_types::Addr;

/// Builds a random program mix over a small, hot address space so that
/// conflicts, owner transfers, and partial-word overlaps are frequent.
struct WorkloadSpec {
    n_procs: usize,
    txs_per_proc: usize,
    max_ops: usize,
    n_lines: u64,
    words_per_line: u64,
    store_fraction: f64,
    barrier_every: Option<usize>,
}

fn random_programs(spec: &WorkloadSpec, seed: u64) -> Vec<ThreadProgram> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..spec.n_procs)
        .map(|_| {
            let mut items = Vec::new();
            for t in 0..spec.txs_per_proc {
                let n_ops = rng.gen_range(1..=spec.max_ops);
                let mut ops = Vec::with_capacity(n_ops);
                for _ in 0..n_ops {
                    let line = rng.gen_range(0..spec.n_lines);
                    let word = rng.gen_range(0..spec.words_per_line);
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

fn run_checked(cfg: SystemConfig, programs: Vec<ThreadProgram>) {
    let expected: u64 = programs.iter().map(|p| p.transactions() as u64).sum();
    let r = Simulator::builder(cfg)
        .programs(programs)
        .build()
        .expect("valid config")
        .run();
    assert_eq!(
        r.commits, expected,
        "every transaction must eventually commit"
    );
    r.assert_serializable();
}

fn checked_cfg(n: usize) -> SystemConfig {
    SystemConfig {
        check_serializability: true,
        ..SystemConfig::with_procs(n)
    }
}

#[test]
fn hot_contention_four_procs_many_seeds() {
    // 4 processors hammering 4 lines: maximal owner churn.
    for seed in 0..30 {
        let spec = WorkloadSpec {
            n_procs: 4,
            txs_per_proc: 6,
            max_ops: 8,
            n_lines: 4,
            words_per_line: 8,
            store_fraction: 0.5,
            barrier_every: None,
        };
        run_checked(checked_cfg(4), random_programs(&spec, seed));
    }
}

#[test]
fn single_line_word_battles() {
    // Everything on ONE line: word-granularity conflict detection,
    // partial invalidations, and ownership transfer under fire.
    for seed in 100..125 {
        let spec = WorkloadSpec {
            n_procs: 4,
            txs_per_proc: 5,
            max_ops: 6,
            n_lines: 1,
            words_per_line: 8,
            store_fraction: 0.6,
            barrier_every: None,
        };
        run_checked(checked_cfg(4), random_programs(&spec, seed));
    }
}

#[test]
fn wider_machine_with_barriers() {
    for seed in 200..210 {
        let spec = WorkloadSpec {
            n_procs: 8,
            txs_per_proc: 6,
            max_ops: 10,
            n_lines: 16,
            words_per_line: 8,
            store_fraction: 0.4,
            barrier_every: Some(3),
        };
        run_checked(checked_cfg(8), random_programs(&spec, seed));
    }
}

#[test]
fn sixteen_procs_mixed_locality() {
    for seed in 300..305 {
        let spec = WorkloadSpec {
            n_procs: 16,
            txs_per_proc: 4,
            max_ops: 12,
            n_lines: 64,
            words_per_line: 8,
            store_fraction: 0.35,
            barrier_every: Some(2),
        };
        run_checked(checked_cfg(16), random_programs(&spec, seed));
    }
}

#[test]
fn line_granularity_random() {
    // Line-granularity conflict detection: more violations, same
    // serializability obligation.
    for seed in 400..415 {
        let spec = WorkloadSpec {
            n_procs: 4,
            txs_per_proc: 5,
            max_ops: 6,
            n_lines: 6,
            words_per_line: 8,
            store_fraction: 0.5,
            barrier_every: None,
        };
        let mut cfg = checked_cfg(4);
        cfg.cache.granularity = tcc_cache::Granularity::Line;
        run_checked(cfg, random_programs(&spec, seed));
    }
}

#[test]
fn tiny_caches_force_overflow_and_spills() {
    // 8-line L2: random transactions routinely overflow, exercising the
    // serialized early-TID retry with the victim spill buffer.
    for seed in 500..515 {
        let spec = WorkloadSpec {
            n_procs: 3,
            txs_per_proc: 3,
            max_ops: 24,
            n_lines: 24,
            words_per_line: 8,
            store_fraction: 0.4,
            barrier_every: None,
        };
        let mut cfg = checked_cfg(3);
        cfg.cache.l1_bytes = 64;
        cfg.cache.l1_ways = 1;
        cfg.cache.l2_bytes = 256;
        cfg.cache.l2_ways = 2;
        run_checked(cfg, random_programs(&spec, seed));
    }
}

#[test]
fn aggressive_starvation_threshold() {
    // Threshold 1: any violation immediately serializes the retry.
    for seed in 600..610 {
        let spec = WorkloadSpec {
            n_procs: 4,
            txs_per_proc: 4,
            max_ops: 6,
            n_lines: 3,
            words_per_line: 8,
            store_fraction: 0.6,
            barrier_every: None,
        };
        let mut cfg = checked_cfg(4);
        cfg.starvation_threshold = 1;
        run_checked(cfg, random_programs(&spec, seed));
    }
}

#[test]
fn slow_network_reorders_more() {
    // High per-hop latency stretches message flight times, widening the
    // windows for the §3.3 races (fill/invalidate crossings).
    for seed in 700..710 {
        let spec = WorkloadSpec {
            n_procs: 8,
            txs_per_proc: 4,
            max_ops: 8,
            n_lines: 8,
            words_per_line: 8,
            store_fraction: 0.5,
            barrier_every: None,
        };
        let mut cfg = checked_cfg(8);
        cfg.network.link_latency = 16;
        run_checked(cfg, random_programs(&spec, seed));
    }
}

#[test]
fn fig2f_owner_drop_mode_random() {
    // owner_flush_keeps_line = false: the Fig. 2f write-back-and-
    // invalidate variant of DataRequest servicing.
    for seed in 800..812 {
        let spec = WorkloadSpec {
            n_procs: 4,
            txs_per_proc: 5,
            max_ops: 8,
            n_lines: 6,
            words_per_line: 8,
            store_fraction: 0.5,
            barrier_every: None,
        };
        let mut cfg = checked_cfg(4);
        cfg.owner_flush_keeps_line = false;
        run_checked(cfg, random_programs(&spec, seed));
    }
}

#[test]
fn small_exec_chunks_interleave_finely() {
    for seed in 900..910 {
        let spec = WorkloadSpec {
            n_procs: 4,
            txs_per_proc: 5,
            max_ops: 8,
            n_lines: 4,
            words_per_line: 8,
            store_fraction: 0.5,
            barrier_every: None,
        };
        let mut cfg = checked_cfg(4);
        cfg.exec_chunk = 16;
        run_checked(cfg, random_programs(&spec, seed));
    }
}

#[test]
fn read_only_and_write_only_extremes() {
    for (seed, frac) in [(1000u64, 0.0f64), (1001, 0.0), (1010, 1.0), (1011, 1.0)] {
        let spec = WorkloadSpec {
            n_procs: 4,
            txs_per_proc: 5,
            max_ops: 8,
            n_lines: 4,
            words_per_line: 8,
            store_fraction: frac,
            barrier_every: None,
        };
        run_checked(checked_cfg(4), random_programs(&spec, seed));
    }
}

// ---------------------------------------------------------------------
// Seeded machine fuzzing over tiny hot regions; failures print the
// full (small) program so a repro can be pasted into a unit test.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum POp {
    Load(u64, usize),
    Store(u64, usize),
    Compute(u32),
}

fn random_pop(rng: &mut SmallRng, n_lines: u64) -> POp {
    match rng.gen_range(0u32..3) {
        0 => POp::Load(rng.gen_range(0..n_lines), rng.gen_range(0usize..8)),
        1 => POp::Store(rng.gen_range(0..n_lines), rng.gen_range(0usize..8)),
        _ => POp::Compute(rng.gen_range(1u32..300)),
    }
}

/// A random machine-wide program: `n_threads` threads of 1..5
/// transactions of 1..8 ops each over a hot `n_lines`-line region.
fn random_raw(rng: &mut SmallRng, n_threads: usize, n_lines: u64) -> Vec<Vec<Vec<POp>>> {
    (0..n_threads)
        .map(|_| {
            (0..rng.gen_range(1usize..5))
                .map(|_| {
                    (0..rng.gen_range(1usize..8))
                        .map(|_| random_pop(rng, n_lines))
                        .collect()
                })
                .collect()
        })
        .collect()
}

fn to_programs(raw: &[Vec<Vec<POp>>]) -> Vec<ThreadProgram> {
    raw.iter()
        .map(|txs| {
            let items = txs
                .iter()
                .map(|ops| {
                    let ops = ops
                        .iter()
                        .map(|op| match *op {
                            POp::Load(l, w) => TxOp::Load(Addr(l * 32 + w as u64 * 4)),
                            POp::Store(l, w) => TxOp::Store(Addr(l * 32 + w as u64 * 4)),
                            POp::Compute(c) => TxOp::Compute(c),
                        })
                        .collect();
                    WorkItem::Tx(Transaction::new(ops))
                })
                .collect();
            ThreadProgram::new(items)
        })
        .collect()
}

/// Any 3-processor program over a hot 4-line region completes with
/// every transaction committed and a serializable history.
#[test]
fn prop_small_machines_are_serializable() {
    let mut rng = SmallRng::seed_from_u64(0x9209_0001);
    for _ in 0..48 {
        let raw = random_raw(&mut rng, 3, 4);
        let programs = to_programs(&raw);
        let expected: u64 = programs.iter().map(|p| p.transactions() as u64).sum();
        let r = Simulator::builder(checked_cfg(3))
            .programs(programs)
            .build()
            .expect("valid config")
            .run();
        assert_eq!(r.commits, expected, "program: {raw:?}");
        assert!(r.serializability.unwrap().is_ok(), "program: {raw:?}");
    }
}

/// Same property under the Fig. 2f owner-drop variant and a slower
/// network (wider race windows).
#[test]
fn prop_small_machines_fig2f_slow_network() {
    let mut rng = SmallRng::seed_from_u64(0x9209_0002);
    for _ in 0..48 {
        let raw = random_raw(&mut rng, 3, 3);
        let programs = to_programs(&raw);
        let expected: u64 = programs.iter().map(|p| p.transactions() as u64).sum();
        let mut cfg = checked_cfg(3);
        cfg.owner_flush_keeps_line = false;
        cfg.network.link_latency = 12;
        cfg.starvation_threshold = 2;
        let r = Simulator::builder(cfg)
            .programs(programs)
            .build()
            .expect("valid config")
            .run();
        assert_eq!(r.commits, expected, "program: {raw:?}");
        assert!(r.serializability.unwrap().is_ok(), "program: {raw:?}");
    }
}

/// The baseline (serialized commit) is serializable on the same
/// random programs.
#[test]
fn prop_baseline_is_serializable() {
    let mut rng = SmallRng::seed_from_u64(0x9209_0003);
    for _ in 0..48 {
        let raw = random_raw(&mut rng, 2, 4);
        let programs = to_programs(&raw);
        let expected: u64 = programs.iter().map(|p| p.transactions() as u64).sum();
        let r = Simulator::builder(checked_cfg(2))
            .protocol(ProtocolKind::SerializedCommit)
            .programs(programs)
            .build()
            .expect("valid config")
            .run();
        assert_eq!(r.commits, expected, "program: {raw:?}");
        assert!(r.serializability.unwrap().is_ok(), "program: {raw:?}");
    }
}

/// Parses `regression_corpus.json` (schema `tcc-regression-corpus/v1`):
/// shrunk failure cases from historical fuzzing runs, checked in so
/// they are re-run forever. The tcc-chaos suite replays the same file
/// under chaos perturbation.
fn regression_corpus() -> Vec<(String, Vec<Vec<Vec<POp>>>)> {
    use tcc_trace::Json;
    let text = include_str!("regression_corpus.json");
    let json = Json::parse(text).expect("corpus must parse");
    assert_eq!(
        json.get("schema").and_then(Json::as_str),
        Some("tcc-regression-corpus/v1")
    );
    let mut out = Vec::new();
    for case in json.get("cases").and_then(Json::as_arr).unwrap() {
        let name = case.get("name").and_then(Json::as_str).unwrap().to_string();
        let threads = case
            .get("threads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|txs| {
                txs.as_arr()
                    .unwrap()
                    .iter()
                    .map(|ops| {
                        ops.as_arr()
                            .unwrap()
                            .iter()
                            .map(|op| {
                                let op = op.as_arr().unwrap();
                                let kind = op[0].as_str().unwrap();
                                let a = op[1].as_u64().unwrap();
                                match kind {
                                    "load" => POp::Load(a, op[2].as_u64().unwrap() as usize),
                                    "store" => POp::Store(a, op[2].as_u64().unwrap() as usize),
                                    "compute" => POp::Compute(a as u32),
                                    other => panic!("unknown op kind {other}"),
                                }
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        out.push((name, threads));
    }
    out
}

/// Every corpus case replays clean under the default checked config.
#[test]
fn regression_corpus_replays_clean() {
    let corpus = regression_corpus();
    assert!(!corpus.is_empty());
    for (name, raw) in &corpus {
        let programs = to_programs(raw);
        let expected: u64 = programs.iter().map(|p| p.transactions() as u64).sum();
        let r = Simulator::builder(checked_cfg(raw.len()))
            .programs(programs)
            .build()
            .expect("valid config")
            .run();
        assert_eq!(r.commits, expected, "case {name}");
        assert!(r.serializability.unwrap().is_ok(), "case {name}");
    }
}

/// The corpus also replays clean under the Fig. 2f owner-drop variant
/// with a slow network — the configuration the original failures were
/// most sensitive to.
#[test]
fn regression_corpus_replays_clean_fig2f_slow_network() {
    for (name, raw) in &regression_corpus() {
        let programs = to_programs(raw);
        let expected: u64 = programs.iter().map(|p| p.transactions() as u64).sum();
        let mut cfg = checked_cfg(raw.len());
        cfg.owner_flush_keeps_line = false;
        cfg.network.link_latency = 12;
        cfg.starvation_threshold = 2;
        let r = Simulator::builder(cfg)
            .programs(programs)
            .build()
            .expect("valid config")
            .run();
        assert_eq!(r.commits, expected, "case {name}");
        assert!(r.serializability.unwrap().is_ok(), "case {name}");
    }
}

#[test]
fn cross_config_soak() {
    // A reduced version of examples/soak.rs: random programs across a
    // grid of machine sizes, granularities, cache sizes, flush modes,
    // link latencies, and starvation thresholds. Every run must commit
    // every transaction and verify serializable. The full 400-seed
    // version lives in `cargo run --release -p tcc-core --example soak`.
    for seed in 0..60u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = 2 + (seed % 7) as usize;
        let programs: Vec<ThreadProgram> = (0..n)
            .map(|_| {
                let mut items = Vec::new();
                for _ in 0..4 {
                    let n_ops = rng.gen_range(1..=10);
                    let mut ops = Vec::new();
                    for _ in 0..n_ops {
                        let line = rng.gen_range(0..5u64);
                        let word = rng.gen_range(0..8u64);
                        let addr = Addr(line * 32 + word * 4);
                        if rng.gen_bool(0.5) {
                            ops.push(TxOp::Store(addr));
                        } else {
                            ops.push(TxOp::Load(addr));
                        }
                        if rng.gen_bool(0.4) {
                            ops.push(TxOp::Compute(rng.gen_range(1..250)));
                        }
                    }
                    items.push(WorkItem::Tx(Transaction::new(ops)));
                }
                ThreadProgram::new(items)
            })
            .collect();
        let mut cfg = checked_cfg(n);
        cfg.owner_flush_keeps_line = seed % 2 == 0;
        cfg.network.link_latency = 1 + (seed % 16);
        cfg.starvation_threshold = 1 + (seed % 5) as u32;
        cfg.exec_chunk = 16 + (seed % 300);
        if seed % 3 == 0 {
            cfg.cache.granularity = tcc_cache::Granularity::Line;
        }
        if seed % 5 == 0 {
            cfg.cache.l1_bytes = 64;
            cfg.cache.l1_ways = 1;
            cfg.cache.l2_bytes = 256;
            cfg.cache.l2_ways = 2;
        }
        if seed % 7 == 0 {
            cfg.dir_cache_entries = Some(4);
        }
        run_checked(cfg, programs);
    }
}
