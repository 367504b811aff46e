//! `tcc-stm` vs coarse-mutex bench (`BENCH_stm.json`).
//!
//! Runs the Zipfian and disjoint-access [`tcc_workloads::stm`] profiles
//! through the real STM on real threads at 1/2/4/8 threads, against a
//! coarse-mutex baseline executing the *identical* deterministic
//! scripts, and records throughput plus per-transaction latency
//! histograms (p50/p99) for both sides. Before measuring anything it
//! runs a bounded pass of the interleaving explorer and refuses to
//! bench a protocol with violations — the artifact itself proves the
//! model checker ran clean.
//!
//! Honest-measurement note: on a host with fewer CPUs than benchmark
//! threads, the thread sweep measures time-slicing (scheduler handoff
//! under a convoying lock vs optimistic progress), not parallel
//! speedup. The `host` block records `host_cpus` and the verdict is
//! stamped with an explicit caveat whenever the winning thread count
//! exceeds it.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use tcc_bench::report::write_report;
use tcc_bench::{HarnessArgs, HARNESS_SEED};
use tcc_stm::explore::{explore, ExploreConfig, ModelSpec, ModelTx};
use tcc_stm::proto::CommitTweaks;
use tcc_stm::{Stm, StmConfig, TVar};
use tcc_trace::report::{histogram_json, host_cpus};
use tcc_trace::{Histogram, Json, RunReport};
use tcc_workloads::stm::{StmOp, StmProfile, StmTx};

/// Thread counts swept per workload.
const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

fn profiles() -> Vec<StmProfile> {
    vec![StmProfile::zipfian(256, 0.9), StmProfile::disjoint(64)]
}

/// One measured side (STM or mutex) of one sweep cell.
struct Side {
    wall_s: f64,
    txs: u64,
    latency_ns: Histogram,
}

impl Side {
    fn throughput(&self) -> f64 {
        self.txs as f64 / self.wall_s
    }

    fn json(&self) -> Json {
        Json::obj(vec![
            ("wall_ms", (self.wall_s * 1e3).into()),
            ("txs", self.txs.into()),
            ("tx_per_s", self.throughput().into()),
            ("latency_ns", histogram_json(&self.latency_ns)),
        ])
    }
}

/// Runs the scripts through the real STM, one OS thread per script.
fn run_stm(scripts: &[Vec<StmTx>], n_cells: usize) -> Side {
    let stm = Stm::with_config(StmConfig::default());
    let cells: Vec<TVar<u64>> = (0..n_cells).map(|_| stm.new_tvar(0u64)).collect();
    let start = Instant::now();
    let handles: Vec<_> = scripts
        .iter()
        .cloned()
        .map(|script| {
            let stm = stm.clone();
            let cells = cells.clone();
            std::thread::spawn(move || {
                let mut h = Histogram::default();
                for tx_script in &script {
                    let t0 = Instant::now();
                    stm.atomically(|tx| {
                        let mut sum = 0u64;
                        for op in &tx_script.ops {
                            match *op {
                                StmOp::Read(c) => sum = sum.wrapping_add(tx.read(&cells[c])?),
                                StmOp::Write(c) => tx.write(&cells[c], sum)?,
                            }
                        }
                        Ok(())
                    });
                    h.record(t0.elapsed().as_nanos() as u64);
                }
                h
            })
        })
        .collect();
    let mut latency = Histogram::default();
    for h in handles {
        latency.merge(&h.join().expect("stm bench thread panicked"));
    }
    Side {
        wall_s: start.elapsed().as_secs_f64(),
        txs: latency.count(),
        latency_ns: latency,
    }
}

/// The baseline: identical scripts and arithmetic, one global
/// `std::sync::Mutex` around the whole cell array, each transaction one
/// critical section.
fn run_mutex(scripts: &[Vec<StmTx>], n_cells: usize) -> Side {
    let cells = Arc::new(Mutex::new(vec![0u64; n_cells]));
    let start = Instant::now();
    let handles: Vec<_> = scripts
        .iter()
        .cloned()
        .map(|script| {
            let cells = Arc::clone(&cells);
            std::thread::spawn(move || {
                let mut h = Histogram::default();
                for tx_script in &script {
                    let t0 = Instant::now();
                    {
                        let mut cells = cells.lock().expect("baseline mutex poisoned");
                        let mut sum = 0u64;
                        for op in &tx_script.ops {
                            match *op {
                                StmOp::Read(c) => sum = sum.wrapping_add(cells[c]),
                                StmOp::Write(c) => cells[c] = sum,
                            }
                        }
                    }
                    h.record(t0.elapsed().as_nanos() as u64);
                }
                h
            })
        })
        .collect();
    let mut latency = Histogram::default();
    for h in handles {
        latency.merge(&h.join().expect("mutex bench thread panicked"));
    }
    Side {
        wall_s: start.elapsed().as_secs_f64(),
        txs: latency.count(),
        latency_ns: latency,
    }
}

/// Pre-flight: a bounded explorer pass over a contended 2-thread model.
/// Violations abort the bench — a broken protocol's throughput is
/// meaningless.
fn preflight_explore(smoke: bool) -> Json {
    let tx = |reads: &[usize], writes: &[usize]| ModelTx {
        reads: reads.to_vec(),
        writes: writes.to_vec(),
    };
    let spec = ModelSpec {
        n_cells: 2,
        shards: 2,
        vendor_slots: 2,
        threads: vec![
            vec![tx(&[0], &[0, 1]), tx(&[1], &[0])],
            vec![tx(&[0, 1], &[1]), tx(&[0], &[0])],
        ],
        starvation_threshold: 2,
        tweaks: CommitTweaks::default(),
    };
    let cfg = if smoke {
        ExploreConfig {
            max_runs: 200,
            pair_runs: 64,
            random_runs: 32,
            ..ExploreConfig::default()
        }
    } else {
        ExploreConfig::default()
    };
    let report = explore(&spec, &cfg);
    assert!(
        report.violations.is_empty(),
        "refusing to bench: explorer found serializability violations: {:?}",
        report.violations
    );
    println!(
        "  explorer: {} schedules, 0 violations ({} commits, {} conflicts)",
        report.runs, report.commits, report.conflicts
    );
    Json::obj(vec![
        ("runs", (report.runs as u64).into()),
        ("violations", 0u64.into()),
        ("commits", report.commits.into()),
        ("conflicts", report.conflicts.into()),
    ])
}

fn main() {
    let args = HarnessArgs::parse();
    let seed = args.seed.unwrap_or(HARNESS_SEED);
    let txs_per_thread = if args.smoke { 2_000 } else { 20_000 };
    let max_threads = *THREAD_SWEEP.iter().max().expect("non-empty sweep");
    let cpus = host_cpus();

    let mut report = RunReport::new("stm");
    report.set_workers(max_threads as u64);
    report.set(
        "harness",
        Json::obj(vec![
            ("seed", seed.into()),
            ("scale", if args.smoke { "smoke" } else { "full" }.into()),
            ("txs_per_thread", (txs_per_thread as u64).into()),
            (
                "threads",
                Json::Arr(THREAD_SWEEP.iter().map(|&t| (t as u64).into()).collect()),
            ),
        ]),
    );

    println!("tcc-stm vs coarse mutex — {cpus} host CPU(s)");
    report.set("explorer", preflight_explore(args.smoke));

    // Verdict cell: disjoint-access at the top of the thread sweep.
    let mut verdict: Option<(f64, f64)> = None;
    let mut workloads_json: Vec<Json> = Vec::new();
    for profile in profiles() {
        if !args.selects(profile.name) {
            continue;
        }
        println!("\n{} workload", profile.name);
        let mut points: Vec<Json> = Vec::new();
        for &threads in &THREAD_SWEEP {
            let scripts = profile.generate(threads, txs_per_thread, seed);
            let n_cells = profile.cells_for(threads);
            let stm = run_stm(&scripts, n_cells);
            let mutex = run_mutex(&scripts, n_cells);
            let speedup = stm.throughput() / mutex.throughput();
            println!(
                "  threads={threads}: stm {:>10.0} tx/s (p99 {} ns) | mutex {:>10.0} tx/s (p99 {} ns) | stm/mutex {speedup:.2}×",
                stm.throughput(),
                stm.latency_ns.percentile(99.0),
                mutex.throughput(),
                mutex.latency_ns.percentile(99.0),
            );
            if profile.name == "disjoint" && threads == max_threads {
                verdict = Some((stm.throughput(), mutex.throughput()));
            }
            points.push(Json::obj(vec![
                ("threads", (threads as u64).into()),
                ("stm", stm.json()),
                ("mutex", mutex.json()),
                ("stm_over_mutex", speedup.into()),
            ]));
        }
        workloads_json.push(Json::obj(vec![
            ("workload", profile.name.into()),
            ("points", Json::Arr(points)),
        ]));
    }
    report.set("workloads", Json::Arr(workloads_json));

    if let Some((stm_tx_s, mutex_tx_s)) = verdict {
        let beats = stm_tx_s > mutex_tx_s;
        let mut fields = vec![
            ("workload", Json::from("disjoint")),
            ("threads", (max_threads as u64).into()),
            ("stm_tx_per_s", stm_tx_s.into()),
            ("mutex_tx_per_s", mutex_tx_s.into()),
            ("stm_beats_mutex", beats.into()),
        ];
        if cpus < max_threads as u64 {
            fields.push((
                "caveat",
                format!(
                    "generated on a {cpus}-CPU host with {max_threads} benchmark \
                     threads: with fewer CPUs than threads the futex mutex stays \
                     on its uncontended fast path (waiters sleep) while the STM \
                     pays commit bookkeeping plus TID-order stalls behind \
                     preempted committers, so this cell measures per-commit \
                     overhead under time-slicing, not the parallel-commit \
                     scaling the protocol buys; regenerate on a host with at \
                     least {max_threads} CPUs for a meaningful verdict"
                )
                .into(),
            ));
        }
        report.set("verdict", Json::obj(fields));
        println!(
            "\nverdict (disjoint @ {max_threads} threads): stm {stm_tx_s:.0} tx/s vs mutex {mutex_tx_s:.0} tx/s — {}",
            if beats { "STM WINS" } else { "mutex wins" }
        );
    }
    write_report(&report, args.scale());
}
