//! The STM workload: `tcc-stm` on two OS threads, each running its own
//! Zipfian(256 cells, θ = 0.9) script in a closed loop — a thread
//! starts its next transaction only once the previous one committed.
//!
//! Each round generates the scripts and builds a fresh [`Stm`] (the
//! set-up), runs both scripts to the end, then checks the round: every
//! transaction committed, every shard's NSTID reached the number of
//! TIDs issued, and replaying the scripts one at a time in TID order
//! reproduces the cells' final values. Latencies are exact samples.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use tcc_stm::{Stm, StmConfig, TVar, Tx, TxResult};
use tcc_workloads::stm::{StmOp, StmProfile, StmTx};

use crate::span::SpanLog;
use crate::{host, median, ratio, Args, Metrics, Outcome};

const THREADS: usize = 2;
const CELLS: usize = 256;
const THETA: f64 = 0.9;
/// Transactions each thread runs per round.
const TXS_PER_THREAD: usize = 100_000;
/// Transactions per thread whose spans the traced pass keeps.
const SPAN_TXS: usize = 1_000;

fn exec(tx: &mut Tx<'_>, ops: &[StmOp], cells: &[TVar<u64>]) -> TxResult<()> {
    let mut sum = 0u64;
    for op in ops {
        match *op {
            StmOp::Read(c) => sum = sum.wrapping_add(tx.read(&cells[c])?),
            StmOp::Write(c) => tx.write(&cells[c], sum)?,
        }
    }
    Ok(())
}

/// What one thread saw in one round.
struct ThreadLog {
    latency_ns: Vec<u64>,
    /// Time inside the transaction body, summed over its attempts
    /// (traced pass only).
    body_ns: Vec<u64>,
    tids: Vec<u64>,
    attempts: u64,
    spans: Option<SpanLog>,
}

fn run_thread(
    stm: &Stm,
    cells: &[TVar<u64>],
    script: &[StmTx],
    start: &Barrier,
    traced: Option<Instant>,
    thread: usize,
) -> ThreadLog {
    let n = script.len();
    let mut log = ThreadLog {
        latency_ns: Vec::with_capacity(n),
        body_ns: Vec::with_capacity(if traced.is_some() { n } else { 0 }),
        tids: Vec::with_capacity(n),
        attempts: 0,
        spans: traced.map(SpanLog::new),
    };
    let mut bodies: Vec<(Instant, Instant)> = Vec::new();
    start.wait();
    let thread_span = log
        .spans
        .as_mut()
        .map(|s| s.open("thread", format!("thread {thread}"), None));
    for (i, t) in script.iter().enumerate() {
        let t0 = Instant::now();
        let receipt = match &mut log.spans {
            None => stm.run(|tx| exec(tx, &t.ops, cells)).1,
            Some(spans) => {
                bodies.clear();
                let (_, receipt) = stm.run(|tx| {
                    let b0 = Instant::now();
                    let r = exec(tx, &t.ops, cells);
                    bodies.push((b0, Instant::now()));
                    r
                });
                let t1 = Instant::now();
                let body: Duration = bodies.iter().map(|(a, b)| *b - *a).sum();
                log.body_ns.push(body.as_nanos() as u64);
                if i < SPAN_TXS {
                    let label = format!("thread {thread} tx {i}");
                    let txn = spans.push("transaction", label.clone(), thread_span, t0, t1);
                    for &(a, b) in &bodies {
                        spans.push("body", label.clone(), Some(txn), a, b);
                    }
                    let last_body_end = bodies.last().map_or(t0, |b| b.1);
                    spans.push("commit", label, Some(txn), last_body_end, t1);
                }
                receipt
            }
        };
        log.latency_ns.push(t0.elapsed().as_nanos() as u64);
        log.tids.push(receipt.tid.0);
        log.attempts += u64::from(receipt.attempts);
    }
    if let (Some(spans), Some(id)) = (&mut log.spans, thread_span) {
        spans.close(id);
    }
    log
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[u64], p: f64) -> f64 {
    let rank = (p / 100.0 * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1] as f64
}

fn sorted(v: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut v: Vec<u64> = v.collect();
    v.sort_unstable();
    v
}

/// Per-round figures of one pass.
#[derive(Default)]
struct Rounds {
    generate_s: Vec<f64>,
    setup_s: Vec<f64>,
    /// Wall seconds: with two threads, CPU seconds would also count
    /// the spinning of a thread whose partner the host preempted.
    run_s: Vec<f64>,
    tx_p50_us: Vec<f64>,
    tx_p99_us: Vec<f64>,
    tx_p999_us: Vec<f64>,
    samples: u64,
    /// Traced pass only.
    layer: Vec<Metrics>,
}

struct Bench<'a> {
    args: &'a Args,
    profile: StmProfile,
    out: Outcome,
    origin: Instant,
    spans: Option<(SpanLog, usize)>,
}

impl Bench<'_> {
    fn round(&mut self, traced: bool, rounds: &mut Rounds) {
        let (t0, c0) = (Instant::now(), host::cpu_s());
        let scripts = self
            .profile
            .generate(THREADS, TXS_PER_THREAD, self.args.seed);
        let (t1, c1) = (Instant::now(), host::cpu_s());
        let stm = Stm::with_config(StmConfig::default());
        let cells: Vec<TVar<u64>> = (0..CELLS).map(|_| stm.new_tvar(0u64)).collect();
        let (t2, c2) = (Instant::now(), host::cpu_s());

        let barrier = Barrier::new(THREADS + 1);
        let span_origin = traced.then_some(self.origin);
        let (wall, logs) = std::thread::scope(|s| {
            let handles: Vec<_> = scripts
                .iter()
                .enumerate()
                .map(|(i, script)| {
                    let (stm, cells, barrier) = (&stm, &cells, &barrier);
                    s.spawn(move || run_thread(stm, cells, script, barrier, span_origin, i))
                })
                .collect();
            barrier.wait();
            let go = Instant::now();
            let logs: Vec<ThreadLog> = handles
                .into_iter()
                .map(|h| h.join().expect("benchmark thread panicked"))
                .collect();
            (go.elapsed(), logs)
        });

        rounds.generate_s.push(c1 - c0);
        rounds.setup_s.push(c2 - c0);
        rounds.run_s.push(wall.as_secs_f64());
        let lat = sorted(logs.iter().flat_map(|l| l.latency_ns.iter().copied()));
        rounds.samples += lat.len() as u64;
        rounds.tx_p50_us.push(percentile(&lat, 50.0) / 1e3);
        rounds.tx_p99_us.push(percentile(&lat, 99.0) / 1e3);
        rounds.tx_p999_us.push(percentile(&lat, 99.9) / 1e3);
        if traced {
            rounds.layer.push(layer_metrics(&stm, &logs));
        }
        let v0 = Instant::now();
        self.verify(&stm, &cells, &scripts, &logs);
        let v1 = Instant::now();
        if let Some((log, root)) = &mut self.spans {
            let label = format!("round {}", rounds.run_s.len() - 1);
            let round = log.push("round", label.clone(), Some(*root), t0, v1);
            log.push("generate", label.clone(), Some(round), t0, t1);
            log.push("build", label.clone(), Some(round), t1, t2);
            log.push("verify", label, Some(round), v0, v1);
            for l in logs {
                if let Some(spans) = l.spans {
                    log.adopt(spans, round);
                }
            }
        }
    }

    /// Checks one round: no lost commit, a gap-free TID frontier, and
    /// final cell values equal to a one-at-a-time replay in TID order.
    fn verify(
        &mut self,
        stm: &Stm,
        cells: &[TVar<u64>],
        scripts: &[Vec<StmTx>],
        logs: &[ThreadLog],
    ) {
        let issued_txs = (THREADS * TXS_PER_THREAD) as u64;
        let stats = stm.stats();
        let lost = issued_txs.saturating_sub(stats.commits);
        self.out.attempted += issued_txs;
        self.out.failed += lost;
        if lost > 0 {
            println!("FAILED: {lost} of {issued_txs} transactions did not commit");
        }
        let (issued_tids, nstids) = stm.frontier();
        if nstids.iter().any(|&n| n != issued_tids) {
            self.out.failed += 1;
            println!("FAILED: gap-freedom: {issued_tids} TIDs issued, shard NSTIDs {nstids:?}");
        }

        let mut order: Vec<(u64, usize, usize)> = logs
            .iter()
            .enumerate()
            .flat_map(|(t, l)| l.tids.iter().enumerate().map(move |(i, &tid)| (tid, t, i)))
            .collect();
        order.sort_unstable();
        let mut replay = vec![0u64; CELLS];
        for &(_, t, i) in &order {
            let mut sum = 0u64;
            for op in &scripts[t][i].ops {
                match *op {
                    StmOp::Read(c) => sum = sum.wrapping_add(replay[c]),
                    StmOp::Write(c) => replay[c] = sum,
                }
            }
        }
        let finals: Vec<u64> = stm.atomically(|tx| cells.iter().map(|c| tx.read(c)).collect());
        let unique = order.windows(2).all(|w| w[0].0 != w[1].0);
        if !unique || finals != replay {
            self.out.failed += 1;
            println!("FAILED: the TID-order replay does not reproduce the final cells (unique TIDs: {unique})");
        }
    }
}

/// Commit-path figures of one traced round.
fn layer_metrics(stm: &Stm, logs: &[ThreadLog]) -> Metrics {
    let s = stm.stats();
    let attempts: u64 = logs.iter().map(|l| l.attempts).sum();
    let body = sorted(logs.iter().flat_map(|l| l.body_ns.iter().copied()));
    let commit = sorted(logs.iter().flat_map(|l| {
        l.latency_ns
            .iter()
            .zip(&l.body_ns)
            .map(|(lat, body)| lat.saturating_sub(*body))
    }));
    Metrics::from([
        (
            "stm.attempts_per_commit",
            attempts as f64 / s.commits as f64,
        ),
        ("stm.conflicts", s.conflicts as f64),
        ("stm.early_commits", s.early_commits as f64),
        ("stm.recycled_tids", s.recycled_tids as f64),
        ("stm.slot_exhausted", s.slot_exhausted as f64),
        ("stm.body_ns_p50", percentile(&body, 50.0)),
        ("stm.commit_ns_p50", percentile(&commit, 50.0)),
        ("stm.commit_ns_p99", percentile(&commit, 99.0)),
    ])
}

pub fn run(args: &Args) -> Outcome {
    let origin = Instant::now();
    let spans = args.trace.then(|| {
        let mut log = SpanLog::new(origin);
        let root = log.open("workload", "stm-zipf2".to_string(), None);
        (log, root)
    });
    let mut b = Bench {
        args,
        profile: StmProfile::zipfian(CELLS, THETA),
        out: Outcome::default(),
        origin,
        spans,
    };
    let mut m = Metrics::new();
    // Traced rounds alternate with untraced ones, so drift in host
    // speed stays out of the overhead ratio.
    let (mut plain, mut traced) = (Rounds::default(), Rounds::default());
    let start = Instant::now();
    let mut first_round_rss_mb = None;
    while plain.run_s.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        b.round(false, &mut plain);
        if args.trace {
            b.round(true, &mut traced);
        }
        first_round_rss_mb = first_round_rss_mb.or_else(|| host::peak_rss_mb().ok());
    }
    let run_s = median(&plain.run_s);
    m.insert("setup_s", median(&plain.setup_s));
    m.insert("run_s", run_s);
    if let Some(rss) = first_round_rss_mb {
        m.insert("peak_rss_mb", rss);
    }
    m.insert("tx_per_s", (THREADS * TXS_PER_THREAD) as f64 / run_s);
    m.insert("tx_p50_us", median(&plain.tx_p50_us));
    m.insert("tx_p99_us", median(&plain.tx_p99_us));
    m.insert("stm.tx_p999_us", median(&plain.tx_p999_us));
    b.out
        .notes
        .push(format!("run_s per round (wall s): {:.4?}", plain.run_s));
    b.out.notes.push(format!(
        "{} rounds of {THREADS} x {TXS_PER_THREAD} transactions; latency percentiles \
         are medians of per-round exact percentiles over {} samples in all",
        plain.run_s.len(),
        plain.samples
    ));

    if args.trace {
        m.insert("workloads.generate_s", median(&plain.generate_s));
        m.insert(
            "trace.overhead_frac",
            ratio(&traced.run_s, &plain.run_s) - 1.0,
        );
        let names: Vec<&'static str> = traced.layer[0].keys().copied().collect();
        for name in names {
            let per_round: Vec<f64> = traced.layer.iter().map(|l| l[name]).collect();
            m.insert(name, median(&per_round));
        }
        b.out.notes.push(format!(
            "{} traced rounds; commit-path figures and the overhead are per-round medians",
            traced.run_s.len()
        ));
        if let Some((log, root)) = b.spans.take() {
            let path = format!(".bench_spans/stm-zipf2-seed{}.json", args.seed);
            b.out.notes.extend(log.finish(root, &path));
        }
    }
    b.out.metrics = m;
    b.out
}
