//! `soak` — the crash-surviving long-haul harness.
//!
//! Runs an adversarial simulator workload (lossy wires, reliable
//! transport, watchdog, serializability oracle) in checkpointed
//! segments: every `--every` cycles the full machine state is written
//! atomically as a `tcc-snapshot/v1` file and committed to an
//! append-only journal. SIGKILL the process at any point; the next
//! invocation resumes from the latest journaled checkpoint and — by
//! the simulator's byte-identical-resume guarantee — finishes with
//! exactly the fingerprint and commit count of an uninterrupted run.
//! Between generations it sweeps a small chaos grid, so continuous
//! operation also exercises the exploration layer.
//!
//! Modes:
//!
//! * `soak run --state DIR` — the resumable segment runner (the mode
//!   you SIGKILL).
//! * `soak smoke` — self-contained crash drill, gated in CI: computes
//!   the uninterrupted fingerprint, spawns `soak run`, SIGKILLs it
//!   after its first checkpoint commits, resumes it, and demands
//!   fingerprint + commit parity.
//! * `soak measure` — checkpoint size and save/restore cost table per
//!   workload (the EXPERIMENTS.md table).

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use tcc_chaos::explorer::{run_scenarios, GridSpec};
use tcc_core::{
    Journal, RunError, SimResult, Simulator, Snapshot, Step, SystemConfig, ThreadProgram,
    Transaction, TransportConfig, TxOp, WatchdogConfig, WorkItem,
};
use tcc_network::{ChaosConfig, DropRule, DupRule};
use tcc_types::rng::SmallRng;
use tcc_types::{Addr, Cycle};

struct Args {
    mode: String,
    state: PathBuf,
    seed: u64,
    txs: usize,
    every: u64,
    generations: u64,
    grid: u64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            mode: String::new(),
            state: PathBuf::from("target/soak"),
            seed: 1,
            txs: 60,
            every: 5_000,
            generations: 1,
            grid: 0,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    args.mode = it.next().unwrap_or_else(|| "help".to_string());
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--state" => args.state = PathBuf::from(value("--state")?),
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--txs" => args.txs = value("--txs")?.parse().map_err(|e| format!("{e}"))?,
            "--every" => args.every = value("--every")?.parse().map_err(|e| format!("{e}"))?,
            "--generations" => {
                args.generations = value("--generations")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            "--grid" => args.grid = value("--grid")?.parse().map_err(|e| format!("{e}"))?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.every == 0 {
        return Err("--every must be at least 1".into());
    }
    Ok(args)
}

/// The soak workload's machine: lossy wires recovered by the reliable
/// transport, watchdog armed, serializability oracle on — the
/// configuration with the most live state to snapshot.
fn soak_config(seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::with_procs(4);
    cfg.check_serializability = true;
    cfg.tie_break_seed = Some(seed);
    cfg.transport = Some(TransportConfig::default());
    cfg.watchdog = Some(WatchdogConfig::default());
    cfg.chaos = Some(ChaosConfig {
        seed,
        drops: vec![DropRule {
            kind: "*".to_string(),
            prob: 0.05,
            from: 0,
            until: u64::MAX,
        }],
        dups: vec![DupRule {
            kind: "*".to_string(),
            prob: 0.10,
            delay: 9,
            from: 0,
            until: u64::MAX,
        }],
        reorder: 32,
        reorder_prob: 0.25,
        ..ChaosConfig::default()
    });
    cfg
}

/// Seeded random hot-set programs (same shape the checkpoint matrix
/// tests drive): frequent conflicts, owner transfers, barriers.
fn soak_programs(n_procs: usize, txs: usize, seed: u64) -> Vec<ThreadProgram> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n_procs)
        .map(|_| {
            let mut items = Vec::new();
            for t in 0..txs {
                let n_ops = rng.gen_range(1..=6);
                let mut ops = Vec::with_capacity(n_ops);
                for _ in 0..n_ops {
                    let line = rng.gen_range(0..6u64);
                    let word = rng.gen_range(0..8u64);
                    let addr = Addr(line * 32 + word * 4);
                    if rng.gen_bool(0.45) {
                        ops.push(TxOp::Store(addr));
                    } else {
                        ops.push(TxOp::Load(addr));
                    }
                    if rng.gen_bool(0.5) {
                        ops.push(TxOp::Compute(rng.gen_range(1..60)));
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

fn build(cfg: &SystemConfig, programs: &[ThreadProgram], seed: u64) -> Simulator {
    let mut sim = Simulator::builder(cfg.clone())
        .programs(programs.to_vec())
        .build()
        .expect("valid soak config");
    sim.set_program_seed(seed);
    sim
}

/// One resumable generation: run in `every`-cycle segments, journal a
/// checkpoint after each, resume from the journal if one matches.
fn run_generation(args: &Args, gen_seed: u64) -> Result<SimResult, RunError> {
    let cfg = soak_config(gen_seed);
    let programs = soak_programs(4, args.txs, gen_seed);
    std::fs::create_dir_all(&args.state).expect("create state dir");
    let mut journal = Journal::open(args.state.join("journal.tsv")).expect("open journal");

    let mut parent = None;
    let mut sim = None;
    if let Some(latest) = journal
        .entries()
        .iter()
        .rev()
        .find(|e| e.digest == cfg.digest())
    {
        match Snapshot::read_file(Path::new(&latest.path))
            .map_err(|e| e.to_string())
            .and_then(|snap| {
                Simulator::resume(cfg.clone(), programs.clone(), &snap).map_err(|e| e.to_string())
            }) {
            Ok(resumed) => {
                println!(
                    "resumed: seq={} cycle={} ({})",
                    latest.seq, latest.cycle, latest.path
                );
                parent = Some(latest.seq);
                sim = Some(resumed);
            }
            Err(e) => {
                // A half-written or stale snapshot is recoverable — the
                // run restarts from scratch rather than dying.
                eprintln!(
                    "checkpoint seq={} unusable ({e}); starting fresh",
                    latest.seq
                );
            }
        }
    }
    let mut sim = sim.unwrap_or_else(|| build(&cfg, &programs, gen_seed));

    loop {
        let target = sim.queue_now().0 + args.every;
        match sim.try_run_until(Some(Cycle(target)))? {
            Step::Done(r) => return Ok(r),
            Step::Paused(paused) => {
                let snap = paused.checkpoint();
                let file = args.state.join(format!("ckpt-{:012}.snap", snap.at_cycle));
                snap.write_atomic(&file).expect("write checkpoint");
                let entry = journal
                    .append(
                        parent,
                        snap.at_cycle,
                        snap.config_digest,
                        &file.to_string_lossy(),
                        &format!("gen-seed {gen_seed}"),
                    )
                    .expect("journal append");
                println!("checkpoint: seq={} cycle={}", entry.seq, entry.cycle);
                parent = Some(entry.seq);
                sim = *paused;
            }
        }
    }
}

/// Stateless side sweep between generations: a small chaos grid.
/// Returns false on any failure.
fn side_sweeps(gen_seed: u64, grid: u64) -> bool {
    if grid == 0 {
        return true;
    }
    let scenarios = GridSpec::new(gen_seed..gen_seed + grid, 0..grid).scenarios();
    let report = run_scenarios(&scenarios, 2);
    println!(
        "chaos grid: {} runs, {} commits, {} failures",
        report.runs,
        report.commits,
        report.failures.len()
    );
    report.passed()
}

fn mode_run(args: &Args) -> ExitCode {
    for g in 0..args.generations.max(1) {
        let gen_seed = args.seed + g;
        match run_generation(args, gen_seed) {
            Ok(r) => {
                if let Some(Err(e)) = &r.serializability {
                    eprintln!("generation {gen_seed}: NOT SERIALIZABLE: {e}");
                    return ExitCode::from(2);
                }
                println!("generation: {gen_seed}");
                println!("commits: {}", r.commits);
                println!("total_cycles: {}", r.total_cycles);
                println!("fingerprint: {}", r.fingerprint());
            }
            Err(RunError::Stalled(d)) => {
                eprintln!("generation {gen_seed} stalled:\n{d}");
                return ExitCode::from(2);
            }
        }
        if !side_sweeps(gen_seed, args.grid) {
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

/// Polls the journal until it holds at least one committed entry.
fn wait_for_checkpoint(journal_path: &Path, timeout: Duration) -> bool {
    let start = Instant::now();
    while start.elapsed() < timeout {
        if let Ok(j) = Journal::open(journal_path) {
            if !j.entries().is_empty() {
                return true;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

/// Extracts `key: value` from captured child stdout.
fn stdout_field<'a>(out: &'a str, key: &str) -> Option<&'a str> {
    out.lines()
        .find_map(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix(": ")))
}

fn mode_smoke(args: &Args) -> ExitCode {
    // Fresh state dir per drill so stale checkpoints can't fake parity.
    let state = args.state.join(format!("smoke-{}", std::process::id()));
    std::fs::remove_dir_all(&state).ok();
    std::fs::create_dir_all(&state).expect("create state dir");
    let journal_path = state.join("journal.tsv");

    // 1. The uninterrupted truth, in-process.
    let cfg = soak_config(args.seed);
    let programs = soak_programs(4, args.txs, args.seed);
    let baseline = match build(&cfg, &programs, args.seed).try_run() {
        Ok(r) => r,
        Err(RunError::Stalled(d)) => {
            eprintln!("smoke baseline stalled:\n{d}");
            return ExitCode::from(2);
        }
    };
    baseline.assert_serializable();
    println!(
        "baseline: commits={} cycles={} fingerprint={}",
        baseline.commits,
        baseline.total_cycles,
        baseline.fingerprint()
    );

    // 2. Spawn the runner and SIGKILL it after its first checkpoint
    // commits — a genuine no-warning kill, not a graceful shutdown.
    let exe = std::env::current_exe().expect("current exe");
    let child_cmd = |state: &Path| {
        let mut c = std::process::Command::new(&exe);
        c.arg("run")
            .args(["--state".as_ref(), state.as_os_str()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--txs", &args.txs.to_string()])
            .args(["--every", &args.every.to_string()])
            .args(["--generations", "1"]);
        c
    };
    let mut child = child_cmd(&state)
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawn soak runner");
    if !wait_for_checkpoint(&journal_path, Duration::from_secs(120)) {
        child.kill().ok();
        child.wait().ok();
        eprintln!("smoke: no checkpoint appeared within the wait budget");
        return ExitCode::from(2);
    }
    child.kill().expect("SIGKILL the runner");
    child.wait().expect("reap the runner");
    let killed_at = Journal::open(&journal_path)
        .ok()
        .and_then(|j| j.latest().map(|e| e.cycle));
    println!(
        "killed runner after checkpoint at cycle {}",
        killed_at.unwrap_or(0)
    );

    // 3. Resume: the second invocation must pick up the journaled
    // checkpoint and finish with the uninterrupted run's numbers.
    let out = child_cmd(&state).output().expect("run resumed soak");
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        eprintln!(
            "smoke: resumed runner failed ({})\n{stdout}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        return ExitCode::from(2);
    }
    if !stdout.contains("resumed: seq=") {
        eprintln!("smoke: second run did not resume from the checkpoint\n{stdout}");
        return ExitCode::from(2);
    }
    let fp = stdout_field(&stdout, "fingerprint").unwrap_or("<missing>");
    let commits = stdout_field(&stdout, "commits").unwrap_or("<missing>");
    let fp_ok = fp == baseline.fingerprint();
    let commits_ok = commits == baseline.commits.to_string();
    println!("resumed:  commits={commits} fingerprint={fp}");
    if fp_ok && commits_ok {
        println!("SMOKE PASS: kill-and-resume is byte-identical to the uninterrupted run");
        std::fs::remove_dir_all(&state).ok();
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "SMOKE FAIL: fingerprint parity={fp_ok} commit parity={commits_ok} (state kept at {})",
            state.display()
        );
        ExitCode::from(2)
    }
}

fn mode_measure(args: &Args) -> ExitCode {
    println!("| workload | cycle | snapshot bytes | save | restore |");
    println!("|---|---|---|---|---|");
    let seeds = [("lossy-4p", args.seed), ("lossy-4p-alt", args.seed + 1)];
    for (name, seed) in seeds {
        let cfg = soak_config(seed);
        let programs = soak_programs(4, args.txs, seed);
        let total = match build(&cfg, &programs, seed).try_run() {
            Ok(r) => r.total_cycles,
            Err(RunError::Stalled(d)) => {
                eprintln!("measure workload {name} stalled:\n{d}");
                return ExitCode::from(2);
            }
        };
        for frac in [4u64, 2] {
            let at = total / frac;
            let Ok(Step::Paused(paused)) =
                build(&cfg, &programs, seed).try_run_until(Some(Cycle(at)))
            else {
                continue;
            };
            let t0 = Instant::now();
            let bytes = paused.checkpoint().to_bytes();
            let save = t0.elapsed();
            let t1 = Instant::now();
            let snap = Snapshot::from_bytes(&bytes).expect("container round-trips");
            let resumed = Simulator::resume(cfg.clone(), programs.clone(), &snap).expect("resume");
            let restore = t1.elapsed();
            drop(resumed);
            println!(
                "| {name} | {at} | {} | {:.2?} | {:.2?} |",
                bytes.len(),
                save,
                restore
            );
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("soak: {e}");
            return ExitCode::FAILURE;
        }
    };
    match args.mode.as_str() {
        "run" => mode_run(&args),
        "smoke" => mode_smoke(&args),
        "measure" => mode_measure(&args),
        _ => {
            println!(
                "usage: soak <run|smoke|measure> [--state DIR] [--seed N] [--txs N] \
                 [--every CYCLES] [--generations N] [--grid N]"
            );
            ExitCode::FAILURE
        }
    }
}
