//! `chaos-explore` — command-line front end for the exploration
//! harness. Three jobs:
//!
//! * sweep an unmutated (program × chaos) grid and demand zero oracle
//!   violations (`--programs/--chaos`), then repeat over lossy wires
//!   (frame drops/duplicates/reordering recovered by the reliable
//!   transport; `--loss` sets the chaos-seed count, 0 skips);
//! * with `--mutations`, additionally prove each `ProtocolBugs` knob is
//!   caught within the grid's seed budget (the mutation self-test);
//! * replay the checked-in regression corpora (`--corpus`).
//!
//! Any surviving failure is shrunk and written as a replayable JSON
//! artifact under `--out` (default `target/chaos`), and the process
//! exits non-zero.

use std::path::PathBuf;
use std::process::ExitCode;

use tcc_chaos::corpus;
use tcc_chaos::explorer::{mutation_grid, run_scenarios, seeds_to_first_failure, GridSpec};
use tcc_chaos::shrink::shrink;
use tcc_types::ProtocolBugs;

struct Args {
    programs: u64,
    chaos: u64,
    loss: u64,
    jobs: usize,
    mutations: bool,
    replay_corpus: bool,
    write_repros: bool,
    out: PathBuf,
    shrink_budget: u64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            programs: 25,
            chaos: 20,
            loss: 20,
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
            mutations: false,
            replay_corpus: false,
            write_repros: false,
            out: PathBuf::from("target/chaos"),
            shrink_budget: 400,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--programs" => {
                args.programs = value("--programs")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--chaos" => {
                args.chaos = value("--chaos")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--loss" => {
                args.loss = value("--loss")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--jobs" => {
                args.jobs = value("--jobs")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--shrink-budget" => {
                args.shrink_budget = value("--shrink-budget")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--mutations" => args.mutations = true,
            "--corpus" => args.replay_corpus = true,
            "--write-repros" => args.write_repros = true,
            "--help" | "-h" => {
                println!(
                    "usage: chaos-explore [--programs N] [--chaos N] [--loss N] \
                     [--jobs N] [--mutations] [--corpus] [--write-repros] \
                     [--out DIR] [--shrink-budget N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    Ok(args)
}

/// Runs a grid the unmutated protocol must pass at every point. Each
/// failure is shrunk and written under `--out` with its pre-failure
/// snapshot. Returns whether every point passed.
fn sweep(label: &str, axis: &str, grid: &GridSpec, args: &Args) -> bool {
    let scenarios = grid.scenarios();
    println!(
        "{label}: {} scenarios ({} program seeds x {} {axis}) on {} jobs",
        scenarios.len(),
        grid.program_seeds.end - grid.program_seeds.start,
        grid.chaos_seeds.end - grid.chaos_seeds.start,
        args.jobs
    );
    let report = run_scenarios(&scenarios, args.jobs);
    println!(
        "  {} runs, {} commits, {} failures",
        report.runs,
        report.commits,
        report.failures.len()
    );
    if !report.passed() {
        std::fs::create_dir_all(&args.out).ok();
    }
    for failure in &report.failures {
        let (small, stats) = shrink(&failure.scenario, args.shrink_budget);
        let path = args.out.join(format!("{}.json", small.name));
        println!(
            "  FAIL {}: {} (shrunk in {} attempts -> {})",
            failure.scenario.name,
            failure.outcome.failure.as_ref().unwrap(),
            stats.attempts,
            path.display()
        );
        if let Err(e) = std::fs::write(&path, small.to_json_string()) {
            eprintln!("  write {}: {e}", path.display());
        }
        if let Some(snap) = &failure.snapshot {
            let spath = args.out.join(format!("{}.snap", failure.scenario.name));
            match snap.write_atomic(&spath) {
                Ok(()) => println!(
                    "  snapshot from cycle {} (pre-failure) -> {}",
                    snap.at_cycle,
                    spath.display()
                ),
                Err(e) => eprintln!("  write {}: {e}", spath.display()),
            }
        }
    }
    report.passed()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("chaos-explore: {e}");
            return ExitCode::FAILURE;
        }
    };
    // 1. Survival sweep: the unmutated protocol must pass every point.
    let grid = GridSpec::new(0..args.programs, 0..args.chaos);
    let mut ok = sweep("survival sweep", "chaos seeds", &grid, &args);

    // 1b. Loss sweep: the unmutated protocol over lossy wires — drops,
    // duplicates, cross-channel reordering — must still pass every
    // point (the reliable transport recovers; zero stalls tolerated).
    if args.loss > 0 {
        let grid = GridSpec::lossy(0..args.programs, 0..args.loss);
        ok &= sweep("loss sweep", "lossy chaos seeds", &grid, &args);
    }

    // 2. Mutation self-test: every knob must trip within the budget.
    if args.mutations {
        for (name, _bugs) in ProtocolBugs::catalog() {
            let mut mutated = mutation_grid(name, 0..args.programs, 0..args.chaos).scenarios();
            for s in &mut mutated {
                s.name = format!("{name}-{}", s.name);
            }
            match seeds_to_first_failure(&mutated) {
                Some((n, failure)) => {
                    println!(
                        "mutation {name}: caught after {n}/{} scenarios ({})",
                        mutated.len(),
                        failure.outcome.failure.as_ref().unwrap()
                    );
                    if args.write_repros {
                        let (small, stats) = shrink(&failure.scenario, args.shrink_budget);
                        std::fs::create_dir_all(&args.out).ok();
                        let path = args.out.join(format!("{name}.json"));
                        println!(
                            "  shrunk {} -> {} ops in {} attempts -> {}",
                            failure.scenario.ops(),
                            small.ops(),
                            stats.attempts,
                            path.display()
                        );
                        if let Err(e) = std::fs::write(&path, small.to_json_string()) {
                            eprintln!("  write {}: {e}", path.display());
                        }
                    }
                }
                None => {
                    ok = false;
                    println!(
                        "mutation {name}: NOT caught within {} scenarios",
                        mutated.len()
                    );
                }
            }
        }
    }

    // 3. Regression corpora: shrunk chaos repros + shared core seeds.
    if args.replay_corpus {
        match corpus::load_scenarios(&corpus::corpus_dir()) {
            Ok(cases) => {
                // Bug-witness repros (bugs.any()) must still fail — that
                // is what they regress; benign entries must pass.
                for s in &cases {
                    let outcome = s.run();
                    let good = outcome.failure.is_some() == s.bugs.any();
                    if good {
                        println!("corpus {}: ok", s.name);
                    } else {
                        ok = false;
                        println!(
                            "corpus {}: UNEXPECTED {}",
                            s.name,
                            match &outcome.failure {
                                Some(f) => format!("failure ({f})"),
                                None => "pass (bug witness no longer reproduces)".to_string(),
                            }
                        );
                    }
                }
            }
            Err(e) => {
                ok = false;
                eprintln!("corpus: {e}");
            }
        }
        match corpus::load_core_regression_corpus() {
            Ok(cases) => {
                for case in cases {
                    let s = tcc_chaos::Scenario::new(case.name.clone(), case.threads);
                    let outcome = s.run();
                    match &outcome.failure {
                        None => println!("regression {}: pass", case.name),
                        Some(f) => {
                            ok = false;
                            println!("regression {}: FAIL ({f})", case.name);
                        }
                    }
                }
            }
            Err(e) => {
                ok = false;
                eprintln!("regression corpus: {e}");
            }
        }
    }

    if ok {
        println!("chaos-explore: all checks passed");
        ExitCode::SUCCESS
    } else {
        println!("chaos-explore: FAILURES detected");
        ExitCode::FAILURE
    }
}
