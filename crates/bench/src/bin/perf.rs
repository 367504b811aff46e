//! Hermetic scheduler/hot-path performance harness (`BENCH_perf.json`).
//!
//! Runs a fixed set of Figure 7 cells and reports, per cell:
//!
//! * wall-clock (best of `--reps`, default 3),
//! * simulator events per second,
//! * heap allocations (count and bytes) via a counting global
//!   allocator — compiled into *this binary only*, so the tracked
//!   numbers cannot perturb any other build artifact,
//! * the time and allocation count of building the simulator from
//!   generated programs (`build_ms`, `build_alloc_count`; reported in
//!   the JSON, never gated),
//! * the deterministic result fingerprint
//!   ([`tcc_core::SimResult::fingerprint`]).
//!
//! Modes:
//!
//! * `perf` — the full tracked cells (radix across the Figure 7 sweep,
//!   three more 64-CPU apps, and four apps on a 128-CPU machine, past
//!   the paper's largest); writes `BENCH_perf.json`.
//! * `perf --smoke` — small fixed cells for CI.
//! * `perf --smoke --check <golden.json>` — assert fingerprint identity
//!   and allocation counts within tolerance against a checked-in
//!   golden; exits non-zero on any regression. With an app filter
//!   (`perf --smoke volrend --check ...`) only that app's golden cells
//!   are compared.
//! * `perf --smoke --write-golden <golden.json>` — regenerate the
//!   golden after an intentional behaviour change.
//!
//! If `results/BENCH_perf_seed.json` (the committed pre-overhaul
//! reference, measured on the same machine class) is readable, each
//! cell also reports `speedup_vs_seed`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use tcc_bench::report::write_report;
use tcc_bench::{check_golden, GoldenCell, HarnessArgs, HARNESS_SEED};
use tcc_core::{Simulator, SystemConfig};
use tcc_trace::{Json, RunReport};
use tcc_workloads::{apps, AppProfile, Scale};

/// Counting allocator: defers to the system allocator, tallying every
/// allocation. Lives only in this binary.
struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> (u64, u64) {
    (
        ALLOC_COUNT.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// One tracked cell: an application at a CPU count and scale.
struct Cell {
    app: AppProfile,
    cpus: usize,
    scale: Scale,
}

impl Cell {
    fn label(&self) -> String {
        let s = match self.scale {
            Scale::Smoke => "smoke",
            Scale::Full => "full",
        };
        format!("{}@{}/{s}", self.app.name, self.cpus)
    }
}

fn tracked_cells(smoke: bool) -> Vec<Cell> {
    let mk = |app: AppProfile, cpus: usize, scale: Scale| Cell { app, cpus, scale };
    if smoke {
        vec![
            mk(apps::radix(), 4, Scale::Smoke),
            mk(apps::radix(), 16, Scale::Smoke),
            // The radix @ 64 machine is the acceptance cell for the
            // allocation gate (`LineValues` interning); tracking it at
            // smoke scale keeps the regression visible in CI.
            mk(apps::radix(), 64, Scale::Smoke),
            mk(apps::specjbb(), 8, Scale::Smoke),
            mk(apps::volrend(), 8, Scale::Smoke),
            mk(apps::volrend(), 16, Scale::Smoke),
            mk(apps::equake(), 16, Scale::Smoke),
        ]
    } else {
        vec![
            mk(apps::radix(), 1, Scale::Full),
            mk(apps::radix(), 8, Scale::Full),
            mk(apps::radix(), 16, Scale::Full),
            mk(apps::radix(), 32, Scale::Full),
            mk(apps::radix(), 64, Scale::Full),
            mk(apps::specjbb(), 64, Scale::Full),
            mk(apps::volrend(), 64, Scale::Full),
            mk(apps::equake(), 64, Scale::Full),
            mk(apps::radix(), 128, Scale::Full),
            mk(apps::specjbb(), 128, Scale::Full),
            mk(apps::volrend(), 128, Scale::Full),
            mk(apps::equake(), 128, Scale::Full),
        ]
    }
}

struct Measurement {
    label: String,
    wall_ms: f64,
    events: u64,
    events_per_sec: f64,
    alloc_count: u64,
    alloc_bytes: u64,
    /// Building the simulator (programs already generated); reported,
    /// not gated.
    build_ms: f64,
    build_alloc_count: u64,
    fingerprint: String,
    total_cycles: u64,
    commits: u64,
}

fn run_cell(cell: &Cell, reps: usize) -> Measurement {
    let run_once = || -> Measurement {
        let cfg = SystemConfig::with_procs(cell.cpus);
        let programs = cell
            .app
            .generate_scaled(cell.cpus, HARNESS_SEED, cell.scale);
        let (build_a0, _) = allocs();
        let build_t0 = Instant::now();
        let sim = Simulator::builder(cfg)
            .programs(programs)
            .build()
            .expect("valid config");
        let build_ms = build_t0.elapsed().as_secs_f64() * 1e3;
        let (a0, b0) = allocs();
        let t0 = Instant::now();
        let r = sim.run();
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let (a1, b1) = allocs();
        Measurement {
            label: cell.label(),
            wall_ms,
            events: r.events,
            events_per_sec: r.events as f64 / (wall_ms / 1e3),
            alloc_count: a1 - a0,
            alloc_bytes: b1 - b0,
            build_ms,
            build_alloc_count: a0 - build_a0,
            fingerprint: r.fingerprint(),
            total_cycles: r.total_cycles,
            commits: r.commits,
        }
    };
    (0..reps.max(1))
        .map(|_| run_once())
        .min_by(|a, b| a.wall_ms.total_cmp(&b.wall_ms))
        .expect("at least one rep")
}

fn measurement_json(m: &Measurement, seed_ref: Option<&Json>) -> Json {
    let mut fields = vec![
        ("cell", Json::from(m.label.clone())),
        ("wall_ms", Json::Num(m.wall_ms)),
        ("events", m.events.into()),
        ("events_per_sec", Json::Num(m.events_per_sec)),
        ("alloc_count", m.alloc_count.into()),
        ("alloc_bytes", m.alloc_bytes.into()),
        ("build_ms", Json::Num(m.build_ms)),
        ("build_alloc_count", m.build_alloc_count.into()),
        ("fingerprint", m.fingerprint.clone().into()),
        ("total_cycles", m.total_cycles.into()),
        ("commits", m.commits.into()),
    ];
    if let Some(seed) = seed_ref.and_then(|s| seed_cell_wall(s, &m.label)) {
        fields.push(("seed_wall_ms", Json::Num(seed)));
        fields.push(("speedup_vs_seed", Json::Num(seed / m.wall_ms)));
    }
    Json::obj(fields)
}

/// Looks up a cell's wall-clock in the committed seed reference report.
fn seed_cell_wall(seed: &Json, label: &str) -> Option<f64> {
    let cells = seed.get("cells")?;
    let Json::Arr(arr) = cells else { return None };
    arr.iter()
        .find(|c| c.get("cell").and_then(Json::as_str) == Some(label))
        .and_then(|c| c.get("wall_ms"))
        .and_then(Json::as_f64)
}

fn load_seed_reference() -> Option<Json> {
    let text = std::fs::read_to_string("results/BENCH_perf_seed.json").ok()?;
    Json::parse(&text).ok()
}

fn golden_json(cells: &[Measurement]) -> Json {
    Json::obj(vec![
        ("schema", "tcc-perf-golden/v1".into()),
        (
            "cells",
            Json::Arr(
                cells
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("cell", Json::from(m.label.clone())),
                            ("fingerprint", m.fingerprint.clone().into()),
                            ("alloc_count", m.alloc_count.into()),
                            ("total_cycles", m.total_cycles.into()),
                            ("commits", m.commits.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn main() {
    // One parse loop for everything: the shared `HarnessArgs` grammar
    // treats any free token as the app filter, which would swallow the
    // value of `--check`/`--write-golden`/`--reps`.
    let mut check: Option<String> = None;
    let mut write_golden: Option<String> = None;
    let mut reps = 3usize;
    let mut smoke = false;
    let mut filter: Option<String> = None;
    let mut iter = std::env::args().skip(1);
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--check" => check = iter.next(),
            "--write-golden" => write_golden = iter.next(),
            "--reps" => reps = iter.next().and_then(|v| v.parse().ok()).unwrap_or(3),
            "--smoke" => smoke = true,
            other if !other.starts_with("--") => filter = Some(other.to_string()),
            _ => {}
        }
    }
    let args = HarnessArgs {
        filter,
        smoke,
        ..HarnessArgs::default()
    };

    let cells = tracked_cells(args.smoke);
    let seed_ref = load_seed_reference();
    let mut measured = Vec::new();
    println!(
        "{:<18} {:>10} {:>12} {:>12} {:>12} {:>9} {:>12}  fingerprint",
        "cell", "wall ms", "events/s", "allocs", "alloc MB", "build ms", "build allocs"
    );
    // The first simulation in a process makes one-time allocations
    // (lazily built tables, thread-locals). An unmeasured warm-up run
    // keeps them out of whichever cell happens to run first, so every
    // cell's count is the same for any `--reps` and app filter.
    if let Some(first) = cells.iter().find(|c| args.selects(c.app.name)) {
        run_cell(first, 1);
    }
    for cell in &cells {
        if !args.selects(cell.app.name) {
            continue;
        }
        let m = run_cell(cell, reps);
        println!(
            "{:<18} {:>10.1} {:>12.0} {:>12} {:>12.1} {:>9.1} {:>12}  {}",
            m.label,
            m.wall_ms,
            m.events_per_sec,
            m.alloc_count,
            m.alloc_bytes as f64 / 1e6,
            m.build_ms,
            m.build_alloc_count,
            m.fingerprint
        );
        measured.push(m);
    }

    let mut report = RunReport::new("perf");
    let harness = vec![
        ("seed", Json::from(HARNESS_SEED)),
        ("scale", if args.smoke { "smoke" } else { "full" }.into()),
        ("reps", (reps as u64).into()),
    ];
    report.set("harness", Json::obj(harness));
    report.set(
        "cells",
        Json::Arr(
            measured
                .iter()
                .map(|m| measurement_json(m, seed_ref.as_ref()))
                .collect(),
        ),
    );
    write_report(&report);

    if let Some(path) = write_golden {
        std::fs::write(&path, golden_json(&measured).to_pretty()).expect("write golden");
        eprintln!("  wrote {path}");
    }
    if let Some(path) = check {
        let run: Vec<GoldenCell<'_>> = measured
            .iter()
            .map(|m| GoldenCell {
                label: &m.label,
                fingerprint: &m.fingerprint,
                alloc_count: m.alloc_count,
            })
            .collect();
        let verdict = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|golden| check_golden(&golden, &run, |app| args.selects(app)));
        match verdict {
            Ok(()) => println!("perf-smoke: OK ({} cells match {path})", measured.len()),
            Err(e) => {
                eprintln!("perf-smoke FAILED: {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
