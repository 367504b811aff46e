//! Large-machine scaling study (`BENCH_scale.json`).
//!
//! Per cell (application @ CPU count) this harness runs the simulator
//! once and records wall-clock, simulator events per second, heap
//! allocations (count and bytes, via a counting global allocator
//! compiled into this binary only), and the deterministic result
//! fingerprint. The report's `host` block records `host_cpus` beside
//! the wall-clock figures.
//!
//! Modes:
//!
//! * `scale` — the full 64/128-CPU cells; writes `BENCH_scale.json`.
//! * `scale --smoke` — small 16-CPU cells, for CI.
//! * `scale --smoke --check <golden.json>` — assert per-cell
//!   fingerprint identity and allocation counts within tolerance
//!   against a checked-in golden; exits non-zero on any regression.
//! * `scale --smoke --write-golden <golden.json>` — regenerate the
//!   golden after an intentional behaviour change.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use tcc_bench::report::write_report;
use tcc_bench::{HarnessArgs, HARNESS_SEED};
use tcc_core::{SimResult, Simulator, SystemConfig};
use tcc_stats::render::TextTable;
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

/// The simulated machine size: past the paper's largest (64).
const SCALE_CPUS: usize = 128;

/// The measured cells. Full: radix @ 64 (the largest Figure 7 machine)
/// plus four applications at 128 CPUs. Smoke: three 16-CPU cells small
/// enough for a CI gate.
fn cells(smoke: bool) -> Vec<(AppProfile, usize)> {
    if smoke {
        vec![
            (apps::radix(), 16),
            (apps::volrend(), 16),
            (apps::equake(), 16),
        ]
    } else {
        vec![
            (apps::radix(), 64),
            (apps::radix(), SCALE_CPUS),
            (apps::specjbb(), SCALE_CPUS),
            (apps::volrend(), SCALE_CPUS),
            (apps::equake(), SCALE_CPUS),
        ]
    }
}

/// One measured cell.
struct Row {
    label: String,
    wall_ms: f64,
    events: u64,
    alloc_count: u64,
    alloc_bytes: u64,
    fingerprint: String,
    total_cycles: u64,
    commits: u64,
}

fn run_row(app: &AppProfile, cpus: usize, seed: u64, scale: Scale) -> Row {
    let programs = app.generate_scaled(cpus, seed, scale);
    let sim = Simulator::builder(SystemConfig::with_procs(cpus))
        .programs(programs)
        .build()
        .expect("valid config");
    let (a0, b0) = allocs();
    let t0 = Instant::now();
    let r: SimResult = sim.run();
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (a1, b1) = allocs();
    Row {
        label: format!("{}@{cpus}", app.name),
        wall_ms,
        events: r.events,
        alloc_count: a1 - a0,
        alloc_bytes: b1 - b0,
        fingerprint: r.fingerprint(),
        total_cycles: r.total_cycles,
        commits: r.commits,
    }
}

/// Allowed relative allocation-count growth before `--check` fails.
const ALLOC_TOLERANCE: f64 = 0.10;

/// The golden keeps the `classic_alloc_count` key it was written with.
fn check_golden(path: &str, cells: &[Row]) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let golden = Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let Some(Json::Arr(want)) = golden.get("cells") else {
        return Err(format!("{path}: no cells array"));
    };
    if want.len() != cells.len() {
        return Err(format!(
            "{path}: golden has {} cells, run produced {}",
            want.len(),
            cells.len()
        ));
    }
    for (w, got) in want.iter().zip(cells) {
        let cell = w.get("cell").and_then(Json::as_str).unwrap_or("?");
        if cell != got.label {
            return Err(format!(
                "cell order mismatch: golden {cell}, run {}",
                got.label
            ));
        }
        let want_fp = w.get("fingerprint").and_then(Json::as_str).unwrap_or("?");
        if want_fp != got.fingerprint {
            return Err(format!(
                "{cell}: result fingerprint changed: golden {want_fp}, run {} \
                 (simulation results must be byte-identical)",
                got.fingerprint
            ));
        }
        let want_allocs = w
            .get("classic_alloc_count")
            .and_then(Json::as_f64)
            .unwrap_or(f64::MAX);
        let limit = want_allocs * (1.0 + ALLOC_TOLERANCE);
        if got.alloc_count as f64 > limit {
            return Err(format!(
                "{cell}: allocation regression: {} allocs > {:.0} \
                 (golden {want_allocs:.0} + {:.0}% tolerance)",
                got.alloc_count,
                limit,
                ALLOC_TOLERANCE * 100.0
            ));
        }
    }
    Ok(())
}

fn golden_json(cells: &[Row]) -> Json {
    Json::obj(vec![
        ("schema", "tcc-scale-golden/v1".into()),
        (
            "cells",
            Json::Arr(
                cells
                    .iter()
                    .map(|c| {
                        Json::obj(vec![
                            ("cell", Json::from(c.label.clone())),
                            ("fingerprint", c.fingerprint.clone().into()),
                            ("classic_alloc_count", c.alloc_count.into()),
                            ("total_cycles", c.total_cycles.into()),
                            ("commits", c.commits.into()),
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
    // value of `--check`/`--write-golden`/`--seed`.
    let mut check: Option<String> = None;
    let mut write_golden: Option<String> = None;
    let mut smoke = false;
    let mut filter: Option<String> = None;
    let mut seed: Option<u64> = None;
    let mut iter = std::env::args().skip(1);
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--check" => check = iter.next(),
            "--write-golden" => write_golden = iter.next(),
            "--smoke" => smoke = true,
            "--seed" => seed = iter.next().and_then(|v| v.parse().ok()),
            other if !other.starts_with("--") => filter = Some(other.to_string()),
            _ => {}
        }
    }
    let args = HarnessArgs {
        filter,
        smoke,
        ..HarnessArgs::default()
    };
    let seed = seed.unwrap_or(HARNESS_SEED);
    let mut report = RunReport::new("scale");
    report.set(
        "harness",
        Json::obj(vec![
            ("seed", seed.into()),
            ("scale", if smoke { "smoke" } else { "full" }.into()),
        ]),
    );
    let mut t = TextTable::new(vec![
        "Cell",
        "Cycles",
        "Wall ms",
        "Events/s",
        "Allocs",
        "Fingerprint",
    ]);
    let mut measured: Vec<Row> = Vec::new();
    for (app, cpus) in cells(smoke) {
        if !args.selects(app.name) {
            continue;
        }
        let row = run_row(&app, cpus, seed, args.scale());
        eprintln!(
            "  {} done ({} cycles, {:.0} ms)",
            row.label, row.total_cycles, row.wall_ms
        );
        t.row(vec![
            row.label.clone(),
            row.total_cycles.to_string(),
            format!("{:.1}", row.wall_ms),
            format!("{:.0}", row.events as f64 / (row.wall_ms / 1e3)),
            row.alloc_count.to_string(),
            row.fingerprint.clone(),
        ]);
        measured.push(row);
    }
    println!("{}", t.render());
    let cells_json = measured
        .iter()
        .map(|row| {
            Json::obj(vec![
                ("cell", Json::from(row.label.clone())),
                ("wall_ms", Json::Num(row.wall_ms)),
                ("events", row.events.into()),
                ("alloc_count", row.alloc_count.into()),
                ("alloc_bytes", row.alloc_bytes.into()),
                ("fingerprint", row.fingerprint.clone().into()),
                ("total_cycles", row.total_cycles.into()),
                ("commits", row.commits.into()),
            ])
        })
        .collect();
    report.set("cells", Json::Arr(cells_json));
    write_report(&report);

    if let Some(path) = write_golden {
        std::fs::write(&path, golden_json(&measured).to_pretty()).expect("write golden");
        eprintln!("  wrote {path}");
    }
    if let Some(path) = check {
        match check_golden(&path, &measured) {
            Ok(()) => println!("scale-smoke: OK ({} cells match {path})", measured.len()),
            Err(e) => {
                eprintln!("scale-smoke FAILED: {e}");
                std::process::exit(1);
            }
        }
    }
}
