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
//! * `perf --smoke` — small fixed cells for CI; writes
//!   `BENCH_perf_smoke.json`.
//! * `perf --smoke --check <golden.json>` — assert fingerprint identity
//!   and allocation counts within tolerance against a golden run
//!   report (a `BENCH_perf_smoke.json` that `perf --smoke` wrote);
//!   exits non-zero on any regression. With an app filter
//!   (`perf --smoke volrend --check ...`) only that app's golden cells
//!   are compared.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use tcc_bench::report::write_report;
use tcc_bench::{flag_value, refuse, Golden, HarnessArgs, ReportCell, HARNESS_SEED};
use tcc_core::{Simulator, SystemConfig};
use tcc_trace::json::JsonCodec;
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

/// One cell of `BENCH_perf.json`. `wall_ms`, `events_per_sec` and
/// `build_ms` are host-relative: reported, never compared.
struct Measurement {
    cell: String,
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

tcc_trace::json_fields!(Measurement {
    cell,
    wall_ms,
    events,
    events_per_sec,
    alloc_count,
    alloc_bytes,
    build_ms,
    build_alloc_count,
    fingerprint,
    total_cycles,
    commits,
});

impl ReportCell for Measurement {
    fn label(&self) -> &str {
        &self.cell
    }
    fn fingerprint(&self) -> &str {
        &self.fingerprint
    }
    fn alloc_count(&self) -> Option<u64> {
        Some(self.alloc_count)
    }
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
            cell: cell.label(),
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

/// The command line: `--check <golden.json>`, `--reps <n>` (default
/// 3), `--smoke` and an app filter.
struct PerfArgs {
    args: HarnessArgs,
    check: Option<String>,
    reps: usize,
}

/// Parses the command line (without the program name) in one loop: the
/// shared `HarnessArgs` grammar treats any free token as the app
/// filter, which would swallow the value of `--check`/`--reps`.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<PerfArgs, String> {
    let mut parsed = PerfArgs {
        args: HarnessArgs::default(),
        check: None,
        reps: 3,
    };
    let mut iter = argv.into_iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--check" => parsed.check = Some(flag_value("--check", &mut iter)?),
            "--reps" => parsed.reps = flag_value("--reps", &mut iter)?,
            "--smoke" => parsed.args.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => parsed.args.filter = Some(a),
        }
    }
    Ok(parsed)
}

fn main() {
    let PerfArgs { args, check, reps } =
        parse_args(std::env::args().skip(1)).unwrap_or_else(|e| refuse(&e));

    let golden: Option<Golden<Measurement>> = check.map(Golden::read);
    let cells = tracked_cells(args.smoke);
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
            m.cell,
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
    report.set("cells", measured.to_json());
    write_report(&report, args.scale());

    if let Some(golden) = golden {
        golden.enforce("perf-smoke", &measured, |app| args.selects(app));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<PerfArgs, String> {
        parse_args(argv.iter().map(|a| (*a).to_string()))
    }

    #[test]
    fn parses_check_reps_smoke_and_filter() {
        let p = parse(&["--smoke", "--reps", "2", "volrend", "--check", "g.json"]).unwrap();
        assert!(p.args.smoke);
        assert_eq!(p.reps, 2);
        assert_eq!(p.args.filter.as_deref(), Some("volrend"));
        assert_eq!(p.check.as_deref(), Some("g.json"));
        assert_eq!(parse(&[]).unwrap().reps, 3);
    }

    #[test]
    fn bad_or_missing_values_are_refused_by_name() {
        for (argv, flag) in [
            (&["--reps", "x"][..], "--reps"),
            (&["--smoke", "--check"], "--check"),
            (&["--check", "--smoke"], "--check"),
            (&["--write-golden"], "--write-golden"),
        ] {
            let err = parse(argv).err().expect("refused");
            assert!(err.contains(flag), "{argv:?}: {err}");
        }
    }
}
