//! Shared harness code for the figure/table reproduction binaries.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` (run with `--release`; each accepts an optional
//! application-name filter and a `--smoke` flag for quick runs):
//!
//! | target | reproduces |
//! |--------|------------|
//! | `table2` | Table 2 — simulated architecture parameters |
//! | `table3` | Table 3 — application transactional characteristics |
//! | `fig6`   | Figure 6 — uniprocessor execution-time breakdown |
//! | `fig7`   | Figure 7 — speedups & breakdowns, 2–64 CPUs |
//! | `fig8`   | Figure 8 — link-latency sensitivity at 64 CPUs |
//! | `fig9`   | Figure 9 — remote traffic per directory (bytes/instr) |
//! | `ablation` | design-choice ablations (A: parallel vs. serialized commit; B: word vs. line conflict detection; C: write-back vs. write-through traffic) |
//! | `loss`   | reliable-transport loss sweep — completion & recovery cost at 0–10% frame drop |
//!
//! Framework-free micro-benchmarks of the protocol hot paths live in
//! `benches/` (plain `std::time` harnesses, so the suite builds with no
//! network access).

pub mod report;

use tcc_core::{SimResult, Simulator, SystemConfig};
use tcc_trace::Json;
use tcc_workloads::{AppProfile, Scale};

/// Deterministic workload seed shared by all harness binaries, so every
/// figure is regenerated from the identical programs.
pub const HARNESS_SEED: u64 = 0x7cc_5eed;

/// Command-line options shared by the harness binaries.
#[derive(Debug, Clone, Default)]
pub struct HarnessArgs {
    /// Case-insensitive substring filter on application names.
    pub filter: Option<String>,
    /// Run at smoke scale (~1/8 the transactions) for a quick pass.
    pub smoke: bool,
    /// Directory to write machine-readable CSV outputs into
    /// (`--csv <dir>`), alongside the text tables on stdout.
    pub csv_dir: Option<String>,
    /// Workload seed override (`--seed <n>`), for sensitivity studies;
    /// defaults to [`HARNESS_SEED`].
    pub seed: Option<u64>,
    /// Worker threads for embarrassingly parallel sweeps
    /// (`--jobs <n>`). Each simulation is single-threaded and
    /// deterministic, so the rendered output is byte-identical for any
    /// job count; only wall-clock changes. Defaults to 1.
    pub jobs: Option<usize>,
}

impl HarnessArgs {
    /// Parses `std::env::args()`: any `--smoke` flag plus an optional
    /// free-form filter string.
    #[must_use]
    pub fn parse() -> HarnessArgs {
        let mut args = HarnessArgs::default();
        let mut iter = std::env::args().skip(1);
        while let Some(a) = iter.next() {
            if a == "--smoke" {
                args.smoke = true;
            } else if a == "--csv" {
                args.csv_dir = iter.next();
            } else if a == "--seed" {
                args.seed = iter.next().and_then(|v| v.parse().ok());
            } else if a == "--jobs" {
                args.jobs = iter.next().and_then(|v| v.parse().ok());
            } else if !a.starts_with("--") {
                args.filter = Some(a);
            }
        }
        args
    }

    /// Writes `rows` (with `headers`) as `<csv_dir>/<name>.csv` if
    /// `--csv` was given; silently does nothing otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn write_csv(&self, name: &str, headers: &[&str], rows: &[Vec<String>]) {
        let Some(dir) = &self.csv_dir else { return };
        std::fs::create_dir_all(dir).expect("create csv dir");
        let mut out = headers.join(",");
        out.push('\n');
        for r in rows {
            out.push_str(&r.join(","));
            out.push('\n');
        }
        let path = format!("{dir}/{name}.csv");
        std::fs::write(&path, out).expect("write csv");
        eprintln!("  wrote {path}");
    }

    /// The workload scale selected.
    #[must_use]
    pub fn scale(&self) -> Scale {
        if self.smoke {
            Scale::Smoke
        } else {
            Scale::Full
        }
    }

    /// The worker-thread count for [`par_map`] sweeps.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs.unwrap_or(1).max(1)
    }

    /// Whether `name` passes the filter.
    #[must_use]
    pub fn selects(&self, name: &str) -> bool {
        match &self.filter {
            None => true,
            Some(f) => name.to_lowercase().contains(&f.to_lowercase()),
        }
    }
}

/// Applies `f` to every item on `jobs` worker threads, returning the
/// results in input order. With `jobs == 1` the items run sequentially
/// on the calling thread, so single-job runs behave exactly as before
/// `--jobs` existed. Each simulation is deterministic and isolated, so
/// the result vector — and anything rendered from it — is identical for
/// every job count.
///
/// The fan-out is leased from the shared [`tcc_core::WorkerBudget`], so
/// a sweep nested inside another leased fan-out degrades the thread
/// count instead of oversubscribing the machine; a reduced grant never
/// changes results.
pub fn par_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let lease = tcc_core::WorkerBudget::global().lease(jobs.min(items.len()));
    let jobs = lease.workers();
    if jobs <= 1 {
        return items.iter().map(f).collect();
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(items.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(item) = items.get(i) else { break };
                *slots[i].lock().unwrap() = Some(f(item));
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("every item must have run"))
        .collect()
}

/// Runs one application on an `n`-processor machine, with `tweak`
/// applied to the configuration (e.g. a link-latency override).
#[must_use]
pub fn run_app(
    app: &AppProfile,
    n: usize,
    scale: Scale,
    tweak: impl FnOnce(&mut SystemConfig),
) -> SimResult {
    run_app_seeded(app, n, scale, HARNESS_SEED, tweak)
}

/// As [`run_app`], with an explicit workload seed.
#[must_use]
pub fn run_app_seeded(
    app: &AppProfile,
    n: usize,
    scale: Scale,
    seed: u64,
    tweak: impl FnOnce(&mut SystemConfig),
) -> SimResult {
    let mut cfg = SystemConfig::with_procs(n);
    cfg.trace = report::trace_config();
    tweak(&mut cfg);
    let programs = app.generate_scaled(n, seed, scale);
    Simulator::builder(cfg)
        .programs(programs)
        .build()
        .expect("valid config")
        .run()
}

/// Allowed relative allocation-count growth before [`check_golden`]
/// fails a cell.
pub const ALLOC_TOLERANCE: f64 = 0.10;

/// One measured cell as [`check_golden`] sees it.
#[derive(Debug, Clone, Copy)]
pub struct GoldenCell<'a> {
    /// The cell's label, e.g. `radix@16/smoke`.
    pub label: &'a str,
    /// The run's [`SimResult::fingerprint`].
    pub fingerprint: &'a str,
    /// Heap allocations the run made.
    pub alloc_count: u64,
}

/// Checks measured cells against a checked-in golden (`golden` is the
/// golden file's text). Only the golden cells whose app name (the label
/// up to `@`) `selects` holds for are compared, so a run filtered to
/// some apps checks just their cells. Those cells' labels must match
/// the run's in order and every fingerprint exactly. A golden cell that
/// carries `alloc_count` also bounds the run's allocations at that
/// count plus [`ALLOC_TOLERANCE`]; a golden cell without it gates
/// results only.
///
/// # Errors
///
/// Returns a message naming the first mismatch, or why the golden
/// could not be read, or that `selects` holds for no golden cell.
pub fn check_golden(
    golden: &str,
    run: &[GoldenCell<'_>],
    selects: impl Fn(&str) -> bool,
) -> Result<(), String> {
    let golden = Json::parse(golden)?;
    let want: Vec<&Json> = golden
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or("golden has no cells array")?
        .iter()
        .filter(|w| {
            let label = w.get("cell").and_then(Json::as_str).unwrap_or("?");
            selects(label.split_once('@').map_or(label, |(app, _)| app))
        })
        .collect();
    if want.is_empty() {
        return Err("the app filter selects no golden cell".to_string());
    }
    if want.len() != run.len() {
        return Err(format!(
            "golden has {} cells, run produced {}",
            want.len(),
            run.len()
        ));
    }
    for (w, got) in want.iter().zip(run) {
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
        let Some(want_allocs) = w.get("alloc_count").and_then(Json::as_f64) else {
            continue;
        };
        let limit = want_allocs * (1.0 + ALLOC_TOLERANCE);
        if got.alloc_count as f64 > limit {
            return Err(format!(
                "{cell}: allocation regression: {} allocs > {limit:.0} \
                 (golden {want_allocs:.0} + {:.0}% tolerance)",
                got.alloc_count,
                ALLOC_TOLERANCE * 100.0
            ));
        }
    }
    Ok(())
}

/// The machine sizes Figure 7 sweeps.
pub const FIG7_SIZES: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// The cycles-per-hop values Figure 8 sweeps.
pub const FIG8_LATENCIES: [u64; 4] = [1, 2, 4, 8];

#[cfg(test)]
mod tests {
    use super::*;
    use tcc_workloads::apps;

    #[test]
    fn harness_args_default_select_everything() {
        let a = HarnessArgs::default();
        assert!(a.selects("swim"));
        assert!(!a.smoke);
    }

    #[test]
    fn filter_is_case_insensitive_substring() {
        let a = HarnessArgs {
            filter: Some("JBB".into()),
            ..HarnessArgs::default()
        };
        assert!(a.selects("SPECjbb2000"));
        assert!(!a.selects("swim"));
    }

    #[test]
    fn par_map_preserves_order_for_any_job_count() {
        let items: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3).collect();
        for jobs in [1, 2, 5, 64] {
            assert_eq!(par_map(&items, jobs, |x| x * 3), expect);
        }
    }

    #[test]
    fn parallel_sweeps_render_byte_identical_output() {
        // A miniature fig7-style sweep: the rendered rows must be
        // byte-identical for --jobs 1 and --jobs 3, because each
        // simulation is deterministic and par_map preserves order.
        let app = apps::volrend();
        let sizes = [1usize, 2, 4];
        let rows = |jobs: usize| -> Vec<String> {
            par_map(&sizes, jobs, |&n| {
                let r = run_app(&app, n, Scale::Smoke, |_| {});
                format!("{},{},{}", n, r.total_cycles, r.commits)
            })
        };
        assert_eq!(rows(1), rows(3));
    }

    #[test]
    fn jobs_flag_defaults_to_one() {
        assert_eq!(HarnessArgs::default().jobs(), 1);
        let a = HarnessArgs {
            jobs: Some(8),
            ..HarnessArgs::default()
        };
        assert_eq!(a.jobs(), 8);
    }

    const GOLDEN: &str = r#"{"cells": [
        {"cell": "a@1/smoke", "fingerprint": "00aa", "alloc_count": 100},
        {"cell": "b@2/smoke", "fingerprint": "00bb"}
    ]}"#;

    fn cell<'a>(label: &'a str, fingerprint: &'a str, alloc_count: u64) -> GoldenCell<'a> {
        GoldenCell {
            label,
            fingerprint,
            alloc_count,
        }
    }

    #[test]
    fn golden_check_rejects_cells_out_of_order() {
        let run = [cell("b@2/smoke", "00bb", 0), cell("a@1/smoke", "00aa", 0)];
        let err = check_golden(GOLDEN, &run, |_| true).unwrap_err();
        assert!(err.contains("cell order mismatch"), "{err}");
    }

    #[test]
    fn golden_check_rejects_a_changed_fingerprint() {
        let run = [cell("a@1/smoke", "00ab", 100), cell("b@2/smoke", "00bb", 0)];
        let err = check_golden(GOLDEN, &run, |_| true).unwrap_err();
        assert!(
            err.contains("a@1/smoke: result fingerprint changed"),
            "{err}"
        );
    }

    #[test]
    fn golden_check_bounds_allocations_by_the_tolerance() {
        let run = [cell("a@1/smoke", "00aa", 111), cell("b@2/smoke", "00bb", 0)];
        let err = check_golden(GOLDEN, &run, |_| true).unwrap_err();
        assert!(err.contains("a@1/smoke: allocation regression"), "{err}");
    }

    #[test]
    fn golden_check_skips_the_allocation_gate_without_a_golden_count() {
        let run = [
            cell("a@1/smoke", "00aa", 110),
            cell("b@2/smoke", "00bb", u64::MAX),
        ];
        assert_eq!(check_golden(GOLDEN, &run, |_| true), Ok(()));
    }

    #[test]
    fn golden_check_compares_only_the_cells_the_filter_selects() {
        let run = [cell("b@2/smoke", "00bb", 0)];
        assert_eq!(check_golden(GOLDEN, &run, |app| app == "b"), Ok(()));
        let err = check_golden(GOLDEN, &run, |_| true).unwrap_err();
        assert!(err.contains("golden has 2 cells, run produced 1"), "{err}");
        let err = check_golden(GOLDEN, &[], |app| app == "c").unwrap_err();
        assert!(err.contains("selects no golden cell"), "{err}");
    }

    #[test]
    fn run_app_completes_at_smoke_scale() {
        let app = apps::volrend();
        let r = run_app(&app, 2, Scale::Smoke, |c| c.check_serializability = true);
        assert!(r.commits > 0);
        r.assert_serializable();
    }
}
