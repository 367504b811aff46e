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
use tcc_trace::json::JsonCodec;
use tcc_trace::RunReport;
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
    /// Parses `std::env::args()` with [`HarnessArgs::parse_from`],
    /// exiting 2 on a refused command line ([`refuse`]).
    #[must_use]
    pub fn parse() -> HarnessArgs {
        HarnessArgs::parse_from(std::env::args().skip(1)).unwrap_or_else(|e| refuse(&e))
    }

    /// Parses command-line arguments (without the program name): any
    /// `--smoke` flag, `--seed <n>`, `--jobs <n>`, plus an optional
    /// free-form filter string.
    ///
    /// # Errors
    ///
    /// An unknown flag, or a `--seed`/`--jobs` whose value is missing
    /// or malformed; the message names the flag.
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<HarnessArgs, String> {
        let mut parsed = HarnessArgs::default();
        let mut iter = args.into_iter();
        while let Some(a) = iter.next() {
            match a.as_str() {
                "--smoke" => parsed.smoke = true,
                "--seed" => parsed.seed = Some(flag_value("--seed", &mut iter)?),
                "--jobs" => parsed.jobs = Some(flag_value("--jobs", &mut iter)?),
                flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
                _ => parsed.filter = Some(a),
            }
        }
        Ok(parsed)
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

/// Exits 2 on a command line the harness refuses: an unknown flag, or a
/// flag whose value is missing or malformed. Running on would take an
/// unknown flag's value as the app filter, or a bad value as "not
/// given", and write a report the command line did not ask for over
/// the committed one.
pub fn refuse(err: &str) -> ! {
    eprintln!("{err}");
    std::process::exit(2);
}

/// Takes the value following `flag` from `args`, parsed as `T`.
///
/// # Errors
///
/// A missing value (the arguments end, or the next one is a flag) or
/// one that does not parse as `T`; the message names the flag.
pub fn flag_value<T: std::str::FromStr>(
    flag: &str,
    args: &mut impl Iterator<Item = String>,
) -> Result<T, String> {
    let value = args
        .next()
        .filter(|v| !v.starts_with("--"))
        .ok_or_else(|| format!("{flag} requires a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag}: malformed value {value:?}"))
}

/// Applies `f` to every item on `jobs` worker threads, returning the
/// results in input order. With `jobs == 1` the items run sequentially
/// on the calling thread, so single-job runs behave exactly as before
/// `--jobs` existed. Each simulation is deterministic and isolated, so
/// the result vector — and anything rendered from it — is identical for
/// every job count.
///
/// The thread count is capped at the machine's available parallelism;
/// a lower cap never changes results.
pub fn par_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let jobs = jobs.min(items.len()).min(cpus);
    if jobs <= 1 {
        return items.iter().map(f).collect();
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
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
    tweak(&mut cfg);
    let programs = app.generate_scaled(n, seed, scale);
    Simulator::builder(cfg)
        .programs(programs)
        .tracer(report::tracer())
        .build()
        .expect("valid config")
        .run()
}

/// Allowed relative allocation-count growth before [`check_golden`]
/// fails a cell.
pub const ALLOC_TOLERANCE: f64 = 0.10;

/// One cell of a harness's run report: the record its `cells` array is
/// written from (with [`tcc_trace::json_fields!`]) and a golden report
/// is read back with.
pub trait ReportCell: JsonCodec {
    /// The cell's label, e.g. `radix@16/smoke`; its app name is the
    /// part before `@`.
    fn label(&self) -> &str;
    /// The run's [`SimResult::fingerprint`].
    fn fingerprint(&self) -> &str;
    /// Heap allocations the run made, when the harness counts them.
    fn alloc_count(&self) -> Option<u64> {
        None
    }
}

/// Decodes the `cells` of a run report's text.
///
/// # Errors
///
/// Returns why the text is not a run report or a cell does not decode.
pub fn report_cells<C: JsonCodec>(text: &str) -> Result<Vec<C>, String> {
    let report = RunReport::validate(text)?;
    let cells = report.get("cells").ok_or("report has no cells array")?;
    Vec::from_json(cells).map_err(|e| format!("cells: {e}"))
}

/// Checks a run's cells against a golden report's. Only the golden
/// cells whose app name `selects` holds for are compared, so a run
/// filtered to some apps checks just their cells. Those cells' labels
/// must match the run's in order and every fingerprint exactly. A
/// golden cell that carries an allocation count also bounds the run's
/// allocations at that count plus [`ALLOC_TOLERANCE`]. Host-relative
/// fields (wall time, events/s) are never compared.
///
/// # Errors
///
/// Returns a message naming the first mismatch, or that `selects`
/// holds for no golden cell.
pub fn check_golden<C: ReportCell>(
    golden: &[C],
    run: &[C],
    selects: impl Fn(&str) -> bool,
) -> Result<(), String> {
    let want: Vec<&C> = golden
        .iter()
        .filter(|w| selects(w.label().split_once('@').map_or(w.label(), |(app, _)| app)))
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
    for (w, got) in want.into_iter().zip(run) {
        let cell = w.label();
        if cell != got.label() {
            return Err(format!(
                "cell order mismatch: golden {cell}, run {}",
                got.label()
            ));
        }
        if w.fingerprint() != got.fingerprint() {
            return Err(format!(
                "{cell}: result fingerprint changed: golden {}, run {} \
                 (simulation results must be byte-identical)",
                w.fingerprint(),
                got.fingerprint()
            ));
        }
        let Some(want_allocs) = w.alloc_count() else {
            continue;
        };
        let limit = want_allocs as f64 * (1.0 + ALLOC_TOLERANCE);
        let got_allocs = got.alloc_count().unwrap_or(0);
        if got_allocs as f64 > limit {
            return Err(format!(
                "{cell}: allocation regression: {got_allocs} allocs > {limit:.0} \
                 (golden {want_allocs} + {:.0}% tolerance)",
                ALLOC_TOLERANCE * 100.0
            ));
        }
    }
    Ok(())
}

/// The `--check <golden>` gate of `perf` and `protocols`: the cells of
/// a golden run report.
pub struct Golden<C> {
    path: String,
    cells: Vec<C>,
}

impl<C: ReportCell> Golden<C> {
    /// Reads the golden report at `path`, exiting 1 if it cannot be
    /// read. Read it before the run writes its own report: that can be
    /// the same file (`protocols --check BENCH_protocols.json` from the
    /// repo root), and a golden read afterwards would be the run itself.
    #[must_use]
    pub fn read(path: String) -> Golden<C> {
        let cells = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| report_cells(&text));
        match cells {
            Ok(cells) => Golden { path, cells },
            Err(e) => {
                eprintln!("cannot read golden {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    /// Checks `run` with [`check_golden`] and prints the verdict as
    /// `gate`; exits 1 on a mismatch.
    pub fn enforce(&self, gate: &str, run: &[C], selects: impl Fn(&str) -> bool) {
        let path = &self.path;
        match check_golden(&self.cells, run, selects) {
            Ok(()) => println!("{gate}: OK ({} cells match {path})", run.len()),
            Err(e) => {
                eprintln!("{gate} FAILED: {path}: {e}");
                std::process::exit(1);
            }
        }
    }
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

    fn parse(argv: &[&str]) -> Result<HarnessArgs, String> {
        HarnessArgs::parse_from(argv.iter().map(|a| (*a).to_string()))
    }

    #[test]
    fn harness_args_parse_flags_values_and_filter() {
        let a = parse(&["--smoke", "--seed", "12", "--jobs", "3", "volrend"]).unwrap();
        assert!(a.smoke);
        assert_eq!(a.seed, Some(12));
        assert_eq!(a.jobs, Some(3));
        assert_eq!(a.filter.as_deref(), Some("volrend"));
    }

    #[test]
    fn bad_missing_or_unknown_flags_are_refused_by_name() {
        for (argv, flag) in [
            (&["--smoke", "--seed", "12x", "volrend"][..], "--seed"),
            (&["--jobs", "many"], "--jobs"),
            (&["--seed"], "--seed"),
            (&["--jobs", "--smoke"], "--jobs"),
            (&["--csv"], "--csv"),
        ] {
            let err = parse(argv).unwrap_err();
            assert!(err.contains(flag), "{argv:?}: {err}");
        }
    }

    /// A report cell with an optional allocation count, so one golden
    /// can hold cells with and without it.
    #[derive(Debug, Clone)]
    struct TestCell {
        cell: String,
        wall_ms: f64,
        alloc_count: Option<u64>,
        fingerprint: String,
    }

    tcc_trace::json_fields!(TestCell {
        cell,
        wall_ms,
        alloc_count = None,
        fingerprint,
    });

    impl ReportCell for TestCell {
        fn label(&self) -> &str {
            &self.cell
        }
        fn fingerprint(&self) -> &str {
            &self.fingerprint
        }
        fn alloc_count(&self) -> Option<u64> {
            self.alloc_count
        }
    }

    /// A golden run report, as a harness writes it: the second cell
    /// carries no allocation count.
    const GOLDEN: &str = r#"{
        "schema": "tcc-run-report/v1",
        "bench": "test",
        "host": {"host_cpus": 1, "workers": 1},
        "cells": [
            {"cell": "a@1/smoke", "wall_ms": 1.5, "alloc_count": 100, "fingerprint": "00aa"},
            {"cell": "b@2/smoke", "wall_ms": 2.5, "fingerprint": "00bb"}
        ]
    }"#;

    fn golden() -> Vec<TestCell> {
        report_cells(GOLDEN).expect("the golden is a run report")
    }

    /// A run's cell; its wall time never matches the golden's.
    fn cell(label: &str, fingerprint: &str, alloc_count: u64) -> TestCell {
        TestCell {
            cell: label.to_string(),
            wall_ms: 99.0,
            alloc_count: Some(alloc_count),
            fingerprint: fingerprint.to_string(),
        }
    }

    #[test]
    fn golden_check_rejects_cells_out_of_order() {
        let run = [cell("b@2/smoke", "00bb", 0), cell("a@1/smoke", "00aa", 0)];
        let err = check_golden(&golden(), &run, |_| true).unwrap_err();
        assert!(err.contains("cell order mismatch"), "{err}");
    }

    #[test]
    fn golden_check_rejects_a_changed_fingerprint() {
        let run = [cell("a@1/smoke", "00ab", 100), cell("b@2/smoke", "00bb", 0)];
        let err = check_golden(&golden(), &run, |_| true).unwrap_err();
        assert!(
            err.contains("a@1/smoke: result fingerprint changed"),
            "{err}"
        );
    }

    #[test]
    fn golden_check_bounds_allocations_by_the_tolerance() {
        let run = [cell("a@1/smoke", "00aa", 111), cell("b@2/smoke", "00bb", 0)];
        let err = check_golden(&golden(), &run, |_| true).unwrap_err();
        assert!(err.contains("a@1/smoke: allocation regression"), "{err}");
    }

    #[test]
    fn golden_check_skips_the_allocation_gate_without_a_golden_count() {
        let run = [
            cell("a@1/smoke", "00aa", 110),
            cell("b@2/smoke", "00bb", u64::MAX),
        ];
        assert_eq!(check_golden(&golden(), &run, |_| true), Ok(()));
    }

    #[test]
    fn golden_check_compares_only_the_cells_the_filter_selects() {
        let run = [cell("b@2/smoke", "00bb", 0)];
        assert_eq!(check_golden(&golden(), &run, |app| app == "b"), Ok(()));
        let err = check_golden(&golden(), &run, |_| true).unwrap_err();
        assert!(err.contains("golden has 2 cells, run produced 1"), "{err}");
        let err = check_golden(&golden(), &[], |app| app == "c").unwrap_err();
        assert!(err.contains("selects no golden cell"), "{err}");
    }

    #[test]
    fn a_written_report_is_its_own_golden_until_a_fingerprint_is_edited() {
        let run = [cell("a@1/smoke", "00aa", 100), cell("b@2/smoke", "00bb", 7)];
        let mut report = RunReport::new("test");
        report.set("cells", run.to_vec().to_json());
        let text = report.to_json().to_pretty();
        let same: Vec<TestCell> = report_cells(&text).unwrap();
        assert_eq!(check_golden(&same, &run, |_| true), Ok(()));

        let edited = text.replacen("\"00bb\"", "\"00bc\"", 1);
        assert_ne!(edited, text);
        let golden: Vec<TestCell> = report_cells(&edited).unwrap();
        let err = check_golden(&golden, &run, |_| true).unwrap_err();
        assert!(
            err.contains("b@2/smoke: result fingerprint changed: golden 00bc, run 00bb"),
            "{err}"
        );
    }

    #[test]
    fn a_golden_that_is_not_a_run_report_is_refused() {
        let old_format = r#"{"schema": "other/v1", "cells": []}"#;
        assert!(report_cells::<TestCell>(old_format).is_err());
        let no_fingerprint = GOLDEN.replacen(r#", "fingerprint": "00bb""#, "", 1);
        let err = report_cells::<TestCell>(&no_fingerprint).unwrap_err();
        assert!(err.contains("missing fingerprint"), "{err}");
    }

    #[test]
    fn run_app_completes_at_smoke_scale() {
        let app = apps::volrend();
        let r = run_app(&app, 2, Scale::Smoke, |c| c.check_serializability = true);
        assert!(r.commits > 0);
        r.assert_serializable();
    }
}
