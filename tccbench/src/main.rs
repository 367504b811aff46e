//! `tccbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path tccbench/Cargo.toml -- \
//!     --workload <sim-tcc|sim-tardis|stm-zipf2> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root: the metric names and units come
//! from `BENCHMARK.json` there. Every number is taken from outside the
//! program, by timing calls into the crates' public APIs and reading
//! the counters those APIs return. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`). `tccbench/README.md` explains the workloads and what
//! each metric is expected to move.
//!
//! `--golden <n>` prints the fingerprint table of `golden.rs` for run
//! seeds `0..n` instead of benchmarking (after an intended model
//! change).

mod golden;
mod host;
mod sim;
mod span;
mod stm;

use std::collections::BTreeMap;
use std::process::ExitCode;

use tcc_trace::Json;

#[global_allocator]
static GLOBAL: host::CountingAlloc = host::CountingAlloc;

/// Everything one run measured, by metric name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// volrend@64 on the TCC backend and the classic engine.
    SimTcc,
    /// The same programs under the Tardis backend.
    SimTardis,
    /// `tcc-stm` on two threads running Zipfian scripts.
    StmZipf2,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::SimTcc, Workload::SimTardis, Workload::StmZipf2];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimTcc => "sim-tcc",
            Workload::SimTardis => "sim-tardis",
            Workload::StmZipf2 => "stm-zipf2",
        }
    }

    /// OS threads the run needs at once: the STM's two, and the
    /// two-worker engine of `sim-tcc`'s traced pass.
    fn threads(self, trace: bool) -> usize {
        match self {
            Workload::SimTcc if trace => 2,
            Workload::SimTcc | Workload::SimTardis => 1,
            Workload::StmZipf2 => 2,
        }
    }
}

/// A validated command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload reports back to `main`.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: simulator runs, or STM transactions.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    pub metrics: Metrics,
    /// Sample counts and other context, printed beside the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one checked operation, printing why it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("FAILED: {}", what());
        }
    }
}

/// Median of per-round figures (NaN when there are none).
pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median of the per-round ratios `a[i] / b[i]`.
pub fn ratio(a: &[f64], b: &[f64]) -> f64 {
    let r: Vec<f64> = a.iter().zip(b).map(|(a, b)| a / b).collect();
    median(&r)
}

enum Mode {
    Bench(Args),
    Golden(u64),
}

fn parse_args() -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(w.ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&names.join(" | "))
                })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("a number of seconds in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--golden" => {
                return Ok(Mode::Golden(
                    value.parse().map_err(|_| bad("a seed count"))?,
                ))
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Mode::Bench(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    }))
}

/// `(name, unit)` lists of the end-to-end and per-layer metrics.
struct Spec {
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

fn load_spec() -> Result<Spec, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    let json = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Result<Vec<(String, String)>, String> {
        let items = json
            .get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("BENCHMARK.json: no {key} list"))?;
        items
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).map(str::to_string);
                field("name")
                    .zip(field("unit"))
                    .ok_or(format!("BENCHMARK.json: {key} entry without name/unit"))
            })
            .collect()
    };
    Ok(Spec {
        end_to_end: list("end_to_end")?,
        per_layer: list("per_layer")?,
    })
}

fn run(args: &Args, spec: &Spec) -> Result<(), String> {
    let (nproc, budget) = host::threads();
    println!(
        "tccbench {} seed={} seconds={} trace={} | host nproc={nproc} worker_budget={budget}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    let need = args.workload.threads(args.trace);
    if need > nproc.min(budget) {
        return Err(format!(
            "refusing {}: it needs {need} threads, the host has {nproc} CPUs \
             and a worker budget of {budget}",
            args.workload.name()
        ));
    }

    let out = match args.workload {
        Workload::StmZipf2 => stm::run(args),
        w => sim::run(args, w),
    };

    let listed = |name: &str| {
        spec.end_to_end
            .iter()
            .chain(&spec.per_layer)
            .any(|(n, _)| n == name)
    };
    if let Some(stray) = out.metrics.keys().find(|n| !listed(n)) {
        return Err(format!(
            "measured {stray}, which BENCHMARK.json does not list"
        ));
    }

    for note in &out.notes {
        println!("  {note}");
    }
    let wanted = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut fields = Vec::new();
    let mut absent = Vec::new();
    for (name, unit) in wanted {
        // The result format needs every listed metric; a layer this
        // workload does not run reads 0 and is named as absent below.
        let value = match out.metrics.get(name.as_str()) {
            Some(&v) if v.is_finite() => {
                println!("  {name:<28} {v:>16.6} {unit}");
                v
            }
            _ => {
                absent.push(name.as_str());
                0.0
            }
        };
        fields.push((
            name.as_str(),
            Json::obj(vec![
                ("value", value.into()),
                ("unit", unit.as_str().into()),
            ]),
        ));
    }
    if !absent.is_empty() {
        println!(
            "  absent on this workload (reported as 0): {}",
            absent.join(", ")
        );
    }
    let attempted = out.attempted.max(1);
    println!(
        "  failed_frac {:.6} ({} of {attempted} operations)",
        out.failed as f64 / attempted as f64,
        out.failed
    );
    let correct = out.failed == 0 && out.attempted > 0;
    let result = Json::obj(vec![
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        ("failed", out.failed.into()),
        ("metrics", Json::obj(fields)),
    ]);
    println!("{}", result.to_compact());
    Ok(())
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|mode| match mode {
        Mode::Golden(n) => {
            sim::print_golden(n);
            Ok(())
        }
        Mode::Bench(args) => run(&args, &load_spec()?),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tccbench: {e}");
            ExitCode::from(2)
        }
    }
}
