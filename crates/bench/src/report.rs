//! Run-report plumbing shared by the harness binaries.
//!
//! Every binary writes a `BENCH_<name>.json` run report (schema
//! `tcc-run-report/v1`, see [`tcc_trace::report`]; `--smoke` runs write
//! `BENCH_<name>_smoke.json`) into the current directory alongside its
//! text output, so figure regeneration always leaves a machine-readable
//! artifact behind. Setting
//! `TCC_CHROME_TRACE=<dir>` additionally captures full event rings and
//! writes one Chrome `trace_event` file per simulated run into `<dir>`
//! (openable in chrome://tracing or Perfetto).

use std::path::Path;

use tcc_core::SimResult;
use tcc_trace::{Json, RunReport, TraceConfig, Tracer};
use tcc_workloads::Scale;

use crate::HarnessArgs;

/// The tracer harness binaries run with: metrics always (counters and
/// histograms are cheap and feed the run report), full event rings only
/// when a Chrome trace was requested via `TCC_CHROME_TRACE`.
#[must_use]
pub fn tracer() -> Tracer {
    if chrome_dir().is_some() {
        Tracer::new(&TraceConfig::full())
    } else {
        Tracer::new(&TraceConfig::metrics_only())
    }
}

fn chrome_dir() -> Option<String> {
    std::env::var("TCC_CHROME_TRACE")
        .ok()
        .filter(|v| !v.is_empty())
}

/// Writes the run's event trace as `<TCC_CHROME_TRACE>/trace_<tag>.json`
/// when Chrome tracing is active; otherwise does nothing.
///
/// # Panics
///
/// Panics if the trace directory or file cannot be written.
pub fn maybe_write_chrome(r: &SimResult, tag: &str) {
    let Some(dir) = chrome_dir() else { return };
    let Some(trace) = &r.trace else { return };
    std::fs::create_dir_all(&dir).expect("create chrome-trace dir");
    let path = Path::new(&dir).join(format!("trace_{tag}.json"));
    std::fs::write(&path, trace.to_chrome_trace()).expect("write chrome trace");
    eprintln!("  wrote {}", path.display());
}

/// The `harness` header block every run report carries.
#[must_use]
pub fn harness_json(args: &HarnessArgs, seed: u64) -> Json {
    Json::obj(vec![
        ("seed", Json::from(seed)),
        ("scale", if args.smoke { "smoke" } else { "full" }.into()),
        (
            "filter",
            args.filter
                .as_ref()
                .map_or(Json::Null, |f| f.clone().into()),
        ),
    ])
}

/// Machine-wide cycle breakdown (sum over processors) of one run.
#[must_use]
pub fn breakdown_json(r: &SimResult) -> Json {
    let b = r.aggregate();
    Json::obj(vec![
        ("useful", b.useful.into()),
        ("cache_miss", b.cache_miss.into()),
        ("commit", b.commit.into()),
        ("violation", b.violation.into()),
        ("idle", b.idle.into()),
    ])
}

/// Core scalar results of one run, including the full metrics snapshot
/// when the run was traced.
#[must_use]
pub fn result_json(r: &SimResult) -> Json {
    let mut fields = vec![
        ("total_cycles", Json::from(r.total_cycles)),
        ("commits", r.commits.into()),
        ("violations", r.violations.into()),
        ("instructions", r.instructions.into()),
        ("breakdown", breakdown_json(r)),
    ];
    if let Some(t) = &r.trace {
        fields.push(("metrics", t.metrics_json()));
    }
    Json::obj(fields)
}

/// One named histogram from a traced run, as a JSON fragment
/// (`Json::Null` when the run was untraced or never sampled it).
#[must_use]
pub fn histogram_of(r: &SimResult, name: &str) -> Json {
    r.trace
        .as_ref()
        .and_then(|t| t.metrics.histogram(name))
        .map_or(Json::Null, tcc_trace::report::histogram_json)
}

/// Writes `report` into the cwd as `BENCH_<bench>.json`, or as
/// `BENCH_<bench>_smoke.json` at smoke scale, so a smoke run never
/// overwrites a committed full-scale artifact.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_report(report: &RunReport, scale: Scale) {
    let path = match scale {
        Scale::Full => format!("BENCH_{}.json", report.bench()),
        Scale::Smoke => format!("BENCH_{}_smoke.json", report.bench()),
    };
    std::fs::write(&path, report.to_json().to_pretty()).expect("write run report");
    eprintln!("  wrote {path}");
}
