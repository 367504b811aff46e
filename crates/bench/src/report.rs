//! Run-report plumbing shared by the harness binaries.
//!
//! Every binary writes a `BENCH_<name>.json` run report (schema
//! `tcc-run-report/v1`, see [`tcc_trace::report`]) into the current
//! directory alongside its text output, so figure regeneration always
//! leaves a machine-readable artifact behind. Setting
//! `TCC_CHROME_TRACE=<dir>` additionally captures full event rings and
//! writes one Chrome `trace_event` file per simulated run into `<dir>`
//! (openable in chrome://tracing or Perfetto).

use std::path::Path;

use tcc_core::SimResult;
use tcc_trace::{Json, RunReport, TraceConfig};

use crate::HarnessArgs;

/// The trace configuration harness binaries run with: metrics always
/// (counters and histograms are cheap and feed the run report), full
/// event rings only when a Chrome trace was requested via
/// `TCC_CHROME_TRACE`.
#[must_use]
pub fn trace_config() -> TraceConfig {
    if chrome_dir().is_some() {
        TraceConfig::full()
    } else {
        TraceConfig::metrics_only()
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

/// Accumulates reliable-transport recovery counters across benchmark
/// runs for the additive `transport` run-report section. Benchmarks
/// run with the transport off by default, so the section reports
/// `enabled: false` with zero counters — the fields exist so lossy-wire
/// sweeps diff cleanly against clean-wire baselines.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransportTotals {
    enabled: bool,
    retransmits: u64,
    dup_drops: u64,
    timeout_fires: u64,
    acks: u64,
    stalls: u64,
}

impl TransportTotals {
    /// Folds one run's transport stats in (no-op when the run had the
    /// transport off).
    pub fn add(&mut self, r: &SimResult) {
        if let Some(t) = &r.transport {
            self.enabled = true;
            self.retransmits += t.retransmits;
            self.dup_drops += t.dup_drops;
            self.timeout_fires += t.timeout_fires;
            self.acks += t.acks;
        }
    }

    /// Records a run that ended in a typed stall
    /// ([`tcc_core::RunError::Stalled`]).
    pub fn add_stall(&mut self) {
        self.stalls += 1;
    }

    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("enabled", self.enabled.into()),
            ("retransmits", self.retransmits.into()),
            ("dup_drops", self.dup_drops.into()),
            ("timeout_fires", self.timeout_fires.into()),
            ("acks", self.acks.into()),
            ("stalls", self.stalls.into()),
        ])
    }
}

/// Writes `BENCH_<bench>.json` into the current directory.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_report(report: &RunReport) {
    let path = report.write_to(Path::new(".")).expect("write run report");
    eprintln!("  wrote {}", path.display());
}
