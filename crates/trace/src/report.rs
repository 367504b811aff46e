//! Machine-readable run reports (`BENCH_*.json`).
//!
//! Every `tcc-bench` binary writes one of these alongside its text
//! output. The schema is intentionally small and stable:
//!
//! ```json
//! {
//!   "schema": "tcc-run-report/v1",
//!   "bench": "fig7",
//!   "harness": { "seed": 131292909, "scale": "full" },
//!   ...benchmark-specific fields...
//! }
//! ```
//!
//! Benchmark-specific payloads are free-form [`Json`] values; the
//! fixed header is what tooling keys on. Histograms serialize with
//! their moments, coarse percentiles, and non-empty log2 buckets.

use std::io;
use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::metrics::{Histogram, MetricsSnapshot};

pub const SCHEMA: &str = "tcc-run-report/v1";

/// Logical CPUs available to this process, or 1 when undetectable.
///
/// Recorded in every report's `host` block: throughput and scaling
/// artifacts are meaningless without knowing how much hardware
/// parallelism the producing host actually had (a `--jobs 8` sweep
/// regenerated on a 1-CPU container measures time-slicing, not
/// scaling).
#[must_use]
pub fn host_cpus() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

#[derive(Debug, Clone)]
pub struct RunReport {
    bench: String,
    workers: u64,
    fields: Vec<(String, Json)>,
}

impl RunReport {
    pub fn new(bench: &str) -> Self {
        RunReport {
            bench: bench.to_string(),
            workers: 1,
            fields: Vec::new(),
        }
    }

    pub fn bench(&self) -> &str {
        &self.bench
    }

    /// Records how many OS threads the producing run actually used
    /// (default 1). Serialized in the `host` block next to
    /// [`host_cpus`], so artifacts self-describe oversubscription.
    pub fn set_workers(&mut self, workers: u64) -> &mut Self {
        self.workers = workers.max(1);
        self
    }

    /// Append a top-level field (after the fixed header).
    pub fn set(&mut self, key: &str, value: Json) -> &mut Self {
        self.fields.push((key.to_string(), value));
        self
    }

    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema".to_string(), SCHEMA.into()),
            ("bench".to_string(), self.bench.clone().into()),
            (
                "host".to_string(),
                Json::obj(vec![
                    ("host_cpus", host_cpus().into()),
                    ("workers", self.workers.into()),
                ]),
            ),
        ];
        fields.extend(self.fields.iter().cloned());
        Json::Obj(fields)
    }

    /// Write `BENCH_<bench>.json` into `dir`, pretty-printed.
    pub fn write_to(&self, dir: &Path) -> io::Result<PathBuf> {
        let path = dir.join(format!("BENCH_{}.json", self.bench));
        std::fs::write(&path, self.to_json().to_pretty())?;
        Ok(path)
    }

    /// Parse a previously written report back, checking the header.
    pub fn validate(text: &str) -> Result<Json, String> {
        let v = Json::parse(text)?;
        match v.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => {}
            other => return Err(format!("bad schema field: {other:?}")),
        }
        if v.get("bench").and_then(Json::as_str).is_none() {
            return Err("missing bench field".to_string());
        }
        Ok(v)
    }
}

/// Serialize a histogram: moments, coarse percentiles, and the
/// non-empty log2 buckets as `[upper_bound, count]` pairs.
pub fn histogram_json(h: &Histogram) -> Json {
    Json::obj(vec![
        ("count", h.count().into()),
        ("sum", h.sum().into()),
        ("min", h.min().into()),
        ("max", h.max().into()),
        ("mean", h.mean().into()),
        ("p50", h.percentile(50.0).into()),
        ("p90", h.percentile(90.0).into()),
        ("p99", h.percentile(99.0).into()),
        ("p999", h.percentile(99.9).into()),
        (
            "log2_buckets",
            Json::Arr(
                h.nonzero_buckets()
                    .into_iter()
                    .map(|(ub, n)| Json::Arr(vec![ub.into(), n.into()]))
                    .collect(),
            ),
        ),
    ])
}

/// Serialize a whole metrics snapshot.
pub fn metrics_json(m: &MetricsSnapshot) -> Json {
    Json::obj(vec![
        (
            "counters",
            Json::Obj(
                m.counters
                    .iter()
                    .map(|(k, &v)| (k.clone(), v.into()))
                    .collect(),
            ),
        ),
        (
            "histograms",
            Json::Obj(
                m.histograms
                    .iter()
                    .map(|(k, h)| (k.clone(), histogram_json(h)))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    #[test]
    fn report_roundtrips_and_validates() {
        let mut m = MetricsRegistry::default();
        m.inc("violations.conflict", 4);
        for v in [10u64, 20, 400, 3000] {
            m.observe("commit.latency", v);
        }
        let mut r = RunReport::new("fig7");
        r.set("apps", Json::Arr(vec!["barnes".into()]));
        r.set("metrics", metrics_json(&m.snapshot()));
        let text = r.to_json().to_pretty();
        let parsed = RunReport::validate(&text).expect("must validate");
        assert_eq!(parsed.get("bench").unwrap().as_str(), Some("fig7"));
        let host = parsed.get("host").expect("host block is always present");
        assert_eq!(host.get("host_cpus").unwrap().as_u64(), Some(host_cpus()));
        assert_eq!(host.get("workers").unwrap().as_u64(), Some(1));
        assert_eq!(
            parsed
                .get("metrics")
                .and_then(|m| m.get("counters"))
                .and_then(|c| c.get("violations.conflict"))
                .and_then(Json::as_u64),
            Some(4)
        );
        let h = parsed
            .get("metrics")
            .and_then(|m| m.get("histograms"))
            .and_then(|h| h.get("commit.latency"))
            .unwrap();
        assert_eq!(h.get("count").unwrap().as_u64(), Some(4));
        assert_eq!(h.get("max").unwrap().as_u64(), Some(3000));
        // Tail percentiles are part of the exported summary; with four
        // samples p99 and p999 both land on the largest observation.
        assert_eq!(h.get("p999").unwrap().as_u64(), Some(3000));
    }

    #[test]
    fn set_workers_is_recorded_and_clamped() {
        let mut r = RunReport::new("x");
        r.set_workers(8);
        let host = r.to_json().get("host").cloned().unwrap();
        assert_eq!(host.get("workers").unwrap().as_u64(), Some(8));
        r.set_workers(0);
        let host = r.to_json().get("host").cloned().unwrap();
        assert_eq!(host.get("workers").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn validate_rejects_wrong_schema() {
        assert!(RunReport::validate(r#"{"schema":"other/v9","bench":"x"}"#).is_err());
        assert!(RunReport::validate(r#"{"schema":"tcc-run-report/v1"}"#).is_err());
        assert!(RunReport::validate("not json").is_err());
    }
}
