//! `tcc-trace` — observability for the Scalable TCC simulator.
//!
//! Three layers:
//!
//! 1. **Structured event trace** ([`TraceEvent`] in a bounded
//!    [`EventRing`]): typed protocol transitions — TID acquisition,
//!    message sends, NSTID advances, deferred probes, load stalls,
//!    commit phases, violations — each with a cycle timestamp and
//!    node/directory attribution.
//! 2. **Metrics registry** ([`MetricsRegistry`]): named counters and
//!    log2-bucket histograms (commit-phase latency, NSTID/probe wait,
//!    invalidation-ack windows, violations by cause).
//! 3. **Exporters**: Chrome `trace_event` JSON ([`chrome`]) for
//!    timeline visualization of parallel commit overlap, and the
//!    `BENCH_*.json` run-report schema ([`report`]).
//!
//! The [`Tracer`] handle is what instrumented components hold. It is
//! **observation-only and zero-cost when disabled**: a disabled tracer
//! is a `None` and every hook starts with that check, the event
//! constructor closures never run, and nothing the tracer does feeds
//! back into simulation state — so cycle counts and checker verdicts
//! are identical with tracing on or off (asserted by the determinism
//! test in the umbrella crate).

pub mod chrome;
pub mod event;
pub mod json;
pub mod metrics;
pub mod report;
pub mod ring;

pub use event::{TraceEvent, TraceRecord, ViolationCause};
pub use json::Json;
pub use metrics::{Histogram, MetricsRegistry, MetricsSnapshot};
pub use report::RunReport;
pub use ring::EventRing;

use std::sync::{Arc, Mutex};

use tcc_types::Cycle;

/// How much tracing a simulation run performs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceConfig {
    /// Master switch; `false` makes every hook a no-op.
    pub enabled: bool,
    /// Event-ring capacity; 0 keeps metrics but retains no events.
    pub ring_capacity: usize,
}

impl TraceConfig {
    /// Events + metrics with the default 64 Ki-event window.
    pub fn full() -> Self {
        TraceConfig {
            enabled: true,
            ring_capacity: 1 << 16,
        }
    }

    /// Counters and histograms only — what benchmark harnesses use.
    pub fn metrics_only() -> Self {
        TraceConfig {
            enabled: true,
            ring_capacity: 0,
        }
    }
}

#[derive(Debug)]
struct TraceCore {
    ring: EventRing,
    metrics: MetricsRegistry,
}

/// Shared tracing handle. Cloning shares the underlying sink; all
/// instrumented components of one simulator hold clones of one tracer.
/// The sink is behind a `Mutex` so a tracer is `Send + Sync`: a
/// simulator and its tracer may run on any thread of a `--jobs` sweep
/// or the chaos explorer, and one tracer may be shared by runs on
/// several threads. The disabled path stays a `None` check and never
/// touches the lock.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Mutex<TraceCore>>>,
}

impl Tracer {
    /// A tracer whose every hook is a no-op.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    pub fn new(cfg: &TraceConfig) -> Self {
        if !cfg.enabled {
            return Self::disabled();
        }
        Tracer {
            inner: Some(Arc::new(Mutex::new(TraceCore {
                ring: EventRing::new(cfg.ring_capacity),
                metrics: MetricsRegistry::default(),
            }))),
        }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record an event. The closure only runs when tracing is enabled,
    /// so argument formatting costs nothing on the disabled path.
    #[inline]
    pub fn record(&self, at: Cycle, event: impl FnOnce() -> TraceEvent) {
        if let Some(core) = &self.inner {
            core.lock()
                .expect("trace sink poisoned")
                .ring
                .push(TraceRecord { at, event: event() });
        }
    }

    /// Bump a counter.
    #[inline]
    pub fn count(&self, name: &'static str, delta: u64) {
        if let Some(core) = &self.inner {
            core.lock()
                .expect("trace sink poisoned")
                .metrics
                .inc(name, delta);
        }
    }

    /// Record a histogram sample.
    #[inline]
    pub fn observe(&self, name: &'static str, value: u64) {
        if let Some(core) = &self.inner {
            core.lock()
                .expect("trace sink poisoned")
                .metrics
                .observe(name, value);
        }
    }

    /// Extract everything recorded so far, leaving the tracer empty
    /// (but still attached and enabled). Returns `None` when disabled.
    pub fn take_report(&self) -> Option<TraceReport> {
        self.inner.as_ref().map(|core| {
            let mut core = core.lock().expect("trace sink poisoned");
            let recorded = core.ring.recorded();
            let dropped = core.ring.dropped();
            TraceReport {
                events: core.ring.take(),
                recorded,
                dropped,
                metrics: core.metrics.snapshot(),
            }
        })
    }
}

/// Everything one run recorded: the retained event window plus the
/// full metrics snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceReport {
    /// Retained events, oldest first (the newest `ring_capacity`).
    pub events: Vec<TraceRecord>,
    /// Total events recorded, including dropped ones.
    pub recorded: u64,
    /// Events lost to ring overflow.
    pub dropped: u64,
    pub metrics: MetricsSnapshot,
}

impl TraceReport {
    /// Chrome `trace_event` JSON for chrome://tracing or Perfetto.
    pub fn to_chrome_trace(&self) -> String {
        chrome::chrome_trace(&self.events).to_pretty()
    }

    /// Metrics as a run-report JSON fragment.
    pub fn metrics_json(&self) -> Json {
        report::metrics_json(&self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcc_types::{NodeId, Tid};

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(&TraceConfig::default());
        assert!(!t.is_enabled());
        let mut ran = false;
        t.record(Cycle(1), || {
            ran = true;
            TraceEvent::TidRequest { node: NodeId(0) }
        });
        assert!(!ran, "event constructor must not run when disabled");
        t.count("x", 1);
        t.observe("y", 10);
        assert!(t.take_report().is_none());
    }

    #[test]
    fn clones_share_one_sink() {
        let t = Tracer::new(&TraceConfig::full());
        let u = t.clone();
        t.record(Cycle(5), || TraceEvent::TidAcquire {
            node: NodeId(1),
            tid: Tid(3),
            waited: 2,
        });
        u.count("commits", 2);
        let report = t.take_report().unwrap();
        assert_eq!(report.events.len(), 1);
        assert_eq!(report.metrics.counter("commits"), 2);
        assert_eq!(report.dropped, 0);
    }

    #[test]
    fn metrics_only_mode_drops_events_keeps_metrics() {
        let t = Tracer::new(&TraceConfig::metrics_only());
        for i in 0..50 {
            t.record(Cycle(i), || TraceEvent::TidRequest { node: NodeId(0) });
            t.observe("h", i);
        }
        let report = t.take_report().unwrap();
        assert!(report.events.is_empty());
        assert_eq!(report.recorded, 50);
        assert_eq!(report.dropped, 50);
        assert_eq!(report.metrics.histogram("h").unwrap().count(), 50);
    }
}
