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

use std::cell::RefCell;
use std::rc::Rc;

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
/// A simulator runs on one thread, so the sink is a single-threaded
/// `Rc<RefCell<_>>`: a tracer is neither `Send` nor `Sync`, and a
/// `--jobs` sweep or the chaos explorer builds each simulator and its
/// tracer on the thread that runs it. Every hook holds the borrow only
/// for its own push, so hooks never nest. The disabled path is a `None`
/// check.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Rc<RefCell<TraceCore>>>,
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
            inner: Some(Rc::new(RefCell::new(TraceCore {
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
    /// so argument formatting costs nothing on the disabled path. It
    /// runs before the sink is borrowed, so it may itself use the
    /// tracer.
    #[inline]
    pub fn record(&self, at: Cycle, event: impl FnOnce() -> TraceEvent) {
        if let Some(core) = &self.inner {
            let event = event();
            core.borrow_mut().ring.push(TraceRecord { at, event });
        }
    }

    /// Bump a counter.
    #[inline]
    pub fn count(&self, name: &'static str, delta: u64) {
        if let Some(core) = &self.inner {
            core.borrow_mut().metrics.inc(name, delta);
        }
    }

    /// Record a histogram sample.
    #[inline]
    pub fn observe(&self, name: &'static str, value: u64) {
        if let Some(core) = &self.inner {
            core.borrow_mut().metrics.observe(name, value);
        }
    }

    /// Drains the retained events and snapshots the metrics. Only the
    /// event ring is emptied: the counters and histograms keep their
    /// values (the report holds a copy), so a later call reports them
    /// again, together with any events recorded since. The tracer stays
    /// attached and enabled. Returns `None` when disabled.
    pub fn take_report(&self) -> Option<TraceReport> {
        self.inner.as_ref().map(|core| {
            let mut core = core.borrow_mut();
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
    fn take_report_drains_the_ring_and_keeps_the_metrics() {
        let t = Tracer::new(&TraceConfig::full());
        t.record(Cycle(1), || TraceEvent::TidRequest { node: NodeId(0) });
        t.count("commit.count", 3);
        t.observe("commit.latency", 40);
        let first = t.take_report().unwrap();
        assert_eq!(first.events.len(), 1);
        let second = t.take_report().unwrap();
        assert!(second.events.is_empty(), "the ring is drained");
        assert_eq!(second.metrics, first.metrics, "the metrics are kept");
        assert_eq!(second.metrics.counter("commit.count"), 3);
        assert_eq!(
            second.metrics.histogram("commit.latency").unwrap().count(),
            1
        );
        assert_eq!(second.recorded, 1, "recorded keeps counting across a take");
    }

    #[test]
    fn an_event_constructor_may_use_the_tracer() {
        let t = Tracer::new(&TraceConfig::full());
        t.record(Cycle(2), || {
            t.count("nested", 1);
            TraceEvent::TidRequest { node: NodeId(0) }
        });
        let report = t.take_report().unwrap();
        assert_eq!(report.events.len(), 1);
        assert_eq!(report.metrics.counter("nested"), 1);
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
