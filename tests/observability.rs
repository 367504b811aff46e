//! Non-perturbation proof for the `tcc-trace` layer: tracing is
//! observation-only, so an identical workload must produce
//! byte-identical simulation results whether tracing is disabled,
//! collecting metrics, or capturing full event rings — and the
//! collected metrics must agree with the simulator's own counters.

use scalable_tcc::prelude::*;

fn run_with(trace: TraceConfig) -> SimResult {
    let app = apps::volrend();
    let programs = app.generate_scaled(4, 7, Scale::Smoke);
    let cfg = SystemConfig {
        check_serializability: true,
        ..SystemConfig::with_procs(4)
    };
    Simulator::builder(cfg)
        .programs(programs)
        .tracer(Tracer::new(&trace))
        .build()
        .expect("valid config")
        .run()
}

/// Everything a run produced except the trace itself, as one
/// comparable string: the core plain-data digest
/// ([`SimResult::fingerprint`]) plus the serializability verdict.
fn fingerprint(r: &SimResult) -> String {
    format!("{} {:?}", r.fingerprint(), r.serializability)
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    let off = run_with(TraceConfig::default());
    let metrics = run_with(TraceConfig::metrics_only());
    let full = run_with(TraceConfig::full());
    assert!(
        off.trace.is_none(),
        "disabled tracing must produce no report"
    );
    assert!(metrics.trace.is_some());
    assert!(full.trace.is_some());
    assert_eq!(fingerprint(&off), fingerprint(&metrics));
    assert_eq!(fingerprint(&off), fingerprint(&full));
    off.assert_serializable();
}

#[test]
fn traced_metrics_agree_with_simulator_counters() {
    let r = run_with(TraceConfig::metrics_only());
    let m = &r.trace.as_ref().unwrap().metrics;
    assert_eq!(m.counter("commit.count"), r.commits);
    let latency = m.histogram("commit.latency").expect("commits were traced");
    assert_eq!(latency.count(), r.commits);
    assert_eq!(
        m.counter("violations.conflict") + m.counter("violations.overflow"),
        r.violations
    );
    assert_eq!(m.counter("engine.events_dispatched"), r.events);
    let tid_wait: u64 = r.proc_counters.iter().map(|c| c.tid_wait).sum();
    assert_eq!(
        m.histogram("commit.tid_wait").map_or(0, |h| h.sum()),
        tid_wait
    );
}

#[test]
fn full_trace_accounts_for_every_recorded_event() {
    let r = run_with(TraceConfig::full());
    let t = r.trace.unwrap();
    assert!(
        !t.events.is_empty(),
        "a real run must record protocol events"
    );
    assert_eq!(t.events.len() as u64 + t.dropped, t.recorded);
    // The Chrome exporter must emit parseable JSON for a real trace.
    let chrome = t.to_chrome_trace();
    scalable_tcc::trace::Json::parse(&chrome).expect("chrome trace must be valid JSON");
}
