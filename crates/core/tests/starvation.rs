//! Targeted coverage of the starvation / serialize-mode path (§3.3
//! forward progress): entry via the consecutive-violation threshold,
//! entry forced by speculative overflow, exit after the serialized
//! commit, and agreement between the `proc.starvation_entries` trace
//! counter and the `StarvationEvent` profiling stream.

use tcc_core::{SimResult, Simulator, SystemConfig, ThreadProgram, Transaction, TxOp, WorkItem};
use tcc_trace::{TraceConfig, Tracer};
use tcc_types::Addr;

fn line_addr(line: u64, word: u64) -> Addr {
    Addr(line * 32 + word * 4)
}

fn tx(ops: Vec<TxOp>) -> WorkItem {
    WorkItem::Tx(Transaction::new(ops))
}

fn cfg(n: usize) -> SystemConfig {
    let mut c = SystemConfig::with_procs(n);
    c.check_serializability = true;
    c.profile = true;
    c
}

fn run(c: SystemConfig, programs: Vec<ThreadProgram>) -> SimResult {
    Simulator::builder(c)
        .programs(programs)
        .tracer(Tracer::new(&TraceConfig::metrics_only()))
        .build()
        .expect("valid config")
        .run()
}

/// One long reader whose read-set is hammered by three fast writers:
/// deterministic repeated violations push it over the threshold.
fn starved_reader(tail: usize) -> Vec<ThreadProgram> {
    let x = line_addr(11, 0);
    let mut items = vec![tx(vec![TxOp::Load(x), TxOp::Compute(30_000)])];
    // Optional conflict-free tail on a private line, used to observe
    // that serialize mode does not outlive its commit.
    for _ in 0..tail {
        items.push(tx(vec![TxOp::Store(line_addr(50, 0)), TxOp::Compute(50)]));
    }
    let mut programs = vec![ThreadProgram::new(items)];
    for _ in 0..3 {
        let items = (0..12)
            .map(|_| tx(vec![TxOp::Store(x), TxOp::Compute(500)]))
            .collect();
        programs.push(ThreadProgram::new(items));
    }
    programs
}

#[test]
fn threshold_entry_is_counted_and_profiled() {
    let mut c = cfg(4);
    c.starvation_threshold = 3;
    let r = run(c, starved_reader(0));
    assert_eq!(r.commits, 1 + 3 * 12);
    let entries = r
        .trace
        .as_ref()
        .unwrap()
        .metrics
        .counter("proc.starvation_entries");
    assert!(entries >= 1, "the reader must enter serialize mode");
    let profile = r.profile.as_ref().unwrap();
    assert_eq!(
        entries,
        profile.starvation.len() as u64,
        "trace counter and StarvationEvent stream must agree"
    );
    for e in &profile.starvation {
        assert!(!e.overflow, "threshold entry, not overflow");
        assert!(
            e.violations >= 3,
            "entry below the threshold: {} violations",
            e.violations
        );
    }
    assert!(r.proc_counters[0].serialized_retries >= 1);
    r.assert_serializable();
}

#[test]
fn overflow_forced_entry_is_counted_and_profiled() {
    // A read-set far beyond the tiny cache forces serialize mode on the
    // first attempt; the threshold is set unreachably high so the entry
    // can only be overflow-forced.
    let mut c = cfg(2);
    c.starvation_threshold = 64;
    c.cache.l1_bytes = 64;
    c.cache.l1_ways = 1;
    c.cache.l2_bytes = 256; // 8 lines of 32B
    c.cache.l2_ways = 2;
    let mut ops = Vec::new();
    for i in 0..64 {
        ops.push(TxOp::Load(line_addr(i, 0)));
    }
    for i in 0..8 {
        ops.push(TxOp::Store(line_addr(i, 1)));
    }
    let programs = vec![
        ThreadProgram::new(vec![tx(ops)]),
        ThreadProgram::new(vec![tx(vec![TxOp::Compute(100)])]),
    ];
    let r = run(c, programs);
    assert_eq!(r.commits, 2);
    let entries = r
        .trace
        .as_ref()
        .unwrap()
        .metrics
        .counter("proc.starvation_entries");
    assert!(entries >= 1, "overflow must force serialize mode");
    let profile = r.profile.as_ref().unwrap();
    assert_eq!(entries, profile.starvation.len() as u64);
    assert!(
        profile.starvation.iter().all(|e| e.overflow),
        "every entry must be overflow-forced (threshold is unreachable)"
    );
    assert!(r.proc_counters[0].overflows >= 1);
    r.assert_serializable();
}

#[test]
fn serialize_mode_exits_after_the_serialized_commit() {
    // After the starved transaction commits via its early TID, the
    // 30-transaction conflict-free tail must run speculatively again:
    // if serialize mode leaked past the commit, every tail transaction
    // would take the early-TID path and `serialized_retries` would
    // scale with the tail length.
    let tail = 30;
    let mut c = cfg(4);
    c.starvation_threshold = 3;
    let r = run(c, starved_reader(tail));
    assert_eq!(r.commits, 1 + tail as u64 + 3 * 12);
    let entries = r
        .trace
        .as_ref()
        .unwrap()
        .metrics
        .counter("proc.starvation_entries");
    assert!(entries >= 1);
    let retries = r.proc_counters[0].serialized_retries;
    assert!(retries >= 1);
    assert!(
        retries < tail as u64 / 2,
        "serialize mode leaked into the conflict-free tail: \
         {retries} serialized retries for {entries} entries"
    );
    r.assert_serializable();
}
