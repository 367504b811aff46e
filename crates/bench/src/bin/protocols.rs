//! Cross-protocol comparison harness (`BENCH_protocols.json`).
//!
//! Runs the same synthetic workloads through every coherence backend
//! the simulator ships — scalable TCC, the serialized-commit
//! baseline, and timestamp-ordered Tardis — with the serializability
//! checker as oracle, and reports per cell: makespan, commits,
//! violations, traffic volume, and the message-census counters that
//! separate the protocols (invalidation multicasts, write-set
//! broadcasts, lease renewals).
//!
//! The headline number this artifact exists to pin down: on the
//! sharer-heavy workload, TCC pays per-sharer invalidations, the
//! baseline broadcasts whole write-sets to every node, and Tardis
//! moves **zero** of either — stale sharers just commit earlier in
//! logical time.
//!
//! Modes:
//!
//! * `protocols` — run the sweep, write `BENCH_protocols.json`.
//! * `protocols --check <golden.json>` — additionally assert exact
//!   result-fingerprint identity against a golden run report, such as
//!   the committed `BENCH_protocols.json` (read before this run
//!   overwrites it); exits non-zero on any mismatch.

use tcc_bench::report::write_report;
use tcc_bench::{flag_value, refuse, Golden, ReportCell};
use tcc_core::{Simulator, SystemConfig, ThreadProgram, Transaction, TxOp, WorkItem};
use tcc_trace::json::JsonCodec;
use tcc_trace::RunReport;
use tcc_types::{Addr, ProtocolKind};
use tcc_workloads::Scale;

fn tx(ops: Vec<TxOp>) -> WorkItem {
    WorkItem::Tx(Transaction::new(ops))
}

/// One writer repeatedly updating a small set of hot lines that every
/// other processor keeps re-reading: the invalidation-traffic worst
/// case for TCC, the broadcast worst case for the baseline, and the
/// showcase for Tardis's zero-invalidation logical-time reads.
fn sharer_heavy(n: usize, rounds: u64) -> Vec<ThreadProgram> {
    let hot: Vec<Addr> = (0..4u64).map(|i| Addr(0x40 * (i + 1))).collect();
    (0..n as u64)
        .map(|p| {
            let items: Vec<WorkItem> = (0..rounds)
                .map(|_| {
                    if p == 0 {
                        tx(hot.iter().map(|&a| TxOp::Store(a)).collect())
                    } else {
                        let mut ops: Vec<TxOp> = hot.iter().map(|&a| TxOp::Load(a)).collect();
                        ops.push(TxOp::Compute(20 + 7 * p as u32));
                        tx(ops)
                    }
                })
                .collect();
            ThreadProgram::new(items)
        })
        .collect()
}

/// Every processor read-modify-writes one shared counter line: maximal
/// commit-order contention, minimal data.
fn hot_line(n: usize, rounds: u64) -> Vec<ThreadProgram> {
    (0..n as u64)
        .map(|p| {
            let items: Vec<WorkItem> = (0..rounds)
                .map(|_| {
                    tx(vec![
                        TxOp::Load(Addr(0x40)),
                        TxOp::Compute(15 + 9 * p as u32),
                        TxOp::Store(Addr(0x40)),
                    ])
                })
                .collect();
            ThreadProgram::new(items)
        })
        .collect()
}

/// Every processor works a private line set: the embarrassingly
/// parallel case where the protocols should only differ in fixed
/// per-commit overhead.
fn disjoint(n: usize, rounds: u64) -> Vec<ThreadProgram> {
    (0..n as u64)
        .map(|p| {
            let base = 0x1000 * (p + 1);
            let items: Vec<WorkItem> = (0..rounds)
                .map(|r| {
                    tx(vec![
                        TxOp::Load(Addr(base + 0x40 * (r % 3))),
                        TxOp::Compute(30),
                        TxOp::Store(Addr(base + 0x40 * (r % 3))),
                    ])
                })
                .collect();
            ThreadProgram::new(items)
        })
        .collect()
}

struct Workload {
    name: &'static str,
    cpus: usize,
    programs: fn(usize, u64) -> Vec<ThreadProgram>,
    rounds: u64,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "sharer-heavy",
        cpus: 8,
        programs: sharer_heavy,
        rounds: 6,
    },
    Workload {
        name: "hot-line",
        cpus: 4,
        programs: hot_line,
        rounds: 8,
    },
    Workload {
        name: "disjoint",
        cpus: 8,
        programs: disjoint,
        rounds: 6,
    },
];

/// One cell of `BENCH_protocols.json`.
struct Measurement {
    cell: String,
    protocol: ProtocolKind,
    total_cycles: u64,
    commits: u64,
    violations: u64,
    traffic_bytes: u64,
    messages: u64,
    invalidations: u64,
    broadcasts: u64,
    renews: u64,
    fingerprint: String,
}

tcc_trace::json_fields!(Measurement {
    cell,
    protocol,
    total_cycles,
    commits,
    violations,
    traffic_bytes,
    messages,
    invalidations,
    broadcasts,
    renews,
    fingerprint,
});

/// Allocations are not counted here, so the golden gates results only.
impl ReportCell for Measurement {
    fn label(&self) -> &str {
        &self.cell
    }
    fn fingerprint(&self) -> &str {
        &self.fingerprint
    }
}

fn census_count(census: &[(&'static str, u64)], kind: &str) -> u64 {
    census
        .iter()
        .find(|&&(k, _)| k == kind)
        .map_or(0, |&(_, v)| v)
}

fn run_cell(w: &Workload, protocol: ProtocolKind) -> Measurement {
    let mut cfg = SystemConfig::with_procs(w.cpus);
    cfg.protocol = protocol;
    cfg.check_serializability = true;
    let r = Simulator::builder(cfg)
        .programs((w.programs)(w.cpus, w.rounds))
        .build()
        .expect("valid config")
        .run();
    r.assert_serializable();
    let census = r.traffic.message_census();
    Measurement {
        cell: format!("{}/{protocol}", w.name),
        protocol,
        total_cycles: r.total_cycles,
        commits: r.commits,
        violations: r.violations,
        traffic_bytes: r.traffic.total_bytes(),
        messages: census.iter().map(|&(_, c)| c).sum(),
        invalidations: census_count(&census, "Invalidate"),
        broadcasts: census_count(&census, "BaselineCommit"),
        renews: census_count(&census, "TsRenew"),
        fingerprint: r.fingerprint(),
    }
}

/// Parses the command line (without the program name): the only
/// option is `--check <golden.json>`.
fn parse_check(args: impl IntoIterator<Item = String>) -> Result<Option<String>, String> {
    let mut check = None;
    let mut iter = args.into_iter();
    while let Some(a) = iter.next() {
        if a == "--check" {
            check = Some(flag_value("--check", &mut iter)?);
        } else {
            return Err(format!("unknown flag {a}"));
        }
    }
    Ok(check)
}

fn main() {
    let check = parse_check(std::env::args().skip(1)).unwrap_or_else(|e| refuse(&e));
    let golden: Option<Golden<Measurement>> = check.map(Golden::read);

    let mut measured = Vec::new();
    println!(
        "{:<26} {:>9} {:>8} {:>6} {:>10} {:>6} {:>7} {:>6}  fingerprint",
        "cell", "cycles", "commits", "viols", "bytes", "inval", "bcast", "renew"
    );
    for w in &WORKLOADS {
        for protocol in ProtocolKind::ALL {
            let m = run_cell(w, protocol);
            println!(
                "{:<26} {:>9} {:>8} {:>6} {:>10} {:>6} {:>7} {:>6}  {}",
                m.cell,
                m.total_cycles,
                m.commits,
                m.violations,
                m.traffic_bytes,
                m.invalidations,
                m.broadcasts,
                m.renews,
                m.fingerprint
            );
            measured.push(m);
        }
    }

    // The property this harness exists to witness: Tardis moves zero
    // invalidations and zero write-set broadcasts on every workload.
    for m in measured
        .iter()
        .filter(|m| m.protocol == ProtocolKind::Tardis)
    {
        assert_eq!(m.invalidations, 0, "{}: tardis sent invalidations", m.cell);
        assert_eq!(m.broadcasts, 0, "{}: tardis broadcast write-sets", m.cell);
    }

    let mut report = RunReport::new("protocols");
    report.set("cells", measured.to_json());
    write_report(&report, Scale::Full);

    if let Some(golden) = golden {
        golden.enforce("protocols-smoke", &measured, |_| true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Option<String>, String> {
        parse_check(argv.iter().map(|a| (*a).to_string()))
    }

    #[test]
    fn check_takes_a_value() {
        assert_eq!(parse(&[]), Ok(None));
        assert_eq!(parse(&["--check", "g.json"]), Ok(Some("g.json".into())));
        assert!(parse(&["--check"]).unwrap_err().contains("--check"));
        assert!(parse(&["--smoke"]).unwrap_err().contains("--smoke"));
    }
}
