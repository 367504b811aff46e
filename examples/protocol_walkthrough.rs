//! Protocol walkthrough: replays the paper's Figure 2 scenario —
//! two processors share a line; one commits a write and the other is
//! violated and re-executes — narrating every coherence message, then
//! listing the messages the run's tracer recorded.
//!
//! ```sh
//! cargo run --release --example protocol_walkthrough
//! ```

use scalable_tcc::prelude::*;
use scalable_tcc::trace::TraceEvent;

fn main() {
    // The line both processors touch, homed at node 0 (line 8 % 2 == 0).
    let x = Addr(8 * 32);

    // P0: writes X quickly and commits (the T1 of Fig. 2).
    // P1: reads X, then computes long enough for P0's commit to land —
    //     it is invalidated, violates, re-executes, and finally commits
    //     having read P0's value (the T2 of Fig. 2).
    let programs = vec![
        ThreadProgram::new(vec![WorkItem::Tx(Transaction::new(vec![
            TxOp::Store(x),
            TxOp::Compute(50),
        ]))]),
        ThreadProgram::new(vec![WorkItem::Tx(Transaction::new(vec![
            TxOp::Load(x),
            TxOp::Compute(20_000),
        ]))]),
    ];

    let mut cfg = SystemConfig::with_procs(2);
    cfg.check_serializability = true;
    let result = Simulator::builder(cfg)
        .programs(programs)
        .tracer(Tracer::new(&TraceConfig::full()))
        .build()
        .expect("valid config")
        .run();
    result.assert_serializable();

    println!("Figure 2 walkthrough — one committer, one violated reader");
    println!("----------------------------------------------------------");
    println!(
        "commits            : {} (both transactions eventually commit)",
        result.commits
    );
    println!(
        "violated attempts  : {} (the reader rolled back at least once)",
        result.violations
    );
    println!("P0 breakdown       : {:?}", result.breakdowns[0]);
    println!("P1 breakdown       : {:?}", result.breakdowns[1]);
    println!();
    println!("What happened on the wire (§2.2 of the paper):");
    println!(" 1. Both processors Load-Request line X from Directory 0 and");
    println!("    are recorded in its sharers vector.");
    println!(" 2. P0 finishes first: TID-Request -> vendor, Skip to the");
    println!("    directory it never touched, Probe to Directory 0.");
    println!(" 3. Directory 0 answers when its Now-Serving TID matches; P0");
    println!("    sends Mark for X's written words, then the Commit multicast.");
    println!(" 4. The gang-upgrade makes P0 the owner and sends P1 an");
    println!("    Invalidate carrying the written word flags.");
    println!(" 5. P1's SR bits intersect the flags: it violates, rolls back,");
    println!("    re-executes, re-fetches X (forwarded from owner P0), and");
    println!("    commits with a TID ordered after P0's.");
    println!();
    println!("The message stream, as the tracer recorded it:");
    println!(
        "{:>8}  {:<14} {:>4} -> {:<4} {:>6}",
        "cycle", "kind", "src", "dst", "bytes"
    );
    let trace = result.trace.as_ref().expect("tracing was enabled");
    for rec in &trace.events {
        if let TraceEvent::MsgSend {
            kind,
            src,
            dst,
            bytes,
        } = &rec.event
        {
            println!(
                "{:>8}  {kind:<14} {:>4} -> {:<4} {bytes:>6}",
                rec.at.0,
                src.to_string(),
                dst.to_string()
            );
        }
    }
    assert!(
        result.violations >= 1,
        "the reader should have been violated"
    );
}
