//! Protocol comparison: Scalable TCC's parallel commit against the
//! original small-scale TCC (global commit token + write-through
//! broadcast) on the same commit-intensive workload — the paper's core
//! motivation, live.
//!
//! ```sh
//! cargo run --release --example protocol_comparison [--full]
//! ```

use scalable_tcc::prelude::*;
use scalable_tcc::stats::render::TextTable;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let scale = if full { Scale::Full } else { Scale::Smoke };
    let app = apps::volrend(); // tiny transactions: commits dominate

    println!(
        "Parallel vs. serialized commit on {} ({:?} scale)\n",
        app.name, scale
    );
    let mut t = TextTable::new(vec![
        "CPUs",
        "Scalable (cycles)",
        "Small-scale (cycles)",
        "Serialized penalty",
    ]);
    for n in [1usize, 2, 4, 8, 16] {
        let programs = app.generate_scaled(n, 42, scale);
        let scalable = Simulator::builder(SystemConfig::with_procs(n))
            .programs(programs.clone())
            .build()
            .expect("valid config")
            .run()
            .total_cycles;
        let serialized = Simulator::builder(SystemConfig::with_procs(n))
            .protocol(ProtocolKind::SerializedCommit)
            .programs(programs)
            .build()
            .expect("valid config")
            .run()
            .total_cycles;
        t.row(vec![
            n.to_string(),
            scalable.to_string(),
            serialized.to_string(),
            format!("{:.2}x", serialized as f64 / scalable as f64),
        ]);
        eprintln!("  p={n} done");
    }
    println!("{}", t.render());
    println!("The small-scale design serializes every commit through one");
    println!("global token and broadcasts write-sets to every node; its");
    println!("penalty grows with the processor count, which is exactly why");
    println!("the paper rebuilds the commit around directories (§2.2).");
}
