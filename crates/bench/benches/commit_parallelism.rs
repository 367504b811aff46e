//! End-to-end benchmark of Ablation A: the scalable parallel commit
//! protocol vs. the serialized-commit baseline on the same
//! commit-intensive workload (smoke scale so the suite stays fast).
//!
//! Self-contained `std::time` harness (no external bench framework, so
//! the suite builds offline). Run with `cargo bench -p tcc-bench`.

use std::time::Instant;

use tcc_core::{ProtocolKind, Simulator, SystemConfig};
use tcc_workloads::{apps, Scale};

fn time_runs(name: &str, samples: usize, mut run: impl FnMut()) {
    let mut times: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        run();
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    times.sort_by(|a, b| a.total_cmp(b));
    println!(
        "{name:<40} median {:>9.2} ms  min {:>9.2} ms  ({samples} samples)",
        times[times.len() / 2],
        times[0]
    );
}

fn main() {
    println!("commit_parallelism — volrend, smoke scale\n");
    for n in [4usize, 16] {
        let app = apps::volrend();
        time_runs(&format!("scalable/{n}"), 10, || {
            let programs = app.generate_scaled(n, 7, Scale::Smoke);
            std::hint::black_box(
                Simulator::builder(SystemConfig::with_procs(n))
                    .programs(programs)
                    .build()
                    .expect("valid config")
                    .run(),
            );
        });
        time_runs(&format!("baseline_serialized/{n}"), 10, || {
            let programs = app.generate_scaled(n, 7, Scale::Smoke);
            std::hint::black_box(
                Simulator::builder(SystemConfig::with_procs(n))
                    .protocol(ProtocolKind::SerializedCommit)
                    .programs(programs)
                    .build()
                    .expect("valid config")
                    .run(),
            );
        });
    }
}
