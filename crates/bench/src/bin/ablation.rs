//! Ablations of the paper's three design claims (DESIGN.md §4):
//!
//! * **A — parallel vs. serialized commit**: Scalable TCC against the
//!   small-scale baseline (global commit token + broadcast) on a
//!   commit-intensive application, across machine sizes. The paper's
//!   motivation: "the sum of all commit times places a lower bound on
//!   execution time" for the serialized design.
//! * **B — word- vs. line-granularity conflict detection**: the same
//!   workload under both tracking granularities; line granularity
//!   exposes false sharing as extra violations.
//! * **C — write-back vs. write-through commit traffic**: remote bytes
//!   moved by the scalable write-back protocol against the baseline's
//!   write-through broadcasts.

use tcc_bench::report::{harness_json, write_report};
use tcc_bench::{run_app, HarnessArgs, HARNESS_SEED};
use tcc_core::{ProtocolKind, SimResult, Simulator, SystemConfig};
use tcc_stats::render::TextTable;
use tcc_trace::{Json, RunReport};
use tcc_workloads::apps;

fn main() {
    let args = HarnessArgs::parse();
    let mut report = RunReport::new("ablation");
    report.set(
        "harness",
        harness_json(&args, args.seed.unwrap_or(HARNESS_SEED)),
    );
    ablation_a(&args, &mut report);
    ablation_b(&args, &mut report);
    ablation_c(&args, &mut report);
    ablation_d(&args, &mut report);
    ablation_e(&args, &mut report);
    write_report(&report, args.scale());
}

/// The three OCC conditions of §2.1 head-to-head: serial execution
/// (condition 1), serialized commit (condition 2, small-scale TCC),
/// and parallel commit (condition 3, Scalable TCC).
fn ablation_a(args: &HarnessArgs, report: &mut RunReport) {
    println!("Ablation A: the three OCC conditions (volrend-class workload)\n");
    let app = apps::volrend();
    let mut t = TextTable::new(vec![
        "CPUs",
        "Cond 3 (Scalable)",
        "Cond 2 (token)",
        "Cond 1 (serial)",
        "Cond2/Cond3",
        "Cond1/Cond3",
    ]);
    let mut rows: Vec<Json> = Vec::new();
    for n in [1usize, 4, 16, 32] {
        let scalable = run_app(&app, n, args.scale(), |_| {}).total_cycles;
        let programs = app.generate_scaled(n, HARNESS_SEED, args.scale());
        let cond2 = run_serialized(n, programs.clone(), false).total_cycles;
        let cond1 = run_serialized(n, programs, true).total_cycles;
        t.row(vec![
            n.to_string(),
            scalable.to_string(),
            cond2.to_string(),
            cond1.to_string(),
            format!("{:.2}x", cond2 as f64 / scalable as f64),
            format!("{:.2}x", cond1 as f64 / scalable as f64),
        ]);
        rows.push(Json::obj(vec![
            ("cpus", n.into()),
            ("parallel_commit", scalable.into()),
            ("serialized_commit", cond2.into()),
            ("serial_execution", cond1.into()),
        ]));
        eprintln!("  A: p={n} done");
    }
    report.set("occ_conditions", Json::Arr(rows));
    println!("{}", t.render());
    println!("Expectation (§2.1): condition 1 yields no concurrency at all;");
    println!("condition 2 stops scaling once the sum of commit times dominates;");
    println!("condition 3 (parallel commit) keeps scaling.\n");
}

/// Runs `programs` on the §2.2 small-scale machine: the serialized-commit
/// backend (global commit token, write-through broadcast commit), in OCC
/// condition 1 when `serial_execution` is set, condition 2 otherwise.
fn run_serialized(
    n: usize,
    programs: Vec<tcc_core::ThreadProgram>,
    serial_execution: bool,
) -> SimResult {
    let cfg = SystemConfig {
        protocol: ProtocolKind::SerializedCommit,
        serial_execution,
        ..SystemConfig::with_procs(n)
    };
    Simulator::builder(cfg)
        .programs(programs)
        .build()
        .expect("valid config")
        .run()
}

/// Word- vs. line-granularity conflict detection.
fn ablation_b(args: &HarnessArgs, report: &mut RunReport) {
    println!("Ablation B: word- vs. line-granularity conflict detection\n");
    let mut t = TextTable::new(vec![
        "Application",
        "Word viol",
        "Line viol",
        "Word cycles",
        "Line cycles",
        "Line/Word time",
    ]);
    let mut rows: Vec<Json> = Vec::new();
    for app in [apps::cluster_ga(), apps::water_nsquared(), apps::volrend()] {
        if !args.selects(app.name) {
            continue;
        }
        let word = run_app(&app, 16, args.scale(), |_| {});
        let line = run_app(&app, 16, args.scale(), |c| {
            c.cache.granularity = tcc_cache::Granularity::Line;
        });
        t.row(vec![
            app.name.to_string(),
            word.violations.to_string(),
            line.violations.to_string(),
            word.total_cycles.to_string(),
            line.total_cycles.to_string(),
            format!(
                "{:.2}x",
                line.total_cycles as f64 / word.total_cycles as f64
            ),
        ]);
        rows.push(Json::obj(vec![
            ("app", app.name.into()),
            ("word_violations", word.violations.into()),
            ("line_violations", line.violations.into()),
            ("word_cycles", word.total_cycles.into()),
            ("line_cycles", line.total_cycles.into()),
        ]));
        eprintln!("  B: {} done", app.name);
    }
    report.set("granularity", Json::Arr(rows));
    println!("{}", t.render());
    println!("Expectation: line granularity adds false-sharing violations on");
    println!("write-shared lines (§3.1 motivates per-word SR/SM bits).\n");
}

/// Write-back vs. write-through commit traffic.
fn ablation_c(args: &HarnessArgs, report: &mut RunReport) {
    println!("Ablation C: write-back (scalable) vs. write-through (baseline) traffic\n");
    let mut t = TextTable::new(vec![
        "Application",
        "WB total bytes",
        "WT total bytes",
        "WT/WB",
    ]);
    let mut rows: Vec<Json> = Vec::new();
    for app in [apps::swim(), apps::water_spatial()] {
        if !args.selects(app.name) {
            continue;
        }
        let n = 16;
        let wb = run_app(&app, n, args.scale(), |_| {});
        let programs = app.generate_scaled(n, HARNESS_SEED, args.scale());
        let wt = run_serialized(n, programs, false);
        t.row(vec![
            app.name.to_string(),
            wb.traffic.total_bytes().to_string(),
            wt.traffic.total_bytes().to_string(),
            format!(
                "{:.1}x",
                wt.traffic.total_bytes() as f64 / wb.traffic.total_bytes().max(1) as f64
            ),
        ]);
        rows.push(Json::obj(vec![
            ("app", app.name.into()),
            ("writeback_bytes", wb.traffic.total_bytes().into()),
            ("writethrough_bytes", wt.traffic.total_bytes().into()),
        ]));
        eprintln!("  C: {} done", app.name);
    }
    report.set("commit_traffic", Json::Arr(rows));
    println!("{}", t.render());
    println!("Expectation: write-through broadcast commits move every written");
    println!("line's data to every node; write-back moves data only on true");
    println!("sharing or eviction (§2 'write-back commit').");
}

/// Directory-cache capacity sensitivity: Table 3 argues the per-app
/// working set "fits comfortably in a 2-MB directory cache"; this
/// ablation shows what happens when it does not.
fn ablation_d(args: &HarnessArgs, report: &mut RunReport) {
    println!("Ablation D: directory-cache capacity (16 CPUs)\n");
    let mut t = TextTable::new(vec![
        "Application",
        "unbounded",
        "4096 entries",
        "256 entries",
        "32 entries",
        "32-entry slowdown",
    ]);
    let mut rows: Vec<Json> = Vec::new();
    for app in [apps::barnes(), apps::equake()] {
        if !args.selects(app.name) {
            continue;
        }
        let cycles: Vec<u64> = [None, Some(4096usize), Some(256), Some(32)]
            .iter()
            .map(|&cap| run_app(&app, 16, args.scale(), |c| c.dir_cache_entries = cap).total_cycles)
            .collect();
        let base = cycles[0] as f64;
        t.row(vec![
            app.name.to_string(),
            cycles[0].to_string(),
            format!("{:.2}x", cycles[1] as f64 / base),
            format!("{:.2}x", cycles[2] as f64 / base),
            format!("{:.2}x", cycles[3] as f64 / base),
            format!("+{:.0}%", (cycles[3] as f64 / base - 1.0) * 100.0),
        ]);
        rows.push(Json::obj(vec![
            ("app", app.name.into()),
            (
                "cycles_by_capacity",
                Json::Arr(cycles.iter().map(|&c| c.into()).collect()),
            ),
        ]));
        eprintln!("  D: {} done", app.name);
    }
    report.set("dir_cache_capacity", Json::Arr(rows));
    println!("{}", t.render());
    println!("Expectation: performance is flat until the directory working set");
    println!("(Table 3: tens to hundreds of entries) spills, then every");
    println!("line-state operation pays an extra memory access.");
}

/// Topology extension: the paper's plain 2D grid vs. a 2D torus
/// (wrap-around links halve worst-case hop counts). The
/// latency-sensitive applications of Figure 8 should gain the most.
fn ablation_e(args: &HarnessArgs, report: &mut RunReport) {
    println!("Ablation E (extension): 2D grid vs. 2D torus at 64 CPUs\n");
    let mut t = TextTable::new(vec![
        "Application",
        "Grid cycles",
        "Torus cycles",
        "Torus speedup",
    ]);
    let mut rows: Vec<Json> = Vec::new();
    for app in [apps::equake(), apps::volrend(), apps::swim()] {
        if !args.selects(app.name) {
            continue;
        }
        let grid = run_app(&app, 64, args.scale(), |_| {}).total_cycles;
        let torus = run_app(&app, 64, args.scale(), |c| c.network.torus = true).total_cycles;
        t.row(vec![
            app.name.to_string(),
            grid.to_string(),
            torus.to_string(),
            format!("{:.2}x", grid as f64 / torus as f64),
        ]);
        rows.push(Json::obj(vec![
            ("app", app.name.into()),
            ("grid_cycles", grid.into()),
            ("torus_cycles", torus.into()),
        ]));
        eprintln!("  E: {} done", app.name);
    }
    report.set("torus", Json::Arr(rows));
    println!("{}", t.render());
    println!("Expectation: communication-bound applications (equake, volrend)");
    println!("gain from shorter average distances; partitioned-grid codes");
    println!("(swim) are indifferent — the Figure 8 sensitivity, inverted.");
}
