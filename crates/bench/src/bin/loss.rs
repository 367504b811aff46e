//! Loss-rate sensitivity of the reliable transport (EXPERIMENTS.md
//! "Lossy interconnect"): one contended application swept across frame
//! drop rates, reporting completion, slowdown, and the transport's
//! recovery work (retransmissions, timeout fires, duplicate drops,
//! acks). Every run must complete exactly once — a stall at any loss
//! rate is a harness failure.

use tcc_bench::report::{harness_json, write_report};
use tcc_bench::{par_map, run_app_seeded, HarnessArgs, HARNESS_SEED};
use tcc_core::{TransportConfig, WatchdogConfig};
use tcc_network::{ChaosConfig, DropRule};
use tcc_stats::render::TextTable;
use tcc_trace::{Json, RunReport};
use tcc_workloads::apps;

/// Per-frame drop probabilities swept (percent × 100).
const LOSS_PCT: [u64; 5] = [0, 1, 2, 5, 10];

const CPUS: usize = 16;

fn main() {
    let args = HarnessArgs::parse();
    let seed = args.seed.unwrap_or(HARNESS_SEED);
    let app = apps::by_name("radix").expect("radix profile");
    let mut report = RunReport::new("loss");
    report.set_workers(args.jobs() as u64);
    report.set("harness", harness_json(&args, seed));
    report.set("app", app.name.into());
    report.set("cpus", (CPUS as u64).into());
    let results = par_map(&LOSS_PCT, args.jobs(), |&pct| {
        run_app_seeded(&app, CPUS, args.scale(), seed, |cfg| {
            cfg.transport = Some(TransportConfig::default());
            cfg.watchdog = Some(WatchdogConfig::default());
            if pct > 0 {
                cfg.chaos = Some(ChaosConfig {
                    seed,
                    drops: vec![DropRule {
                        kind: "*".to_string(),
                        prob: pct as f64 / 100.0,
                        from: 0,
                        until: u64::MAX,
                    }],
                    ..ChaosConfig::default()
                });
            }
        })
    });
    let base = results[0].total_cycles;
    let mut t = TextTable::new(vec![
        "Loss %",
        "Cycles",
        "Slowdown",
        "Commits",
        "Retransmits",
        "Timeout fires",
        "Dup drops",
        "Acks",
    ]);
    let mut rows: Vec<Json> = Vec::new();
    for (&pct, r) in LOSS_PCT.iter().zip(&results) {
        let ts = r.transport.as_ref().expect("transport was on");
        t.row(vec![
            pct.to_string(),
            r.total_cycles.to_string(),
            format!("{:.3}", r.total_cycles as f64 / base as f64),
            r.commits.to_string(),
            ts.retransmits.to_string(),
            ts.timeout_fires.to_string(),
            ts.dup_drops.to_string(),
            ts.acks.to_string(),
        ]);
        rows.push(Json::obj(vec![
            ("loss_pct", pct.into()),
            ("cycles", r.total_cycles.into()),
            ("commits", r.commits.into()),
            ("violations", r.violations.into()),
            ("retransmits", ts.retransmits.into()),
            ("timeout_fires", ts.timeout_fires.into()),
            ("dup_drops", ts.dup_drops.into()),
            ("acks", ts.acks.into()),
        ]));
    }
    println!(
        "\n{} at {CPUS} CPUs — completion under frame loss\n",
        app.name
    );
    println!("{}", t.render());
    report.set("points", Json::Arr(rows));
    write_report(&report, args.scale());
}
