//! Regenerates Figure 8: the impact of interconnect latency
//! (cycles per hop) on 64-processor execution time.

use tcc_bench::report::{harness_json, write_report};
use tcc_bench::{par_map, run_app, HarnessArgs, FIG8_LATENCIES, HARNESS_SEED};
use tcc_stats::render::TextTable;
use tcc_trace::{Json, RunReport};
use tcc_workloads::apps;

fn main() {
    let args = HarnessArgs::parse();
    let mut report = RunReport::new("fig8");
    report.set_workers(args.jobs() as u64);
    report.set(
        "harness",
        harness_json(&args, args.seed.unwrap_or(HARNESS_SEED)),
    );
    let mut apps_json: Vec<Json> = Vec::new();
    let mut t = TextTable::new(vec![
        "Application",
        "1 cyc/hop",
        "2 cyc/hop",
        "4 cyc/hop",
        "8 cyc/hop",
        "slowdown 8 vs 1",
    ]);
    for app in apps::all() {
        if !args.selects(app.name) {
            continue;
        }
        let cycles: Vec<u64> = par_map(&FIG8_LATENCIES, args.jobs(), |&lat| {
            let r = run_app(&app, 64, args.scale(), |c| c.network.link_latency = lat);
            eprintln!("  {}: {lat} cyc/hop done", app.name);
            r.total_cycles
        });
        let base = cycles[0].max(1) as f64;
        apps_json.push(Json::obj(vec![
            ("app", app.name.into()),
            (
                "points",
                Json::Arr(
                    FIG8_LATENCIES
                        .iter()
                        .zip(&cycles)
                        .map(|(&lat, &c)| {
                            Json::obj(vec![
                                ("cycles_per_hop", lat.into()),
                                ("cycles", c.into()),
                                ("normalized", (c as f64 / base).into()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]));
        let mut row = vec![app.name.to_string()];
        for c in &cycles {
            row.push(format!("{:.2}", *c as f64 / base));
        }
        row.push(format!("{:.0}%", (cycles[3] as f64 / base - 1.0) * 100.0));
        t.row(row);
    }
    println!("Figure 8: 64-CPU execution time vs. cycles per hop");
    println!("(normalized to the 1-cycle-per-hop run)\n");
    println!("{}", t.render());
    report.set("apps", Json::Arr(apps_json));
    write_report(&report, args.scale());
    println!("Paper anchors: equake (remote-load bound) and volrend");
    println!("(commit bound) degrade ~50% at 8 cycles/hop; SPECjbb2000 and");
    println!("swim are nearly flat.");
}
