//! Regenerates Figure 9: average remote traffic at each directory, in
//! bytes per instruction, broken down by category, at 64 processors.

use tcc_bench::report::{harness_json, write_report};
use tcc_bench::{run_app, HarnessArgs, HARNESS_SEED};
use tcc_stats::render::TextTable;
use tcc_stats::traffic::TrafficReport;
use tcc_trace::{Json, RunReport};
use tcc_workloads::apps;

fn main() {
    let args = HarnessArgs::parse();
    let mut report = RunReport::new("fig9");
    report.set(
        "harness",
        harness_json(&args, args.seed.unwrap_or(HARNESS_SEED)),
    );
    let mut apps_json: Vec<Json> = Vec::new();
    let mut csv: Vec<Vec<String>> = Vec::new();
    let mut t = TextTable::new(vec![
        "Application",
        "Overhead",
        "Miss",
        "Write-back",
        "Commit",
        "Shared",
        "Total B/instr",
        "MB/s @2GHz",
    ]);
    for app in apps::all() {
        if !args.selects(app.name) {
            continue;
        }
        let r = run_app(&app, 64, args.scale(), |_| {});
        let rep = TrafficReport::from_result(&r);
        apps_json.push(Json::obj(vec![
            ("app", app.name.into()),
            (
                "bytes_per_instr",
                Json::Obj(
                    rep.per_category
                        .iter()
                        .map(|(k, v)| (k.to_string(), (*v).into()))
                        .collect(),
                ),
            ),
            ("total", rep.total.into()),
            ("mbps_at_2ghz", rep.total_mbps_at_2ghz.into()),
        ]));
        let mut row = vec![app.name.to_string()];
        let mut csv_row = vec![app.name.to_string()];
        for (_, v) in &rep.per_category {
            row.push(format!("{v:.4}"));
            csv_row.push(format!("{v:.6}"));
        }
        row.push(format!("{:.3}", rep.total));
        row.push(format!("{:.1}", rep.total_mbps_at_2ghz));
        csv_row.push(format!("{:.6}", rep.total));
        csv_row.push(format!("{:.2}", rep.total_mbps_at_2ghz));
        t.row(row);
        csv.push(csv_row);
        eprintln!("  done: {}", app.name);
    }
    println!("Figure 9: remote traffic per directory at 64 CPUs (bytes/instruction)\n");
    println!("{}", t.render());
    args.write_csv(
        "fig9",
        &[
            "app",
            "overhead",
            "miss",
            "writeback",
            "commit",
            "shared",
            "total",
            "mbps_2ghz",
        ],
        &csv,
    );
    report.set("apps", Json::Arr(apps_json));
    write_report(&report);
    println!("Paper anchors: totals range ~0.01..0.6 bytes/instruction;");
    println!("within commodity-interconnect bandwidth (tens to hundreds of MB/s).");
}
