//! Message census: how often each Table 1 message type crosses the
//! network, per application, per committed transaction — the traffic
//! vocabulary of the protocol made visible.

use tcc_bench::report::{harness_json, write_report};
use tcc_bench::{run_app, HarnessArgs, HARNESS_SEED};
use tcc_stats::render::TextTable;
use tcc_trace::{Json, RunReport};
use tcc_workloads::apps;

fn main() {
    let args = HarnessArgs::parse();
    let mut report = RunReport::new("census");
    report.set(
        "harness",
        harness_json(&args, args.seed.unwrap_or(HARNESS_SEED)),
    );
    let mut apps_json: Vec<Json> = Vec::new();
    let kinds = [
        "LoadRequest",
        "LoadReply",
        "TidRequest",
        "TidReply",
        "Skip",
        "Probe",
        "ProbeReply",
        "Mark",
        "Commit",
        "Abort",
        "WriteBack",
        "Flush",
        "DataRequest",
        "Invalidate",
        "InvAck",
    ];
    let mut headers = vec!["Application"];
    headers.extend(kinds);
    let mut t = TextTable::new(headers);
    for app in apps::all() {
        if !args.selects(app.name) {
            continue;
        }
        let r = run_app(&app, 16, args.scale(), |_| {});
        let census: std::collections::HashMap<&str, u64> =
            r.traffic.message_census().into_iter().collect();
        let per_commit = |k: &str| -> String {
            let n = census.get(k).copied().unwrap_or(0);
            format!("{:.2}", n as f64 / r.commits.max(1) as f64)
        };
        let mut row = vec![app.name.to_string()];
        row.extend(kinds.iter().map(|k| per_commit(k)));
        t.row(row);
        apps_json.push(Json::obj(vec![
            ("app", app.name.into()),
            ("commits", r.commits.into()),
            (
                "messages",
                Json::Obj(
                    kinds
                        .iter()
                        .map(|&k| (k.to_string(), census.get(k).copied().unwrap_or(0).into()))
                        .collect(),
                ),
            ),
        ]));
        eprintln!("  done: {}", app.name);
    }
    report.set("apps", Json::Arr(apps_json));
    write_report(&report, args.scale());
    println!("Remote messages per committed transaction (16 CPUs)\n");
    println!("{}", t.render());
    println!("Reading: every commit skips ~all remote directories (Skip ~15);");
    println!("probes/marks/commits go only to the read/write-set directories;");
    println!("radix's Mark count reflects its all-directory write-sets.");
}
