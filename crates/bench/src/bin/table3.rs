//! Regenerates Table 3: application transactional characteristics at
//! the paper's reference machine size (32 processors).

use tcc_bench::report::{harness_json, write_report};
use tcc_bench::{run_app, HarnessArgs, HARNESS_SEED};
use tcc_stats::render::TextTable;
use tcc_stats::table3::Table3Row;
use tcc_trace::{Json, RunReport};
use tcc_workloads::apps;

fn main() {
    let args = HarnessArgs::parse();
    let mut report = RunReport::new("table3");
    report.set(
        "harness",
        harness_json(&args, args.seed.unwrap_or(HARNESS_SEED)),
    );
    let mut apps_json: Vec<Json> = Vec::new();
    let mut csv: Vec<Vec<String>> = Vec::new();
    let mut t = TextTable::new(vec![
        "Application",
        "Input",
        "TxSize p90 (inst)",
        "WrSet p90 (KB)",
        "RdSet p90 (KB)",
        "Ops/word p90",
        "Dirs/commit p90",
        "WorkSet p90 (entries)",
        "Occupancy p90 (cyc)",
    ]);
    for app in apps::all() {
        if !args.selects(app.name) {
            continue;
        }
        let r = run_app(&app, 32, args.scale(), |_| {});
        let row = Table3Row::from_result(app.name, &r);
        apps_json.push(Json::obj(vec![
            ("app", app.name.into()),
            ("input", app.input.into()),
            ("tx_size_p90", row.tx_size_p90.into()),
            ("write_set_kb_p90", row.write_set_kb_p90.into()),
            ("read_set_kb_p90", row.read_set_kb_p90.into()),
            ("ops_per_word_p90", row.ops_per_word_p90.into()),
            ("dirs_per_commit_p90", row.dirs_per_commit_p90.into()),
            ("working_set_p90", row.working_set_p90.into()),
            ("occupancy_p90", row.occupancy_p90.into()),
        ]));
        t.row(vec![
            row.name.clone(),
            app.input.to_string(),
            format!("{:.0}", row.tx_size_p90),
            format!("{:.2}", row.write_set_kb_p90),
            format!("{:.2}", row.read_set_kb_p90),
            format!("{:.0}", row.ops_per_word_p90),
            format!("{:.0}", row.dirs_per_commit_p90),
            format!("{:.0}", row.working_set_p90),
            format!("{:.0}", row.occupancy_p90),
        ]);
        csv.push(vec![
            row.name.clone(),
            format!("{:.0}", row.tx_size_p90),
            format!("{:.4}", row.write_set_kb_p90),
            format!("{:.4}", row.read_set_kb_p90),
            format!("{:.2}", row.ops_per_word_p90),
            format!("{:.0}", row.dirs_per_commit_p90),
            format!("{:.0}", row.working_set_p90),
            format!("{:.0}", row.occupancy_p90),
        ]);
        eprintln!("  done: {}", app.name);
    }
    args.write_csv(
        "table3",
        &[
            "app",
            "tx_size_p90",
            "wr_set_kb_p90",
            "rd_set_kb_p90",
            "ops_per_word_p90",
            "dirs_per_commit_p90",
            "working_set_p90",
            "occupancy_p90",
        ],
        &csv,
    );
    report.set("apps", Json::Arr(apps_json));
    write_report(&report);
    println!("Table 3: application characteristics at 32 processors\n");
    println!("{}", t.render());
    println!("Paper anchors: tx sizes 200..45000 inst; read sets < 16 KB;");
    println!("write sets <= 8 KB; ops/word ~6..640; dirs/commit mostly 1-2");
    println!("(radix: all); working set fits a 2-MB directory cache.");
}
