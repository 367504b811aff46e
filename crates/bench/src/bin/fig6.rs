//! Regenerates Figure 6: normalized execution-time breakdown of every
//! application on one processor.

use tcc_bench::report::{harness_json, maybe_write_chrome, result_json, write_report};
use tcc_bench::{run_app, HarnessArgs, HARNESS_SEED};
use tcc_stats::breakdown::BreakdownPct;
use tcc_stats::render::{stacked_bar, TextTable};
use tcc_trace::{Json, RunReport};
use tcc_workloads::apps;

fn main() {
    let args = HarnessArgs::parse();
    let mut report = RunReport::new("fig6");
    report.set(
        "harness",
        harness_json(&args, args.seed.unwrap_or(HARNESS_SEED)),
    );
    let mut apps_json: Vec<Json> = Vec::new();
    let mut t = TextTable::new(vec![
        "Application",
        "Useful %",
        "CacheMiss %",
        "Idle %",
        "Commit %",
        "Violation %",
        "U=useful M=miss I=idle C=commit V=violation",
    ]);
    for app in apps::all() {
        if !args.selects(app.name) {
            continue;
        }
        let r = run_app(&app, 1, args.scale(), |_| {});
        maybe_write_chrome(&r, &format!("fig6_{}", app.name));
        apps_json.push(Json::obj(vec![
            ("app", app.name.into()),
            ("result", result_json(&r)),
        ]));
        let pct = BreakdownPct::from_result(&r);
        t.row(vec![
            app.name.into(),
            format!("{:.1}", pct.useful * 100.0),
            format!("{:.1}", pct.cache_miss * 100.0),
            format!("{:.1}", pct.idle * 100.0),
            format!("{:.1}", pct.commit * 100.0),
            format!("{:.1}", pct.violation * 100.0),
            stacked_bar(&pct.components(), 40),
        ]);
        eprintln!("  done: {}", app.name);
    }
    report.set("apps", Json::Arr(apps_json));
    write_report(&report);
    println!("Figure 6: single-processor execution-time breakdown\n");
    println!("{}", t.render());
    println!("Paper anchor: with one processor the only TCC overhead is the");
    println!("commit component, ~1-3% on average; no violations are possible.");
}
