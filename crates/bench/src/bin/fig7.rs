//! Regenerates Figure 7: execution time, speedup, and breakdown of
//! every application as the machine scales from 1 to 64 processors.

use tcc_bench::report::{
    breakdown_json, harness_json, histogram_of, maybe_write_chrome, write_report, TransportTotals,
};
use tcc_bench::{par_map, run_app_seeded, HarnessArgs, FIG7_SIZES, HARNESS_SEED};
use tcc_stats::breakdown::scaling_curve;
use tcc_stats::render::{stacked_bar, TextTable};
use tcc_trace::{Json, RunReport};
use tcc_workloads::apps;

fn main() {
    let args = HarnessArgs::parse();
    let seed = args.seed.unwrap_or(HARNESS_SEED);
    let mut summary: Vec<(String, f64, f64)> = Vec::new();
    let mut csv: Vec<Vec<String>> = Vec::new();
    let mut report = RunReport::new("fig7");
    report.set_workers(args.jobs() as u64);
    report.set("harness", harness_json(&args, seed));
    report.set(
        "sizes",
        Json::Arr(FIG7_SIZES.iter().map(|&n| n.into()).collect()),
    );
    let mut apps_json: Vec<Json> = Vec::new();
    let mut transport = TransportTotals::default();
    for app in apps::all() {
        if !args.selects(app.name) {
            continue;
        }
        let results = par_map(&FIG7_SIZES, args.jobs(), |&n| {
            let r = run_app_seeded(&app, n, args.scale(), seed, |_| {});
            eprintln!("  {}: p={n} done ({} cycles)", app.name, r.total_cycles);
            maybe_write_chrome(&r, &format!("fig7_{}_p{n}", app.name));
            r
        });
        for r in &results {
            transport.add(r);
        }
        let curve = scaling_curve(&FIG7_SIZES, &results);
        println!("\n{} — Figure 7 panel", app.name);
        let mut t = TextTable::new(vec![
            "CPUs",
            "Cycles",
            "Speedup",
            "Useful %",
            "Miss %",
            "Idle %",
            "Commit %",
            "(probe-wait %)",
            "Viol %",
            "breakdown (40 cols)",
        ]);
        for (p, r) in curve.iter().zip(&results) {
            // §4.2: "a breakdown of this commit time (not shown)
            // indicates that the majority of the time is spent probing
            // directories" — we show it.
            let commit_total: u64 = r.breakdowns.iter().map(|b| b.commit).sum();
            let probe_wait: u64 = r.proc_counters.iter().map(|c| c.probe_wait).sum();
            let probe_share = 100.0 * probe_wait as f64 / commit_total.max(1) as f64;
            t.row(vec![
                p.n_procs.to_string(),
                p.cycles.to_string(),
                format!("{:.1}", p.speedup),
                format!("{:.1}", p.pct.useful * 100.0),
                format!("{:.1}", p.pct.cache_miss * 100.0),
                format!("{:.1}", p.pct.idle * 100.0),
                format!("{:.1}", p.pct.commit * 100.0),
                format!("{probe_share:.0}%"),
                format!("{:.1}", p.pct.violation * 100.0),
                stacked_bar(&p.pct.components(), 40),
            ]);
        }
        println!("{}", t.render());
        for p in &curve {
            csv.push(vec![
                app.name.to_string(),
                p.n_procs.to_string(),
                p.cycles.to_string(),
                format!("{:.3}", p.speedup),
                format!("{:.4}", p.pct.useful),
                format!("{:.4}", p.pct.cache_miss),
                format!("{:.4}", p.pct.idle),
                format!("{:.4}", p.pct.commit),
                format!("{:.4}", p.pct.violation),
                p.violations.to_string(),
            ]);
        }
        let s32 = curve
            .iter()
            .find(|p| p.n_procs == 32)
            .map_or(0.0, |p| p.speedup);
        let s64 = curve
            .iter()
            .find(|p| p.n_procs == 64)
            .map_or(0.0, |p| p.speedup);
        summary.push((app.name.to_string(), s32, s64));
        // Run-report panel: per-size scalars plus the commit-phase
        // latency distribution (TID acquire -> Commit multicast) of
        // each run; the full metrics snapshot only for the largest
        // machine, where commit overlap matters most.
        let points: Vec<Json> = curve
            .iter()
            .zip(&results)
            .map(|(p, r)| {
                Json::obj(vec![
                    ("cpus", p.n_procs.into()),
                    ("cycles", p.cycles.into()),
                    ("speedup", p.speedup.into()),
                    ("breakdown", breakdown_json(r)),
                    ("commits", r.commits.into()),
                    ("violations", r.violations.into()),
                    ("commit_latency", histogram_of(r, "commit.latency")),
                ])
            })
            .collect();
        let largest = results.last().expect("at least one machine size");
        apps_json.push(Json::obj(vec![
            ("app", app.name.into()),
            ("points", Json::Arr(points)),
            ("speedup_32", s32.into()),
            ("speedup_64", s64.into()),
            (
                "metrics_largest",
                largest
                    .trace
                    .as_ref()
                    .map_or(Json::Null, |t| t.metrics_json()),
            ),
        ]));
    }
    println!("\nFigure 7 summary (speedup over 1 CPU)\n");
    let mut t = TextTable::new(vec!["Application", "32 CPUs", "64 CPUs"]);
    for (name, s32, s64) in &summary {
        t.row(vec![name.clone(), format!("{s32:.1}"), format!("{s64:.1}")]);
    }
    println!("{}", t.render());
    args.write_csv(
        "fig7",
        &[
            "app",
            "cpus",
            "cycles",
            "speedup",
            "useful",
            "miss",
            "idle",
            "commit",
            "violation_frac",
            "violations",
        ],
        &csv,
    );
    report.set("apps", Json::Arr(apps_json));
    report.set("transport", transport.to_json());
    write_report(&report);
    println!("Paper anchors: 32-CPU speedups ~11..32; 64-CPU speedups ~16..57;");
    println!("SPECjbb2000 ~linear; SVM Classify best; equake/volrend worst");
    println!("(small transactions -> commit-time bound at high CPU counts).");
}
