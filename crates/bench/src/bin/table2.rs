//! Regenerates Table 2: parameters of the simulated architecture.

use tcc_bench::report::write_report;
use tcc_core::SystemConfig;
use tcc_stats::render::TextTable;
use tcc_trace::{Json, RunReport};
use tcc_workloads::Scale;

fn main() {
    let c = SystemConfig::default();
    let mut report = RunReport::new("table2");
    report.set(
        "params",
        Json::obj(vec![
            ("n_procs", c.n_procs.into()),
            ("l1_bytes", c.cache.l1_bytes.into()),
            ("l1_ways", c.cache.l1_ways.into()),
            ("l1_latency", c.cache.l1_latency.into()),
            ("l2_bytes", c.cache.l2_bytes.into()),
            ("l2_ways", c.cache.l2_ways.into()),
            ("l2_latency", c.cache.l2_latency.into()),
            ("line_bytes", c.cache.geometry.line_bytes().into()),
            ("link_latency", c.network.link_latency.into()),
            ("link_bytes_per_cycle", c.network.bytes_per_cycle.into()),
            ("mem_latency", c.mem_latency.into()),
            ("dir_line_latency", c.dir_line_latency.into()),
            ("dir_ctrl_latency", c.dir_ctrl_latency.into()),
        ]),
    );
    let mut t = TextTable::new(vec!["Feature", "Description"]);
    t.row(vec![
        "CPU".into(),
        format!("single-issue cores, CPI 1.0 ({} default)", c.n_procs),
    ]);
    t.row(vec![
        "L1".into(),
        format!(
            "{}-KB, {}-byte cache line, {}-way associative, {}-cycle latency",
            c.cache.l1_bytes / 1024,
            c.cache.geometry.line_bytes(),
            c.cache.l1_ways,
            c.cache.l1_latency
        ),
    ]);
    t.row(vec![
        "L2".into(),
        format!(
            "{}-KB, {}-byte cache line, {}-way associative, {}-cycle latency",
            c.cache.l2_bytes / 1024,
            c.cache.geometry.line_bytes(),
            c.cache.l2_ways,
            c.cache.l2_latency
        ),
    ]);
    t.row(vec![
        "ICN".into(),
        format!(
            "2D grid topology, {}-cycle link latency (swept 1-8 in Figure 8), {} B/cycle links",
            c.network.link_latency, c.network.bytes_per_cycle
        ),
    ]);
    t.row(vec![
        "Main memory".into(),
        format!("{}-cycle latency", c.mem_latency),
    ]);
    t.row(vec![
        "Directory".into(),
        format!(
            "full-bit-vector sharer list; {}-cycle directory cache, {}-cycle control ops",
            c.dir_line_latency, c.dir_ctrl_latency
        ),
    ]);
    t.row(vec![
        "Placement".into(),
        "line-interleaved homes (workloads encode first-touch placement into addresses)".into(),
    ]);
    write_report(&report, Scale::Full);
    println!("Table 2: parameters of the simulated architecture\n");
    println!("{}", t.render());
}
