//! Production-traffic replay bench (`BENCH_traffic.json`).
//!
//! Sweeps the four [`tcc_traffic::scenarios`] presets across thread
//! counts on *both* backends — the cycle-accurate simulator and the
//! real-thread STM — replaying the identical synthesized trace
//! open-loop, and reports offered vs sustained throughput plus
//! p50/p99/p999 commit latency for every cell. A separate `trace`
//! section synthesizes a million-transaction trace and records its
//! synthesis time and fingerprint (`crates/traffic/golden/` pins the
//! fingerprint of a small one).
//!
//! Honest-measurement note: STM cells on a host with fewer CPUs than
//! replay threads measure open-loop queueing under time-slicing, not
//! parallel drain; the `host` block records `host_cpus` so readers can
//! weigh the latency tails accordingly.

use std::time::Instant;

use tcc_bench::report::write_report;
use tcc_bench::HarnessArgs;
use tcc_trace::report::{histogram_json, host_cpus};
use tcc_trace::{Histogram, Json, RunReport};
use tcc_traffic::{replay, scenarios, synthesize, Trace};

/// Simulator processor counts swept per scenario.
const SIM_PROCS: [usize; 3] = [2, 4, 8];
/// STM thread counts swept per scenario.
const STM_THREADS: [usize; 4] = [1, 2, 4, 8];
/// Simulator cycles per trace tick: the knob that sets offered load
/// relative to machine speed (smaller = hotter).
const CYCLES_PER_TICK: u64 = 2;
/// STM nanoseconds per trace tick at full scale.
const NS_PER_TICK: u64 = 40;

fn latency_summary(h: &Histogram) -> Json {
    histogram_json(h)
}

fn sim_cell(trace: &Trace, procs: usize, limit: usize) -> Json {
    let r = replay::run_sim_replay(trace, procs, CYCLES_PER_TICK, limit).expect("valid sim config");
    println!(
        "    sim  procs={procs}: offered {:>8.1} tx/Mcycle, sustained {:>8.1} tx/Mcycle, commit p50/p99/p999 {}/{}/{} cyc",
        r.offered_tx_per_mcycle,
        r.sustained_tx_per_mcycle,
        r.commit_latency.percentile(50.0),
        r.commit_latency.percentile(99.0),
        r.commit_latency.percentile(99.9),
    );
    Json::obj(vec![
        ("procs", (procs as u64).into()),
        ("txs", r.result.commits.into()),
        ("total_cycles", r.result.total_cycles.into()),
        ("offered_tx_per_mcycle", r.offered_tx_per_mcycle.into()),
        ("sustained_tx_per_mcycle", r.sustained_tx_per_mcycle.into()),
        ("commit_latency_cycles", latency_summary(&r.commit_latency)),
    ])
}

fn stm_cell(trace: &Trace, threads: usize, ns_per_tick: u64, limit: usize) -> Json {
    let r = replay::run_stm_replay(trace, threads, ns_per_tick, limit);
    println!(
        "    stm  threads={threads}: offered {:>9.0} tx/s, sustained {:>9.0} tx/s, latency p50/p99/p999 {}/{}/{} ns",
        r.offered_tx_per_s,
        r.sustained_tx_per_s,
        r.latency_ns.percentile(50.0),
        r.latency_ns.percentile(99.0),
        r.latency_ns.percentile(99.9),
    );
    Json::obj(vec![
        ("threads", (threads as u64).into()),
        ("txs", r.completed.into()),
        ("wall_ms", (r.wall_s * 1e3).into()),
        ("offered_tx_per_s", r.offered_tx_per_s.into()),
        ("sustained_tx_per_s", r.sustained_tx_per_s.into()),
        ("latency_ns", latency_summary(&r.latency_ns)),
    ])
}

/// The million-transaction determinism proof: synthesize once and
/// record the synthesis time and the fingerprint.
fn million_trace_section(smoke: bool) -> Json {
    let n: usize = if smoke { 50_000 } else { 1_000_000 };
    let cfg = scenarios::bursty_hot_migration();
    let t0 = Instant::now();
    let trace = synthesize(&cfg, n).expect("valid preset");
    let synth_s = t0.elapsed().as_secs_f64();
    let fingerprint = trace.fingerprint();
    println!("\ntrace determinism: {n} txs, synth {synth_s:.2}s, fingerprint {fingerprint}");
    Json::obj(vec![
        ("scenario", trace.scenario().into()),
        ("records", trace.n_records().into()),
        ("fingerprint", fingerprint.into()),
        ("synth_s", synth_s.into()),
    ])
}

fn main() {
    let args = HarnessArgs::parse();
    let smoke = args.smoke;
    // Per-cell record budgets: the simulator is ~10^4 cycles/tx so it
    // gets fewer records than the real-thread STM replay.
    let sim_limit: usize = if smoke { 300 } else { 3_000 };
    let stm_limit: usize = if smoke { 2_000 } else { 40_000 };
    // Smoke replays shrink the time scale so CI stays fast.
    let ns_per_tick: u64 = if smoke { 5 } else { NS_PER_TICK };
    let cpus = host_cpus();

    let mut report = RunReport::new("traffic");
    report.set_workers(*STM_THREADS.iter().max().expect("non-empty") as u64);
    report.set(
        "harness",
        Json::obj(vec![
            ("seed", scenarios::TRAFFIC_SEED.into()),
            ("scale", if smoke { "smoke" } else { "full" }.into()),
            ("sim_txs_per_cell", (sim_limit as u64).into()),
            ("stm_txs_per_cell", (stm_limit as u64).into()),
            ("cycles_per_tick", CYCLES_PER_TICK.into()),
            ("ns_per_tick", ns_per_tick.into()),
            (
                "sim_procs",
                Json::Arr(SIM_PROCS.iter().map(|&p| (p as u64).into()).collect()),
            ),
            (
                "stm_threads",
                Json::Arr(STM_THREADS.iter().map(|&t| (t as u64).into()).collect()),
            ),
        ]),
    );

    println!("production-traffic replay — {cpus} host CPU(s)");
    let mut scenarios_json: Vec<Json> = Vec::new();
    for cfg in scenarios::all() {
        if !args.selects(&cfg.scenario) {
            continue;
        }
        println!("\n{}", cfg.scenario);
        let trace = synthesize(&cfg, sim_limit.max(stm_limit)).expect("valid preset");
        let sim_points: Vec<Json> = SIM_PROCS
            .iter()
            .map(|&procs| sim_cell(&trace, procs, sim_limit))
            .collect();
        let stm_points: Vec<Json> = STM_THREADS
            .iter()
            .map(|&threads| stm_cell(&trace, threads, ns_per_tick, stm_limit))
            .collect();
        scenarios_json.push(Json::obj(vec![
            ("scenario", cfg.scenario.as_str().into()),
            ("trace_fingerprint", trace.fingerprint().into()),
            ("simulator", Json::Arr(sim_points)),
            ("stm", Json::Arr(stm_points)),
        ]));
    }
    report.set("scenarios", Json::Arr(scenarios_json));
    report.set("trace", million_trace_section(smoke));
    write_report(&report);
}
