//! The simulator workloads: volrend at 64 CPUs, full scale, on the TCC
//! backend with the classic engine (`sim-tcc`) and under the Tardis
//! backend (`sim-tardis`).
//!
//! A run simulates the same [`SEEDS_PER_ROUND`] programs round after
//! round until its time is up; each round generates, builds and runs
//! every program afresh, so every round yields one set-up time and one
//! run time, and the run reports their medians. Times are process CPU
//! seconds (see [`host::cpu_s`]); wall-clock figures are reported
//! beside them. With `--trace 1` the run takes turns, one round each,
//! between an untraced pass, a pass with the metrics-only tracer, a
//! pass with the serializability checker and, on `sim-tcc`, a pass on
//! the sharded engine with two workers, and reports the per-layer
//! metrics.

use std::ops::Range;
use std::time::Instant;

use tcc_core::{ParallelConfig, ProtocolKind, RunError, SimResult, Simulator, SystemConfig};
use tcc_trace::{Histogram, MetricsSnapshot, TraceConfig, Tracer};
use tcc_types::TrafficCategory;
use tcc_workloads::apps;

use crate::span::SpanLog;
use crate::{golden, host, median, ratio, Args, Metrics, Outcome, Workload};

/// Simulated processors.
pub const CPUS: usize = 64;

/// Consecutive program seeds simulated per round.
pub const SEEDS_PER_ROUND: u64 = 3;

/// The program seeds of run seed `run_seed`: disjoint across run seeds.
pub fn program_seeds(run_seed: u64) -> Range<u64> {
    let first = run_seed * SEEDS_PER_ROUND;
    first..first + SEEDS_PER_ROUND
}

/// The simulated machine of a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Machine {
    /// TCC on the classic engine.
    Classic,
    /// TCC on the sharded engine with two workers. Its results must
    /// equal the classic engine's.
    Par2,
    Tardis,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    Plain,
    Traced,
    Checked,
}

fn config(machine: Machine, pass: Pass) -> SystemConfig {
    let mut cfg = SystemConfig::with_procs(CPUS);
    match machine {
        Machine::Classic => {}
        Machine::Par2 => cfg.parallel = Some(ParallelConfig::with_workers(2)),
        Machine::Tardis => cfg.protocol = ProtocolKind::Tardis,
    }
    cfg.check_serializability = pass == Pass::Checked;
    cfg
}

/// One program, generated, built and run, with the wall and CPU clocks
/// read between those steps.
struct SeedRun {
    seed: u64,
    at: [Instant; 4],
    cpu: [f64; 4],
    build_allocs: u64,
    run_allocs: u64,
    result: Result<SimResult, RunError>,
    metrics: Option<MetricsSnapshot>,
}

impl SeedRun {
    fn cpu_s(&self, step: usize) -> f64 {
        self.cpu[step + 1] - self.cpu[step]
    }
}

fn simulate(machine: Machine, pass: Pass, seed: u64) -> SeedRun {
    let (t0, c0) = (Instant::now(), host::cpu_s());
    let programs = apps::volrend().generate(CPUS, seed);
    let (t1, c1, a1) = (Instant::now(), host::cpu_s(), host::allocs());
    let tracer = if pass == Pass::Traced {
        Tracer::new(&TraceConfig::metrics_only())
    } else {
        Tracer::disabled()
    };
    let sim = Simulator::builder(config(machine, pass))
        .programs(programs)
        .tracer(tracer.clone())
        .build()
        .expect("volrend at 64 CPUs is a valid machine");
    let (t2, c2, a2) = (Instant::now(), host::cpu_s(), host::allocs());
    let result = sim.try_run();
    let (t3, c3, a3) = (Instant::now(), host::cpu_s(), host::allocs());
    SeedRun {
        seed,
        at: [t0, t1, t2, t3],
        cpu: [c0, c1, c2, c3],
        build_allocs: a2 - a1,
        run_allocs: a3 - a2,
        result,
        metrics: tracer.take_report().map(|r| r.metrics),
    }
}

/// Per-round sums of one pass.
#[derive(Default)]
struct PassTimes {
    generate_s: Vec<f64>,
    build_s: Vec<f64>,
    run_s: Vec<f64>,
    run_wall_s: Vec<f64>,
    build_allocs: Vec<f64>,
    run_allocs: Vec<f64>,
}

impl PassTimes {
    fn setup_s(&self) -> Vec<f64> {
        self.generate_s
            .iter()
            .zip(&self.build_s)
            .map(|(g, b)| g + b)
            .collect()
    }
}

struct Bench {
    machine: Machine,
    seeds: Vec<u64>,
    /// Fingerprint each seed must reproduce: from the golden table,
    /// else the first one seen.
    expected: Vec<Option<&'static str>>,
    first_seen: Vec<Option<String>>,
    /// Checked runs the serializability checker rejected.
    unserializable: u64,
    /// The first rejection of a run that is exempt from failing.
    known_defect: Option<String>,
    out: Outcome,
    spans: Option<(SpanLog, usize)>,
    /// `(commits, makespan)` per program, from round 0 of the
    /// untraced pass.
    totals: Vec<(u64, u64)>,
    /// Round-0 results and tracer snapshots of the traced pass.
    traced: Vec<(SimResult, MetricsSnapshot)>,
    /// Peak resident memory after the first round, in MiB.
    first_round_rss_mb: Option<f64>,
}

impl Bench {
    /// Runs the passes one round each, in turn, until `seconds` are
    /// up (at least one round). Interleaving keeps drift in host speed
    /// out of the ratios between passes.
    fn rounds(&mut self, passes: &[(Machine, Pass)], seconds: f64) -> Vec<PassTimes> {
        let start = Instant::now();
        let mut times: Vec<PassTimes> = passes.iter().map(|_| PassTimes::default()).collect();
        let mut round = 0;
        while round == 0 || start.elapsed().as_secs_f64() < seconds {
            for (&(machine, pass), times) in passes.iter().zip(&mut times) {
                self.round(machine, pass, round, times);
            }
            if round == 0 {
                self.first_round_rss_mb = host::peak_rss_mb().ok();
            }
            round += 1;
        }
        times
    }

    /// Generates, builds, runs and checks every program once.
    fn round(&mut self, machine: Machine, pass: Pass, round: usize, times: &mut PassTimes) {
        let mut sums = [0.0; 6];
        for i in 0..self.seeds.len() {
            let run = simulate(machine, pass, self.seeds[i]);
            sums[0] += run.cpu_s(0);
            sums[1] += run.cpu_s(1);
            sums[2] += run.cpu_s(2);
            sums[3] += (run.at[3] - run.at[2]).as_secs_f64();
            sums[4] += run.build_allocs as f64;
            sums[5] += run.run_allocs as f64;
            let verify_start = Instant::now();
            self.verify(machine, pass, i, &run);
            if let Some((log, root)) = &mut self.spans {
                let label = format!("{machine:?} {pass:?} round {round}");
                let seed = log.push(
                    "seed",
                    format!("seed {} {label}", run.seed),
                    Some(*root),
                    run.at[0],
                    Instant::now(),
                );
                for (step, name) in ["generate", "build", "run"].into_iter().enumerate() {
                    log.push(
                        name,
                        label.clone(),
                        Some(seed),
                        run.at[step],
                        run.at[step + 1],
                    );
                }
                log.push("verify", label, Some(seed), verify_start, Instant::now());
            }
            if round == 0 && machine == self.machine {
                match (pass, run.result.ok(), run.metrics) {
                    (Pass::Plain, Some(r), _) => self.totals.push((r.commits, r.total_cycles)),
                    (Pass::Traced, Some(r), Some(m)) => self.traced.push((r, m)),
                    _ => {}
                }
            }
        }
        let [g, b, r, w, ba, ra] = sums;
        times.generate_s.push(g);
        times.build_s.push(b);
        times.run_s.push(r);
        times.run_wall_s.push(w);
        times.build_allocs.push(ba);
        times.run_allocs.push(ra);
    }

    /// Checks one simulator run: it finished, reproduced its seed's
    /// fingerprint, and (per pass) was serializable or kept the
    /// tracer's totals equal to the result's.
    fn verify(&mut self, machine: Machine, pass: Pass, i: usize, run: &SeedRun) {
        let what = format!("{machine:?} seed {} ({pass:?} pass)", run.seed);
        let r = match &run.result {
            Ok(r) => r,
            Err(e) => return self.out.check(false, || format!("{what}: stalled: {e}")),
        };
        let mut problems = Vec::new();
        let fp = r.fingerprint();
        let want = match self.expected[i] {
            Some(g) => g.to_string(),
            None => self.first_seen[i].get_or_insert_with(|| fp.clone()).clone(),
        };
        if fp != want {
            problems.push(format!("fingerprint {fp}, expected {want}"));
        }
        if pass == Pass::Checked && !matches!(r.serializability, Some(Ok(()))) {
            self.unserializable += 1;
            let verdict = format!("not serializable: {:?}", r.serializability);
            // Known defect: at full scale the Tardis backend fails the
            // checker on several apps (README.md, "Findings"). It is
            // reported as `checker.unserializable_runs`, not failed,
            // until the backend is fixed.
            if machine == Machine::Tardis {
                self.known_defect
                    .get_or_insert(format!("{what}: {verdict}"));
            } else {
                problems.push(verdict);
            }
        }
        if let Some(m) = &run.metrics {
            let dispatched = m.counter("engine.events_dispatched");
            if dispatched != r.events {
                problems.push(format!(
                    "tracer saw {dispatched} events, the result {}",
                    r.events
                ));
            }
            if machine != Machine::Tardis && m.counter("commit.count") != r.commits {
                problems.push(format!(
                    "tracer saw {} commits, the result {}",
                    m.counter("commit.count"),
                    r.commits
                ));
            }
        }
        self.out.check(problems.is_empty(), || {
            format!("{what}: {}", problems.join("; "))
        });
    }
}

pub fn run(args: &Args, workload: Workload) -> Outcome {
    let machine = match workload {
        Workload::SimTardis => Machine::Tardis,
        _ => Machine::Classic,
    };
    let seeds: Vec<u64> = program_seeds(args.seed).collect();
    let origin = Instant::now();
    let spans = args.trace.then(|| {
        let mut log = SpanLog::new(origin);
        let root = log.open("workload", workload.name().to_string(), None);
        (log, root)
    });
    let mut b = Bench {
        machine,
        expected: seeds
            .iter()
            .map(|&s| golden::fingerprint(s, machine == Machine::Tardis))
            .collect(),
        first_seen: vec![None; seeds.len()],
        unserializable: 0,
        known_defect: None,
        seeds,
        out: Outcome::default(),
        spans,
        totals: Vec::new(),
        traced: Vec::new(),
        first_round_rss_mb: None,
    };
    let golden_hits = b.expected.iter().filter(|e| e.is_some()).count();
    b.out.notes.push(format!(
        "program seeds {:?}: {golden_hits} with a recorded golden fingerprint",
        b.seeds
    ));

    let mut passes = vec![(machine, Pass::Plain)];
    if args.trace {
        passes.extend([(machine, Pass::Traced), (machine, Pass::Checked)]);
        if machine == Machine::Classic {
            passes.push((Machine::Par2, Pass::Plain));
        }
    }
    host::set_counting(args.trace);
    let times = b.rounds(&passes, args.seconds);
    host::set_counting(false);

    let mut m = Metrics::new();
    let plain = &times[0];
    let run_s = median(&plain.run_s);
    let wall_s = median(&plain.run_wall_s);
    m.insert("setup_s", median(&plain.setup_s()));
    m.insert("run_s", run_s);
    m.insert("wall.run_s", wall_s);
    if let Some(rss) = b.first_round_rss_mb {
        m.insert("peak_rss_mb", rss);
    }
    if b.totals.len() == b.seeds.len() {
        let commits = b.totals.iter().map(|t| t.0).sum::<u64>() as f64;
        m.insert("tx_per_s", commits / run_s);
        m.insert("wall.tx_per_s", commits / wall_s);
        m.insert(
            "sim_cycles",
            b.totals.iter().map(|t| t.1).sum::<u64>() as f64,
        );
    }
    b.out.notes.push(format!(
        "run_s per round (CPU s): {:.4?}; wall s: {:.4?}",
        plain.run_s, plain.run_wall_s
    ));
    if args.trace {
        let (traced, checked) = (&times[1], &times[2]);
        per_layer(&mut m, &b, plain);
        m.insert(
            "trace.overhead_frac",
            ratio(&traced.run_s, &plain.run_s) - 1.0,
        );
        m.insert(
            "checker.overhead_frac",
            ratio(&checked.run_s, &plain.run_s) - 1.0,
        );
        m.insert("checker.unserializable_runs", b.unserializable as f64);
        if let Some(par) = times.get(3) {
            m.insert(
                "par.slowdown_vs_classic",
                ratio(&par.run_wall_s, &plain.run_wall_s),
            );
            m.insert("par.run_allocs", median(&par.run_allocs));
        }
        b.out.notes.push(format!(
            "{} rounds of each pass; overheads are medians of per-round ratios",
            plain.run_s.len()
        ));
    }
    if let Some(first) = &b.known_defect {
        b.out.notes.push(format!(
            "known defect, not counted as failed: the checker rejected {} runs; first: {first}",
            b.unserializable
        ));
    }
    if let Some((log, root)) = b.spans.take() {
        let path = format!(".bench_spans/{}-seed{}.json", workload.name(), args.seed);
        b.out.notes.extend(log.finish(root, &path));
    }
    b.out.metrics = m;
    b.out
}

fn per_layer(m: &mut Metrics, b: &Bench, plain: &PassTimes) {
    m.insert("workloads.generate_s", median(&plain.generate_s));
    m.insert("core.build_s", median(&plain.build_s));
    m.insert("core.build_allocs", median(&plain.build_allocs));
    if b.traced.len() != b.seeds.len() {
        return; // a run stalled; it is already counted as failed
    }
    let results = || b.traced.iter().map(|(r, _)| r);
    let sum = |f: &dyn Fn(&SimResult) -> u64| results().map(f).sum::<u64>() as f64;
    let events = sum(&|r| r.events);
    m.insert("engine.events", events);
    m.insert(
        "engine.host_ns_per_event",
        median(&plain.run_s) * 1e9 / events,
    );

    m.insert(
        "network.remote_messages",
        sum(&|r| r.traffic.total_messages()),
    );
    m.insert("network.remote_bytes", sum(&|r| r.traffic.total_bytes()));
    for (name, cat) in [
        ("network.bytes.miss", TrafficCategory::Miss),
        ("network.bytes.writeback", TrafficCategory::WriteBack),
        ("network.bytes.commit", TrafficCategory::Commit),
        ("network.bytes.shared", TrafficCategory::Shared),
        ("network.bytes.overhead", TrafficCategory::Overhead),
    ] {
        m.insert(name, sum(&|r| r.traffic.bytes_in_category(cat)));
    }

    m.insert("cache.miss_cycles", sum(&|r| r.aggregate().cache_miss));
    let occupancy: Vec<u64> = results()
        .flat_map(|r| r.dir_occupancy.iter().copied())
        .collect();
    if !occupancy.is_empty() {
        m.insert(
            "directory.occupancy_mean",
            occupancy.iter().sum::<u64>() as f64 / occupancy.len() as f64,
        );
    }
    m.insert(
        "directory.working_set",
        sum(&|r| r.dir_working_set.iter().sum::<usize>() as u64),
    );

    let commits = sum(&|r| r.commits);
    let violations = sum(&|r| r.violations);
    m.insert("core.commit_cycles", sum(&|r| r.aggregate().commit));
    m.insert(
        "core.tid_wait_cycles",
        sum(&|r| r.proc_counters.iter().map(|c| c.tid_wait).sum()),
    );
    m.insert(
        "core.probe_wait_cycles",
        sum(&|r| r.proc_counters.iter().map(|c| c.probe_wait).sum()),
    );
    m.insert("core.violations", violations);
    m.insert("core.violation_cycles", sum(&|r| r.aggregate().violation));
    m.insert("core.useful_ratio", commits / (commits + violations));

    // Tracer-derived: absent (not zero) where the backend has no hook.
    let snapshots = || b.traced.iter().map(|(_, s)| s);
    for (metric, counter) in [
        ("network.messages", "net.messages"),
        ("directory.probes_deferred", "dir.probes_deferred"),
        ("directory.loads_stalled", "dir.loads_stalled"),
        ("directory.nstid_advances", "dir.nstid_advances"),
    ] {
        if snapshots().any(|s| s.counters.contains_key(counter)) {
            m.insert(
                metric,
                snapshots().map(|s| s.counter(counter)).sum::<u64>() as f64,
            );
        }
    }
    let merged = |name: &str| {
        snapshots()
            .filter_map(|s| s.histogram(name))
            .fold(None, |acc: Option<Histogram>, h| {
                let mut acc = acc.unwrap_or_default();
                acc.merge(h);
                Some(acc)
            })
    };
    if let Some(h) = merged("proc.miss_stall") {
        m.insert("cache.miss_stall_p99", h.percentile(99.0) as f64);
    }
    if let Some(h) = merged("commit.latency") {
        m.insert("commit.latency_p50", h.percentile(50.0) as f64);
        m.insert("commit.latency_p99", h.percentile(99.0) as f64);
    }
}

/// Prints the rows of `golden.rs` for run seeds `0..run_seeds`.
pub fn print_golden(run_seeds: u64) {
    let fingerprint = |machine, seed| match simulate(machine, Pass::Plain, seed).result {
        Ok(r) => r.fingerprint(),
        Err(e) => panic!("{machine:?} seed {seed} stalled: {e}"),
    };
    for seed in (0..run_seeds).flat_map(program_seeds) {
        let tcc = fingerprint(Machine::Classic, seed);
        let tardis = fingerprint(Machine::Tardis, seed);
        println!("    ({seed}, \"{tcc}\", \"{tardis}\"),");
    }
}
