//! Cross-crate integration tests: real application workloads through
//! the full simulator, with the serializability oracle on.

use scalable_tcc::prelude::*;

fn checked(n: usize) -> SystemConfig {
    SystemConfig {
        check_serializability: true,
        ..SystemConfig::with_procs(n)
    }
}

#[test]
fn every_application_runs_serializably_at_8_processors() {
    for app in apps::all() {
        let programs = app.generate_scaled(8, 1, Scale::Smoke);
        let expected: u64 = programs.iter().map(|p| p.transactions() as u64).sum();
        let r = Simulator::builder(checked(8))
            .programs(programs)
            .build()
            .expect("valid config")
            .run();
        assert_eq!(r.commits, expected, "{}: lost transactions", app.name);
        r.assert_serializable();
        assert!(r.instructions > 0, "{}: no instructions", app.name);
        for b in &r.breakdowns {
            assert_eq!(
                b.total(),
                r.total_cycles,
                "{}: breakdown must sum to the makespan",
                app.name
            );
        }
    }
}

#[test]
fn uniprocessor_runs_have_no_violations_and_tiny_commit_overhead() {
    // Figure 6's premise: with one processor nothing can conflict, and
    // the only TCC overhead is the (small) commit component.
    for app in apps::all() {
        let programs = app.generate_scaled(1, 2, Scale::Smoke);
        let r = Simulator::builder(checked(1))
            .programs(programs)
            .build()
            .expect("valid config")
            .run();
        assert_eq!(r.violations, 0, "{}: uniprocessor violation?!", app.name);
        let agg = r.aggregate();
        let commit_frac = agg.commit as f64 / agg.total() as f64;
        assert!(
            commit_frac < 0.10,
            "{}: uniprocessor commit overhead {commit_frac:.3} too large",
            app.name
        );
        r.assert_serializable();
    }
}

#[test]
fn application_runs_are_deterministic() {
    let app = apps::water_spatial();
    let run = || {
        let programs = app.generate_scaled(4, 9, Scale::Smoke);
        Simulator::builder(checked(4))
            .programs(programs)
            .build()
            .expect("valid config")
            .run()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.commits, b.commits);
    assert_eq!(a.violations, b.violations);
    assert_eq!(a.events, b.events);
    assert_eq!(a.traffic.total_bytes(), b.traffic.total_bytes());
    // Per-processor attribution must also be bit-identical, not just
    // the machine-wide totals (directories fan out invalidations in
    // deterministic line order).
    assert_eq!(format!("{:?}", a.breakdowns), format!("{:?}", b.breakdowns));
    assert_eq!(
        format!("{:?}", a.proc_counters),
        format!("{:?}", b.proc_counters)
    );
}

#[test]
fn scalable_beats_the_serialized_baseline_on_commit_bound_work() {
    // The paper's headline claim: parallel commit removes the
    // serialized-commit bottleneck. On a commit-intensive workload at
    // 16 processors, the small-scale baseline must be substantially
    // slower.
    let app = apps::volrend();
    let n = 16;
    let programs = app.generate_scaled(n, 4, Scale::Smoke);
    let scalable = Simulator::builder(SystemConfig::with_procs(n))
        .programs(programs.clone())
        .build()
        .expect("valid config")
        .run()
        .total_cycles;
    let serialized = Simulator::builder(SystemConfig::with_procs(n))
        .protocol(ProtocolKind::SerializedCommit)
        .programs(programs)
        .build()
        .expect("valid config")
        .run()
        .total_cycles;
    assert!(
        serialized as f64 > scalable as f64 * 1.5,
        "serialized {serialized} should be >1.5x scalable {scalable}"
    );
}

#[test]
fn speedup_improves_with_processors_for_scalable_apps() {
    // SPECjbb2000 is the paper's near-linear scaler; it must earn
    // monotone speedups across 1 -> 4 -> 16 processors even at smoke
    // scale.
    let app = apps::specjbb();
    let cycles: Vec<u64> = [1usize, 4, 16]
        .iter()
        .map(|&n| {
            let programs = app.generate_scaled(n, 5, Scale::Smoke);
            Simulator::builder(SystemConfig::with_procs(n))
                .programs(programs)
                .build()
                .expect("valid config")
                .run()
                .total_cycles
        })
        .collect();
    assert!(cycles[1] < cycles[0], "4p should beat 1p: {cycles:?}");
    assert!(cycles[2] < cycles[1], "16p should beat 4p: {cycles:?}");
    let speedup16 = cycles[0] as f64 / cycles[2] as f64;
    assert!(speedup16 > 6.0, "16p speedup {speedup16:.1} too low");
}

#[test]
fn link_latency_hurts_communication_bound_apps_more() {
    // Figure 8's shape: equake (remote-load bound) degrades far more
    // from slow links than swim (partitioned grid).
    let degradation = |app: &scalable_tcc::workloads::AppProfile| {
        let run = |lat: u64| {
            let mut cfg = SystemConfig::with_procs(16);
            cfg.network.link_latency = lat;
            let programs = app.generate_scaled(16, 6, Scale::Smoke);
            Simulator::builder(cfg)
                .programs(programs)
                .build()
                .expect("valid config")
                .run()
                .total_cycles as f64
        };
        run(8) / run(1)
    };
    let equake = degradation(&apps::equake());
    let swim = degradation(&apps::swim());
    assert!(
        equake > swim,
        "equake degradation {equake:.2} should exceed swim's {swim:.2}"
    );
    assert!(equake > 1.1, "equake should visibly degrade: {equake:.2}");
}

#[test]
fn radix_touches_every_directory_per_commit() {
    // Table 3's standout row: radix's write-set spans all directories.
    let n = 8;
    let programs = apps::radix().generate_scaled(n, 7, Scale::Smoke);
    let r = Simulator::builder(checked(n))
        .programs(programs)
        .build()
        .expect("valid config")
        .run();
    r.assert_serializable();
    let max_dirs = r.tx_chars.iter().map(|t| t.dirs_written).max().unwrap();
    assert_eq!(
        max_dirs as usize, n,
        "radix must write lines homed everywhere"
    );
}

#[test]
fn remote_traffic_categories_are_populated() {
    // Figure 9 needs all five categories; a water-spatial run at 8
    // processors produces misses, write-backs, commit traffic, control
    // overhead, and (via producer-consumer lines) owner forwards.
    use scalable_tcc::types::TrafficCategory;
    let programs = apps::water_nsquared().generate_scaled(8, 8, Scale::Smoke);
    let r = Simulator::builder(checked(8))
        .programs(programs)
        .build()
        .expect("valid config")
        .run();
    for c in [
        TrafficCategory::Miss,
        TrafficCategory::Commit,
        TrafficCategory::Overhead,
        TrafficCategory::WriteBack,
    ] {
        assert!(
            r.traffic.bytes_in_category(c) > 0,
            "category {c} should be populated"
        );
    }
}
