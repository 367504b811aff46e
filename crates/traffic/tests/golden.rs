//! Golden-trace gate: the scenario, record count and fingerprint of a
//! small synthesized trace are pinned in `golden/`. Any drift in the
//! record encoding, the samplers, or the stream-derivation rule trips
//! this suite. Run the `#[ignore]`d regeneration test after an
//! *intentional* change and commit the refreshed expectations.

use std::path::PathBuf;

use tcc_traffic::{scenarios, synthesize};

/// Records in the golden trace — small enough to keep the repo light,
/// large enough to exercise every record-level code path.
const GOLDEN_RECORDS: usize = 2_000;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden")
}

fn golden_trace() -> tcc_traffic::TrafficConfig {
    scenarios::bursty_hot_migration()
}

/// Parses the committed expectation file (`key = value` lines).
fn expectations() -> std::collections::HashMap<String, String> {
    let text = std::fs::read_to_string(golden_dir().join("bursty-hot-migration.expect"))
        .expect("golden expectation file is committed");
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (k, v) = l.split_once('=').expect("key = value line");
            (k.trim().to_string(), v.trim().to_string())
        })
        .collect()
}

#[test]
fn golden_trace_matches_expectations() {
    let trace = synthesize(&golden_trace(), GOLDEN_RECORDS).expect("valid preset");
    let expect = expectations();
    assert_eq!(trace.scenario(), expect["scenario"]);
    assert_eq!(trace.n_records().to_string(), expect["n_records"]);
    assert_eq!(
        trace.fingerprint(),
        expect["fingerprint"],
        "synthesis no longer reproduces the pinned golden trace — \
         if the change is intentional, rerun the regenerate test"
    );
}

/// Regenerates the golden expectations. Ignored in normal runs; invoke
/// with `cargo test -p tcc-traffic --test golden -- --ignored` after an
/// intentional change, then commit the diff.
#[test]
#[ignore = "regenerates the committed golden expectations"]
fn regenerate_golden_files() {
    let trace = synthesize(&golden_trace(), GOLDEN_RECORDS).expect("valid preset");
    let dir = golden_dir();
    std::fs::create_dir_all(&dir).expect("golden dir");
    let expect = format!(
        "# Pinned expectations for the golden traffic trace.\n\
         # Regenerate with: cargo test -p tcc-traffic --test golden -- --ignored\n\
         scenario = {}\n\
         n_records = {}\n\
         fingerprint = {}\n",
        trace.scenario(),
        trace.n_records(),
        trace.fingerprint(),
    );
    std::fs::write(dir.join("bursty-hot-migration.expect"), expect).expect("write expectations");
}
