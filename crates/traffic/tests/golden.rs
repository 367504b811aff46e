//! Golden-trace gate: a small checked-in trace whose bytes, checksum,
//! and replay fingerprint are pinned. CI replays it on every push; any
//! drift in the format, the samplers, or the stream-derivation rule
//! trips this suite. Run the `#[ignore]`d regeneration test after an
//! *intentional* format change and commit the refreshed files.

use std::path::PathBuf;

use tcc_traffic::{scenarios, synthesize, Trace};

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
fn golden_trace_bytes_are_pinned() {
    let bytes = std::fs::read(golden_dir().join("bursty-hot-migration.trace"))
        .expect("golden trace file is committed");
    let want = synthesize(&golden_trace(), GOLDEN_RECORDS).expect("valid preset");
    assert_eq!(
        bytes,
        want.to_bytes(),
        "synthesis no longer reproduces the committed golden trace — \
         if the format change is intentional, rerun the regenerate test"
    );
}

#[test]
fn golden_trace_verifies_and_matches_expectations() {
    let bytes = std::fs::read(golden_dir().join("bursty-hot-migration.trace"))
        .expect("golden trace file is committed");
    let trace = Trace::from_bytes(&bytes).expect("checksum + structural verification");
    let expect = expectations();
    assert_eq!(trace.scenario(), expect["scenario"]);
    assert_eq!(trace.n_records().to_string(), expect["n_records"]);
    assert_eq!(format!("{:016x}", trace.checksum()), expect["checksum"]);
    assert_eq!(trace.fingerprint(), expect["fingerprint"]);
}

/// Regenerates the golden files. Ignored in normal runs; invoke with
/// `cargo test -p tcc-traffic --test golden -- --ignored` after an
/// intentional format change, then commit the diff.
#[test]
#[ignore = "regenerates committed golden files"]
fn regenerate_golden_files() {
    let trace = synthesize(&golden_trace(), GOLDEN_RECORDS).expect("valid preset");
    let dir = golden_dir();
    std::fs::create_dir_all(&dir).expect("golden dir");
    std::fs::write(dir.join("bursty-hot-migration.trace"), trace.to_bytes()).expect("write trace");
    let expect = format!(
        "# Pinned expectations for the golden traffic trace.\n\
         # Regenerate with: cargo test -p tcc-traffic --test golden -- --ignored\n\
         scenario = {}\n\
         n_records = {}\n\
         checksum = {:016x}\n\
         fingerprint = {}\n",
        trace.scenario(),
        trace.n_records(),
        trace.checksum(),
        trace.fingerprint(),
    );
    std::fs::write(dir.join("bursty-hot-migration.expect"), expect).expect("write expectations");
}
