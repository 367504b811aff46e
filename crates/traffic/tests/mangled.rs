//! Adversarial decode tests for `tcc-traffic-trace/v1`.
//!
//! The loader's contract: *no* byte stream panics, and every kind of
//! damage — truncation anywhere, bit flips anywhere, forged headers
//! with recomputed checksums — yields the matching typed
//! [`TraceError`].

use tcc_traffic::trace::{TraceError, TraceWriter};
use tcc_traffic::{Trace, TrafficOp};
use tcc_types::hash::fnv1a;

fn sample() -> Trace {
    let mut w = TraceWriter::new();
    for i in 0..40u64 {
        let ops = vec![
            TrafficOp::Read(i % 7),
            TrafficOp::Write((i * 13) % 64),
            TrafficOp::Read(i << 20),
        ];
        w.push(i * 3, &ops);
    }
    w.finish("mangled-suite", 9, 1 << 30)
}

/// Rebuilds a trace byte stream from parts, recomputing both checksums
/// so damage *past* the checksum layer is reachable.
fn forge(scenario: &str, seed: u64, n_keys: u64, n_records: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"TCCTRAF1");
    out.extend_from_slice(&1u16.to_le_bytes());
    out.extend_from_slice(&(scenario.len() as u16).to_le_bytes());
    out.extend_from_slice(scenario.as_bytes());
    out.extend_from_slice(&seed.to_le_bytes());
    out.extend_from_slice(&n_keys.to_le_bytes());
    out.extend_from_slice(&n_records.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    let hc = fnv1a(&out);
    out.extend_from_slice(&hc.to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Extracts the payload bytes of a well-formed trace stream.
fn payload_of(bytes: &[u8], scenario_len: usize) -> &[u8] {
    &bytes[8 + 2 + 2 + scenario_len + 8 * 6..]
}

#[test]
fn truncation_at_every_byte_is_a_typed_error_never_a_panic() {
    let good = sample().to_bytes();
    for cut in 0..good.len() {
        match Trace::from_bytes(&good[..cut]) {
            Ok(_) => panic!("truncation to {cut}/{} bytes decoded", good.len()),
            Err(
                TraceError::Truncated { .. }
                | TraceError::BadMagic
                | TraceError::HeaderChecksum { .. }
                | TraceError::PayloadLength { .. },
            ) => {}
            Err(other) => panic!("cut {cut}: unexpected error class: {other}"),
        }
    }
    assert!(Trace::from_bytes(&good).is_ok());
}

#[test]
fn single_bit_flips_are_always_detected() {
    let t = sample();
    let good = t.to_bytes();
    // Flip one bit in every byte; the checksums (or earlier structural
    // checks) must catch every single one.
    for i in 0..good.len() {
        let mut bad = good.clone();
        bad[i] ^= 1 << (i % 8);
        assert!(
            Trace::from_bytes(&bad).is_err(),
            "bit flip at byte {i} went undetected"
        );
    }
}

#[test]
fn version_skew_is_reported_as_such() {
    let mut bad = sample().to_bytes();
    bad[8] = 2; // version u16 LE lives right after the magic
    bad[9] = 0;
    assert!(matches!(
        Trace::from_bytes(&bad).unwrap_err(),
        TraceError::UnsupportedVersion { found: 2 }
    ));
}

#[test]
fn non_utf8_scenario_name_is_rejected() {
    let good = sample().to_bytes();
    let payload = payload_of(&good, "mangled-suite".len());
    // A forged header whose name bytes are invalid UTF-8, checksums
    // intact so the parser reaches the name decode.
    let mut out = Vec::new();
    out.extend_from_slice(b"TCCTRAF1");
    out.extend_from_slice(&1u16.to_le_bytes());
    out.extend_from_slice(&2u16.to_le_bytes());
    out.extend_from_slice(&[0xff, 0xfe]);
    out.extend_from_slice(&9u64.to_le_bytes());
    out.extend_from_slice(&(1u64 << 30).to_le_bytes());
    out.extend_from_slice(&40u64.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    let hc = fnv1a(&out);
    out.extend_from_slice(&hc.to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    assert!(matches!(
        Trace::from_bytes(&out).unwrap_err(),
        TraceError::ScenarioName(_)
    ));
}

#[test]
fn forged_record_count_is_caught_after_checksums_pass() {
    let good = sample().to_bytes();
    let payload = payload_of(&good, "mangled-suite".len()).to_vec();
    // 41 records claimed, 40 present — checksums all valid.
    let bad = forge("mangled-suite", 9, 1 << 30, 41, &payload);
    assert!(matches!(
        Trace::from_bytes(&bad).unwrap_err(),
        TraceError::RecordCount {
            header: 41,
            found: 40
        }
    ));
}

#[test]
fn forged_record_length_cannot_overflow_or_panic() {
    // A payload whose sole record claims a u64::MAX-byte body: the
    // length arithmetic must neither overflow nor allocate.
    let mut payload = vec![0xffu8; 9]; // LEB128 continuation bytes
    payload.push(0x01); // 10-byte varint = u64::MAX
    let bad = forge("len-forge", 0, 1, 1, &payload);
    assert!(matches!(
        Trace::from_bytes(&bad).unwrap_err(),
        TraceError::Truncated {
            what: "record body"
        }
    ));

    // An 11-byte varint overflows u64 outright.
    let mut payload = vec![0xff; 10];
    payload.push(0x01);
    let bad = forge("varint-forge", 0, 1, 1, &payload);
    assert!(matches!(
        Trace::from_bytes(&bad).unwrap_err(),
        TraceError::VarintOverflow
    ));
}

#[test]
fn io_errors_surface_as_typed_errors() {
    let err = Trace::read_file(std::path::Path::new(
        "/nonexistent/definitely/not/a/trace.bin",
    ))
    .unwrap_err();
    assert!(matches!(err, TraceError::Io(_)));
    // And a real file with garbage contents is BadMagic, not a panic.
    let dir = std::env::temp_dir().join("tcc-traffic-mangled-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("garbage.trace");
    std::fs::write(&path, b"not a trace at all").unwrap();
    assert!(matches!(
        Trace::read_file(&path).unwrap_err(),
        TraceError::BadMagic
    ));
    std::fs::remove_file(&path).ok();
}
