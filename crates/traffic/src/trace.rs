//! The in-memory trace and its fingerprint.
//!
//! Only synthesis writes a [`Trace`], and only the same process reads
//! it. Its records live in one buffer as the LEB128 bodies that
//! [`Trace::fingerprint`] digests, `dt · n_ops · n_ops × (key << 1 |
//! is_write)`, with `dt` the ticks since the previous arrival. That
//! keeps a 10⁶-record trace near 18 bytes per transaction; a
//! `Vec<TrafficTx>` takes 32 bytes per transaction plus 16 per op.

use tcc_types::hash::{fnv1a, mix64};

use crate::shapes::{TrafficOp, TrafficTx};

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads the varint at `*pos` and moves `*pos` past it. Only bytes
/// that [`push_varint`] wrote are ever read.
fn read_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let b = bytes[*pos];
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            break;
        }
    }
    v
}

/// A synthesized traffic trace: its scenario and key space, and its
/// records in arrival order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    scenario: String,
    n_keys: u64,
    last_at: u64,
    payload: Vec<u8>,
}

impl Trace {
    /// An empty trace of `scenario` over `n_keys` logical keys.
    #[must_use]
    pub fn new(scenario: &str, n_keys: u64) -> Trace {
        Trace {
            scenario: scenario.to_string(),
            n_keys,
            ..Trace::default()
        }
    }

    /// Appends one transaction arriving at tick `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the previous record's arrival.
    pub fn push(&mut self, at: u64, ops: &[TrafficOp]) {
        assert!(at >= self.last_at, "arrivals must be time-ordered");
        push_varint(&mut self.payload, at - self.last_at);
        push_varint(&mut self.payload, ops.len() as u64);
        for op in ops {
            push_varint(&mut self.payload, op.key() << 1 | u64::from(op.is_write()));
        }
        self.last_at = at;
    }

    #[must_use]
    pub fn scenario(&self) -> &str {
        &self.scenario
    }

    /// Logical key-space size the records address.
    #[must_use]
    pub fn n_keys(&self) -> u64 {
        self.n_keys
    }

    /// Number of records, counted by walking the payload.
    #[must_use]
    pub fn n_records(&self) -> u64 {
        self.bodies().count() as u64
    }

    /// Record bodies in arrival order.
    fn bodies(&self) -> impl Iterator<Item = &[u8]> + '_ {
        let mut pos = 0;
        std::iter::from_fn(move || {
            let start = pos;
            (start < self.payload.len()).then(|| {
                read_varint(&self.payload, &mut pos);
                for _ in 0..read_varint(&self.payload, &mut pos) {
                    read_varint(&self.payload, &mut pos);
                }
                &self.payload[start..pos]
            })
        })
    }

    /// Decoded transactions in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = TrafficTx> + '_ {
        let mut at = 0u64;
        self.bodies().map(move |body| {
            let mut pos = 0;
            at += read_varint(body, &mut pos);
            let n_ops = read_varint(body, &mut pos);
            let ops = (0..n_ops)
                .map(|_| {
                    let raw = read_varint(body, &mut pos);
                    if raw & 1 == 1 {
                        TrafficOp::Write(raw >> 1)
                    } else {
                        TrafficOp::Read(raw >> 1)
                    }
                })
                .collect();
            TrafficTx { at, ops }
        })
    }

    /// The trace's fingerprint, 32 hex digits: the wrapping sum and the
    /// xor of one digest per record, `mix64(fnv1a(body) ^ index · φ)`.
    /// Goldens pin it for the synthesis of every preset.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let (sum, xor) = (0u64..)
            .zip(self.bodies())
            .map(|(i, body)| mix64(fnv1a(body) ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            .fold((0u64, 0u64), |(s, x), d| (s.wrapping_add(d), x ^ d));
        format!("{sum:016x}{xor:016x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scenarios, synthesize};

    fn sample_trace() -> Trace {
        let mut t = Trace::new("unit", 1 << 41);
        t.push(0, &[TrafficOp::Read(3), TrafficOp::Write(5)]);
        t.push(17, &[TrafficOp::Write(1 << 40)]);
        t.push(17, &[]);
        t.push(900, &[TrafficOp::Read(0)]);
        t
    }

    #[test]
    fn push_then_iter_returns_what_was_pushed() {
        let t = sample_trace();
        assert_eq!((t.scenario(), t.n_keys()), ("unit", 1 << 41));
        assert_eq!(t.n_records(), 4);
        let txs: Vec<TrafficTx> = t.iter().collect();
        let at: Vec<u64> = txs.iter().map(|tx| tx.at).collect();
        assert_eq!(at, [0, 17, 17, 900]);
        assert_eq!(txs[0].ops, [TrafficOp::Read(3), TrafficOp::Write(5)]);
        assert_eq!(txs[1].ops, [TrafficOp::Write(1 << 40)]);
        assert!(txs[2].ops.is_empty());
        assert_eq!(txs[3].ops, [TrafficOp::Read(0)]);

        // A first arrival at u64::MAX is a ten-byte delta varint.
        let mut far = Trace::new("far", 1);
        far.push(u64::MAX, &[]);
        let tx = far.iter().next().expect("one record");
        assert_eq!((tx.at, tx.ops.len()), (u64::MAX, 0));
    }

    #[test]
    fn varints_roundtrip_extremes() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            buf.clear();
            push_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let t = sample_trace();
        assert_eq!(t.fingerprint(), t.fingerprint());
        let mut other = Trace::new("unit", 1 << 41);
        other.push(0, &[TrafficOp::Read(3), TrafficOp::Write(5)]);
        other.push(17, &[TrafficOp::Write(1 << 40)]);
        other.push(17, &[]);
        other.push(900, &[TrafficOp::Read(1)]); // one key differs
        assert_ne!(t.fingerprint(), other.fingerprint());
    }

    #[test]
    fn time_ordering_is_enforced() {
        let mut t = Trace::new("unit", 1);
        t.push(10, &[]);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.push(9, &[])));
        assert!(r.is_err(), "backwards arrival must panic");
    }

    #[test]
    fn records_stay_compact() {
        let t = synthesize(&scenarios::bursty_hot_migration(), 2_000).expect("valid preset");
        assert_eq!(t.n_records(), 2_000);
        assert!(
            t.payload.len() <= 20 * 2_000,
            "{} payload bytes for 2,000 records",
            t.payload.len()
        );
    }
}
