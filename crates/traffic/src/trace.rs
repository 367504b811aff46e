//! The compact versioned binary trace format, `tcc-traffic-trace/v1`.
//!
//! A million-user day is synthesized once, checked by checksum, and
//! replayed deterministically ever after — so the format optimizes for
//! small files, cheap sequential decode, and tamper evidence, and is
//! hand-rolled like the rest of the hermetic workspace:
//!
//! ```text
//! header  magic "TCCTRAF1" · version u16 · scenario (len u16 + utf8)
//!         seed u64 · n_keys u64 · n_records u64 · payload_len u64
//!         header_checksum u64 (FNV-1a over all preceding bytes)
//!         payload_checksum u64 (FNV-1a over the payload)
//! payload n_records × record
//! record  len varint · body
//! body    dt varint (ticks since previous record) · n_ops varint ·
//!         n_ops × op varint (key << 1 | is_write)
//! ```
//!
//! All integers little-endian; varints are LEB128. Timestamps are
//! delta-encoded against the *global* arrival order, which both
//! compresses well (arrivals are dense) and makes any reordering of
//! the stream detectable through the checksum.
//!
//! [`Trace::fingerprint`] digests every record *position-dependently*
//! but combines the per-record digests *commutatively*, so the value
//! does not depend on the order the records are folded in.

use tcc_types::hash::fnv1a;

use crate::shapes::{TrafficOp, TrafficTx};

/// Schema identifier recorded in run reports and golden files.
pub const TRACE_SCHEMA: &str = "tcc-traffic-trace/v1";

const MAGIC: &[u8; 8] = b"TCCTRAF1";
const VERSION: u16 = 1;

/// Why a byte stream is not a valid `tcc-traffic-trace/v1`.
///
/// Every way a trace file can be damaged — truncation, bit flips,
/// version skew, forged lengths — maps to a typed variant, so loaders
/// can distinguish "wrong file" from "corrupted file" and report the
/// exact corruption instead of panicking.
#[derive(Debug)]
pub enum TraceError {
    /// Reading the file itself failed.
    Io(std::io::Error),
    /// The magic bytes are not `TCCTRAF1`: not a trace at all.
    BadMagic,
    /// A trace, but from an unknown format revision.
    UnsupportedVersion { found: u16 },
    /// The stream ends mid-field; `what` names the field.
    Truncated { what: &'static str },
    /// The scenario-name field is not UTF-8.
    ScenarioName(std::str::Utf8Error),
    /// Stored vs computed header checksum disagree (header bit flip).
    HeaderChecksum { computed: u64, stored: u64 },
    /// Stored vs computed payload checksum disagree (payload bit flip).
    PayloadChecksum { computed: u64, stored: u64 },
    /// The header's payload length does not match the bytes present.
    PayloadLength { header: u64, actual: u64 },
    /// The header's record count does not match the decodable records.
    RecordCount { header: u64, found: u64 },
    /// A LEB128 varint ran past 64 bits.
    VarintOverflow,
    /// A record body decoded cleanly but left bytes over.
    TrailingBytes,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace io: {e}"),
            TraceError::BadMagic => write!(f, "bad magic: not a tcc-traffic-trace"),
            TraceError::UnsupportedVersion { found } => {
                write!(f, "unsupported trace version {found} (want {VERSION})")
            }
            TraceError::Truncated { what } => write!(f, "truncated {what}"),
            TraceError::ScenarioName(e) => write!(f, "scenario name is not utf-8: {e}"),
            TraceError::HeaderChecksum { computed, stored } => write!(
                f,
                "header checksum mismatch: computed {computed:016x}, stored {stored:016x}"
            ),
            TraceError::PayloadChecksum { computed, stored } => write!(
                f,
                "payload checksum mismatch: computed {computed:016x}, stored {stored:016x}"
            ),
            TraceError::PayloadLength { header, actual } => write!(
                f,
                "payload length mismatch: header says {header}, file has {actual}"
            ),
            TraceError::RecordCount { header, found } => write!(
                f,
                "record count mismatch: header says {header}, payload holds {found}"
            ),
            TraceError::VarintOverflow => write!(f, "varint overflows u64"),
            TraceError::TrailingBytes => write!(f, "trailing bytes in record body"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::ScenarioName(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> TraceError {
        TraceError::Io(e)
    }
}

/// SplitMix64 finalizer, used to de-correlate per-record digests
/// before the commutative fold.
#[inline]
#[must_use]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, TraceError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = bytes
            .get(*pos)
            .ok_or(TraceError::Truncated { what: "varint" })?;
        *pos += 1;
        if shift >= 64 {
            return Err(TraceError::VarintOverflow);
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Accumulates records into a payload; [`TraceWriter::finish`] seals
/// the header.
#[derive(Debug, Default)]
pub struct TraceWriter {
    payload: Vec<u8>,
    n_records: u64,
    last_at: u64,
    body: Vec<u8>,
}

impl TraceWriter {
    #[must_use]
    pub fn new() -> TraceWriter {
        TraceWriter::default()
    }

    /// Appends one transaction. Arrival ticks must be non-decreasing
    /// in call order (the synthesis stream is).
    ///
    /// # Panics
    ///
    /// Panics if `at` moves backwards.
    pub fn push(&mut self, at: u64, ops: &[TrafficOp]) {
        assert!(at >= self.last_at, "arrivals must be time-ordered");
        self.body.clear();
        push_varint(&mut self.body, at - self.last_at);
        push_varint(&mut self.body, ops.len() as u64);
        for op in ops {
            push_varint(&mut self.body, op.key() << 1 | u64::from(op.is_write()));
        }
        push_varint(&mut self.payload, self.body.len() as u64);
        self.payload.extend_from_slice(&self.body);
        self.last_at = at;
        self.n_records += 1;
    }

    /// Seals the trace: computes checksums and assembles the header.
    #[must_use]
    pub fn finish(self, scenario: &str, seed: u64, n_keys: u64) -> Trace {
        Trace {
            scenario: scenario.to_string(),
            seed,
            n_keys,
            n_records: self.n_records,
            payload_checksum: fnv1a(&self.payload),
            payload: self.payload,
        }
    }
}

/// A sealed, checksummed trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    scenario: String,
    seed: u64,
    n_keys: u64,
    n_records: u64,
    payload_checksum: u64,
    payload: Vec<u8>,
}

impl Trace {
    #[must_use]
    pub fn scenario(&self) -> &str {
        &self.scenario
    }

    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Logical key-space size the records address.
    #[must_use]
    pub fn n_keys(&self) -> u64 {
        self.n_keys
    }

    #[must_use]
    pub fn n_records(&self) -> u64 {
        self.n_records
    }

    /// FNV-1a checksum of the payload, as stored in the header.
    #[must_use]
    pub fn checksum(&self) -> u64 {
        self.payload_checksum
    }

    /// Encoded size in bytes (header + payload).
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        // magic + version + name len/bytes + 4×u64 + 2 checksums.
        8 + 2 + 2 + self.scenario.len() + 8 * 6 + self.payload.len()
    }

    /// Serializes header + payload.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.scenario.len() + self.payload.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        let name = self.scenario.as_bytes();
        out.extend_from_slice(
            &(u16::try_from(name.len()).expect("scenario name fits u16")).to_le_bytes(),
        );
        out.extend_from_slice(name);
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.n_keys.to_le_bytes());
        out.extend_from_slice(&self.n_records.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        let header_checksum = fnv1a(&out);
        out.extend_from_slice(&header_checksum.to_le_bytes());
        out.extend_from_slice(&self.payload_checksum.to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses and *verifies* a trace: magic, version, both checksums,
    /// and the record count must all hold before any record is
    /// decodable.
    ///
    /// # Errors
    ///
    /// Returns the first corruption found as a typed [`TraceError`];
    /// no input, however mangled, panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<Trace, TraceError> {
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], TraceError> {
            let s = bytes
                .get(
                    *pos..pos
                        .checked_add(n)
                        .ok_or(TraceError::Truncated { what: "header" })?,
                )
                .ok_or(TraceError::Truncated { what: "header" })?;
            *pos += n;
            Ok(s)
        };
        let read_u64 = |pos: &mut usize| -> Result<u64, TraceError> {
            Ok(u64::from_le_bytes(
                take(pos, 8)?.try_into().expect("8 bytes"),
            ))
        };
        let mut pos = 0usize;
        if take(&mut pos, 8)? != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = u16::from_le_bytes(take(&mut pos, 2)?.try_into().expect("2 bytes"));
        if version != VERSION {
            return Err(TraceError::UnsupportedVersion { found: version });
        }
        let name_len = u16::from_le_bytes(take(&mut pos, 2)?.try_into().expect("2 bytes")) as usize;
        let scenario = std::str::from_utf8(take(&mut pos, name_len)?)
            .map_err(TraceError::ScenarioName)?
            .to_string();
        let seed = read_u64(&mut pos)?;
        let n_keys = read_u64(&mut pos)?;
        let n_records = read_u64(&mut pos)?;
        let payload_len = read_u64(&mut pos)?;
        let header_checksum = fnv1a(&bytes[..pos]);
        let stored_header_checksum = read_u64(&mut pos)?;
        if header_checksum != stored_header_checksum {
            return Err(TraceError::HeaderChecksum {
                computed: header_checksum,
                stored: stored_header_checksum,
            });
        }
        let payload_checksum = read_u64(&mut pos)?;
        let payload = bytes
            .get(pos..)
            .filter(|p| p.len() as u64 == payload_len)
            .ok_or(TraceError::PayloadLength {
                header: payload_len,
                actual: bytes.len().saturating_sub(pos) as u64,
            })?
            .to_vec();
        let computed = fnv1a(&payload);
        if computed != payload_checksum {
            return Err(TraceError::PayloadChecksum {
                computed,
                stored: payload_checksum,
            });
        }
        let trace = Trace {
            scenario,
            seed,
            n_keys,
            n_records,
            payload_checksum,
            payload,
        };
        // Structural pass: every record must decode and the count must
        // match the header.
        let mut count = 0u64;
        for r in trace.raw_iter() {
            r?;
            count += 1;
        }
        if count != n_records {
            return Err(TraceError::RecordCount {
                header: n_records,
                found: count,
            });
        }
        Ok(trace)
    }

    /// Reads and verifies a trace file. I/O failures and every form of
    /// corruption come back as typed [`TraceError`] values.
    pub fn read_file(path: &std::path::Path) -> Result<Trace, TraceError> {
        Trace::from_bytes(&std::fs::read(path)?)
    }

    /// Iterates raw record bodies as `(index, body_bytes)`.
    pub fn raw_iter(&self) -> impl Iterator<Item = Result<(u64, &[u8]), TraceError>> + '_ {
        RawIter {
            payload: &self.payload,
            pos: 0,
            index: 0,
        }
    }

    /// Iterates decoded transactions in arrival order.
    ///
    /// Only call on a verified trace ([`Trace::from_bytes`] or a
    /// freshly written one); decode errors panic here because the
    /// structural pass already proved them impossible.
    pub fn iter(&self) -> impl Iterator<Item = TrafficTx> + '_ {
        let mut at = 0u64;
        self.raw_iter().map(move |r| {
            let (_, body) = r.expect("verified trace decodes");
            let (dt, ops) = decode_body(body).expect("verified trace decodes");
            at += dt;
            TrafficTx { at, ops }
        })
    }

    /// Position-dependent digest of record `index` with body `body`.
    #[must_use]
    pub fn record_digest(index: u64, body: &[u8]) -> u64 {
        mix64(fnv1a(body) ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Replay fingerprint: the commutative fold of every record's
    /// [`Trace::record_digest`] (wrapping sum ‖ xor, rendered as 32
    /// hex digits). Position-dependent per record, order-independent
    /// across records.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let (sum, xor) = self
            .raw_iter()
            .map(|r| {
                let (i, body) = r.expect("verified trace decodes");
                Self::record_digest(i, body)
            })
            .fold((0u64, 0u64), |(s, x), d| (s.wrapping_add(d), x ^ d));
        format!("{sum:016x}{xor:016x}")
    }
}

struct RawIter<'a> {
    payload: &'a [u8],
    pos: usize,
    index: u64,
}

impl<'a> Iterator for RawIter<'a> {
    type Item = Result<(u64, &'a [u8]), TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.payload.len() {
            return None;
        }
        let len = match read_varint(self.payload, &mut self.pos) {
            Ok(l) => l as usize,
            Err(e) => return Some(Err(e)),
        };
        let Some(body) = self
            .pos
            .checked_add(len)
            .and_then(|end| self.payload.get(self.pos..end))
        else {
            return Some(Err(TraceError::Truncated {
                what: "record body",
            }));
        };
        self.pos += len;
        let i = self.index;
        self.index += 1;
        Some(Ok((i, body)))
    }
}

/// Decodes one record body to `(dt, ops)`.
pub(crate) fn decode_body(body: &[u8]) -> Result<(u64, Vec<TrafficOp>), TraceError> {
    let mut pos = 0usize;
    let dt = read_varint(body, &mut pos)?;
    let n_ops = read_varint(body, &mut pos)? as usize;
    // Cap the preallocation by what the remaining bytes could possibly
    // encode (≥1 byte per op), so a forged count cannot balloon memory.
    let mut ops = Vec::with_capacity(n_ops.min(body.len().saturating_sub(pos)));
    for _ in 0..n_ops {
        let raw = read_varint(body, &mut pos)?;
        let key = raw >> 1;
        ops.push(if raw & 1 == 1 {
            TrafficOp::Write(key)
        } else {
            TrafficOp::Read(key)
        });
    }
    if pos != body.len() {
        return Err(TraceError::TrailingBytes);
    }
    Ok((dt, ops))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut w = TraceWriter::new();
        w.push(0, &[TrafficOp::Read(3), TrafficOp::Write(5)]);
        w.push(17, &[TrafficOp::Write(1 << 40)]);
        w.push(17, &[]);
        w.push(900, &[TrafficOp::Read(0)]);
        w.finish("unit", 42, 1 << 41)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample_trace();
        let bytes = t.to_bytes();
        let back = Trace::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(back, t);
        assert_eq!(back.scenario(), "unit");
        assert_eq!(back.seed(), 42);
        assert_eq!(back.n_records(), 4);
        let txs: Vec<TrafficTx> = back.iter().collect();
        assert_eq!(txs.len(), 4);
        assert_eq!(txs[0].at, 0);
        assert_eq!(txs[1].at, 17);
        assert_eq!(txs[1].ops, vec![TrafficOp::Write(1 << 40)]);
        assert_eq!(txs[2].at, 17);
        assert!(txs[2].ops.is_empty());
        assert_eq!(txs[3].at, 900);
    }

    #[test]
    fn corruption_is_detected() {
        let t = sample_trace();
        let good = t.to_bytes();

        // Flip one payload byte: payload checksum catches it.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(matches!(
            Trace::from_bytes(&bad).unwrap_err(),
            TraceError::PayloadChecksum { .. }
        ));

        // Flip a header byte (the seed): header checksum catches it.
        let mut bad = good.clone();
        bad[8 + 2 + 2 + 4] ^= 1; // inside the seed field of "unit"
        assert!(matches!(
            Trace::from_bytes(&bad).unwrap_err(),
            TraceError::HeaderChecksum { .. }
        ));

        // Truncate the payload: length check catches it.
        let mut bad = good.clone();
        bad.truncate(bad.len() - 2);
        assert!(matches!(
            Trace::from_bytes(&bad).unwrap_err(),
            TraceError::PayloadLength { .. }
        ));

        // Wrong magic.
        let mut bad = good;
        bad[0] = b'X';
        assert!(matches!(
            Trace::from_bytes(&bad).unwrap_err(),
            TraceError::BadMagic
        ));
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let t = sample_trace();
        assert_eq!(t.fingerprint(), t.fingerprint());
        let mut w = TraceWriter::new();
        w.push(0, &[TrafficOp::Read(3), TrafficOp::Write(5)]);
        w.push(17, &[TrafficOp::Write(1 << 40)]);
        w.push(17, &[]);
        w.push(900, &[TrafficOp::Read(1)]); // one key differs
        let other = w.finish("unit", 42, 1 << 41);
        assert_ne!(t.fingerprint(), other.fingerprint());
    }

    #[test]
    fn varints_roundtrip_extremes() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            buf.clear();
            push_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn time_ordering_is_enforced() {
        let mut w = TraceWriter::new();
        w.push(10, &[]);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| w.push(9, &[])));
        assert!(r.is_err(), "backwards arrival must panic");
    }
}
