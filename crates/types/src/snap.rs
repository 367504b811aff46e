//! Minimal binary serialization for simulator state snapshots.
//!
//! The checkpoint/restore subsystem (`tcc-snapshot`, DESIGN.md §14)
//! needs every piece of live simulator state to round-trip through a
//! byte stream *exactly* — a resumed run must be bit-identical to the
//! uninterrupted one — and the workspace is hermetic (no serde). This
//! module is the hand-rolled substitute: a [`Snap`] trait with
//! little-endian, length-prefixed encodings for the primitives and
//! containers the simulator state is built from.
//!
//! Design rules:
//!
//! * **Fixed-width little-endian integers.** No varints: snapshot size
//!   is dominated by line values and queue payloads, and fixed widths
//!   keep the reader trivial to audit.
//! * **`usize` travels as `u64`** so snapshots are portable across
//!   word sizes.
//! * **Containers are `u64` length-prefixed.** The reader checks every
//!   length against the remaining buffer before allocating, so a
//!   corrupt or truncated snapshot fails with a typed [`SnapError`]
//!   instead of an OOM or a panic.
//! * **Deterministic bytes.** Encoders for unordered containers must
//!   sort before writing (the callers do this; `BTreeMap`/`BTreeSet`
//!   iterate sorted natively), so identical state always produces
//!   identical snapshot bytes.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Typed failure while decoding a snapshot byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The stream ended before `wanted` more bytes could be read.
    Truncated {
        /// Bytes the decoder needed.
        wanted: usize,
        /// Bytes left in the stream.
        have: usize,
    },
    /// A decoded value was structurally invalid for its target type.
    Invalid {
        /// What was being decoded.
        what: &'static str,
        /// Human-readable detail.
        detail: String,
    },
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Truncated { wanted, have } => {
                write!(f, "snapshot truncated: needed {wanted} bytes, {have} left")
            }
            SnapError::Invalid { what, detail } => {
                write!(f, "snapshot field {what} invalid: {detail}")
            }
        }
    }
}

impl std::error::Error for SnapError {}

impl SnapError {
    /// Convenience constructor for [`SnapError::Invalid`].
    #[must_use]
    pub fn invalid(what: &'static str, detail: impl Into<String>) -> SnapError {
        SnapError::Invalid {
            what,
            detail: detail.into(),
        }
    }
}

/// Append-only snapshot encoder.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// A fresh, empty writer.
    #[must_use]
    pub fn new() -> SnapWriter {
        SnapWriter::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes raw bytes verbatim (no length prefix).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes one value via its [`Snap`] impl.
    pub fn put<T: Snap>(&mut self, v: &T) {
        v.save(self);
    }
}

/// Cursor over an encoded snapshot.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader over `buf`, positioned at the start.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> SnapReader<'a> {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes left to read.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the whole stream has been consumed.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] if fewer than `n` bytes remain.
    pub fn take_raw(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated {
                wanted: n,
                have: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one value via its [`Snap`] impl.
    ///
    /// # Errors
    ///
    /// Propagates the decode failure.
    pub fn get<T: Snap>(&mut self) -> Result<T, SnapError> {
        T::load(self)
    }

    /// Reads a `u64` length prefix and sanity-checks it against the
    /// remaining bytes, assuming each element needs at least
    /// `min_elem_bytes` bytes. Guards container decoding against
    /// corrupt lengths that would otherwise drive a huge allocation.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] when the declared length cannot fit in
    /// the remaining stream.
    pub fn get_len(&mut self, min_elem_bytes: usize) -> Result<usize, SnapError> {
        let n = u64::load(self)? as usize;
        let floor = n.saturating_mul(min_elem_bytes.max(1));
        if floor > self.remaining() {
            return Err(SnapError::Truncated {
                wanted: floor,
                have: self.remaining(),
            });
        }
        Ok(n)
    }
}

/// A type that can be saved to and loaded from a snapshot stream.
pub trait Snap: Sized {
    /// Appends this value's encoding to `w`.
    fn save(&self, w: &mut SnapWriter);
    /// Decodes one value from `r`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on truncated or invalid input.
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

macro_rules! int_snap_impls {
    ($($t:ty),*) => {$(
        impl Snap for $t {
            fn save(&self, w: &mut SnapWriter) {
                w.put_raw(&self.to_le_bytes());
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                let n = std::mem::size_of::<$t>();
                let raw = r.take_raw(n)?;
                let mut bytes = [0u8; std::mem::size_of::<$t>()];
                bytes.copy_from_slice(raw);
                Ok(<$t>::from_le_bytes(bytes))
            }
        }
    )*};
}

int_snap_impls!(u8, u16, u32, u64, u128, i64);

impl Snap for usize {
    fn save(&self, w: &mut SnapWriter) {
        (*self as u64).save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let v = u64::load(r)?;
        usize::try_from(v).map_err(|_| SnapError::invalid("usize", format!("{v} overflows usize")))
    }
}

impl Snap for bool {
    fn save(&self, w: &mut SnapWriter) {
        w.put_raw(&[u8::from(*self)]);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match u8::load(r)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::invalid("bool", format!("byte {b}"))),
        }
    }
}

/// `f64` travels as its raw bit pattern: exact, including NaN payloads.
impl Snap for f64 {
    fn save(&self, w: &mut SnapWriter) {
        self.to_bits().save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(f64::from_bits(u64::load(r)?))
    }
}

impl Snap for String {
    fn save(&self, w: &mut SnapWriter) {
        (self.len() as u64).save(w);
        w.put_raw(self.as_bytes());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.get_len(1)?;
        let raw = r.take_raw(n)?;
        String::from_utf8(raw.to_vec())
            .map_err(|e| SnapError::invalid("string", format!("not utf-8: {e}")))
    }
}

impl<T: Snap> Snap for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            None => false.save(w),
            Some(v) => {
                true.save(w);
                v.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(if bool::load(r)? {
            Some(T::load(r)?)
        } else {
            None
        })
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn save(&self, w: &mut SnapWriter) {
        (self.len() as u64).save(w);
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.get_len(1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn save(&self, w: &mut SnapWriter) {
        (self.len() as u64).save(w);
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.get_len(1)?;
        let mut out = VecDeque::with_capacity(n);
        for _ in 0..n {
            out.push_back(T::load(r)?);
        }
        Ok(out)
    }
}

impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn save(&self, w: &mut SnapWriter) {
        (self.len() as u64).save(w);
        for (k, v) in self {
            k.save(w);
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.get_len(2)?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::load(r)?;
            let v = V::load(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Snap + Ord> Snap for BTreeSet<T> {
    fn save(&self, w: &mut SnapWriter) {
        (self.len() as u64).save(w);
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.get_len(1)?;
        let mut out = BTreeSet::new();
        for _ in 0..n {
            out.insert(T::load(r)?);
        }
        Ok(out)
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap, D: Snap> Snap for (A, B, C, D) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
        self.3.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?, D::load(r)?))
    }
}

impl<T: Snap + Default + Copy, const N: usize> Snap for [T; N] {
    fn save(&self, w: &mut SnapWriter) {
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut out = [T::default(); N];
        for slot in &mut out {
            *slot = T::load(r)?;
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// Domain types. Newtypes encode as their inner integer; enums carry a
// one-byte tag in declaration order (`Payload`'s impl is generated from
// its declaration in `msg`). Changing an encoding is a snapshot format
// break — bump the container version in `tcc-snapshot`.
// ---------------------------------------------------------------------

use crate::addr::{Addr, LineAddr, WordMask};
use crate::ids::{Cycle, DirId, NodeId, Tid};
use crate::msg::{DataSource, LineValues, Message};
use crate::rng::SmallRng;
use crate::wire::Frame;

macro_rules! newtype_snap_impls {
    ($($t:ty => $inner:ty),*) => {$(
        impl Snap for $t {
            fn save(&self, w: &mut SnapWriter) {
                self.0.save(w);
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                Ok(Self(<$inner>::load(r)?))
            }
        }
    )*};
}

newtype_snap_impls!(
    Cycle => u64,
    NodeId => u16,
    DirId => u16,
    Tid => u64,
    Addr => u64,
    LineAddr => u64,
    WordMask => u64
);

impl Snap for LineValues {
    fn save(&self, w: &mut SnapWriter) {
        self.words.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(LineValues {
            words: Vec::load(r)?,
        })
    }
}

impl Snap for DataSource {
    fn save(&self, w: &mut SnapWriter) {
        let tag: u8 = match self {
            DataSource::Memory => 0,
            DataSource::Owner => 1,
        };
        tag.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match u8::load(r)? {
            0 => Ok(DataSource::Memory),
            1 => Ok(DataSource::Owner),
            t => Err(SnapError::invalid("DataSource", format!("tag {t}"))),
        }
    }
}

impl Snap for SmallRng {
    fn save(&self, w: &mut SnapWriter) {
        self.state().save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(SmallRng::from_state(<[u64; 4]>::load(r)?))
    }
}

impl Snap for Message {
    fn save(&self, w: &mut SnapWriter) {
        self.src.save(w);
        self.dst.save(w);
        self.payload.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Message {
            src: r.get()?,
            dst: r.get()?,
            payload: r.get()?,
        })
    }
}

impl Snap for Frame {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            Frame::Data { seq, ack, msg } => {
                0u8.save(w);
                seq.save(w);
                ack.save(w);
                msg.save(w);
            }
            Frame::Ack { src, dst, ack } => {
                1u8.save(w);
                src.save(w);
                dst.save(w);
                ack.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match u8::load(r)? {
            0 => Frame::Data {
                seq: r.get()?,
                ack: r.get()?,
                msg: r.get()?,
            },
            1 => Frame::Ack {
                src: r.get()?,
                dst: r.get()?,
                ack: r.get()?,
            },
            t => return Err(SnapError::invalid("Frame", format!("tag {t}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{Payload, ACK_KIND};

    fn round_trip<T: Snap + PartialEq + std::fmt::Debug>(v: &T) {
        let mut w = SnapWriter::new();
        v.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(&T::load(&mut r).unwrap(), v);
        assert!(r.is_done(), "decoder must consume exactly the encoding");
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(&0u8);
        round_trip(&u8::MAX);
        round_trip(&0xbeefu16);
        round_trip(&0xdead_beefu32);
        round_trip(&u64::MAX);
        round_trip(&u128::MAX);
        round_trip(&(-42i64));
        round_trip(&usize::MAX);
        round_trip(&true);
        round_trip(&false);
        round_trip(&2.5f64);
        round_trip(&f64::NAN.to_bits());
        round_trip(&"hello snapshot".to_string());
        round_trip(&String::new());
    }

    #[test]
    fn containers_round_trip() {
        round_trip(&vec![1u64, 2, 3]);
        round_trip(&Vec::<u64>::new());
        round_trip(&Some(7u32));
        round_trip(&None::<u32>);
        round_trip(&VecDeque::from(vec![9u8, 8, 7]));
        round_trip(&BTreeMap::from([
            (1u64, "a".to_string()),
            (2, "b".to_string()),
        ]));
        round_trip(&BTreeSet::from([3u64, 1, 2]));
        round_trip(&(1u64, true, "x".to_string()));
        round_trip(&[1u64, 2, 3, 4]);
        round_trip(&vec![(1u64, vec![Some(2u32), None])]);
    }

    #[test]
    fn truncated_input_is_a_typed_error() {
        let mut w = SnapWriter::new();
        0xdead_beef_dead_beefu64.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..5]);
        assert!(matches!(
            u64::load(&mut r),
            Err(SnapError::Truncated { wanted: 8, have: 5 })
        ));
    }

    #[test]
    fn corrupt_length_prefix_is_refused_without_allocating() {
        // A Vec claiming u64::MAX elements in an 8-byte stream.
        let mut w = SnapWriter::new();
        u64::MAX.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            Vec::<u64>::load(&mut r),
            Err(SnapError::Truncated { .. })
        ));
    }

    #[test]
    fn invalid_bool_and_utf8_are_typed_errors() {
        let mut r = SnapReader::new(&[7u8]);
        assert!(matches!(bool::load(&mut r), Err(SnapError::Invalid { .. })));
        let mut w = SnapWriter::new();
        2u64.save(&mut w);
        w.put_raw(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            String::load(&mut r),
            Err(SnapError::Invalid { .. })
        ));
    }

    #[test]
    fn domain_types_round_trip() {
        round_trip(&Cycle(123));
        round_trip(&NodeId(7));
        round_trip(&DirId(3));
        round_trip(&Tid(99));
        round_trip(&Addr(0x1040));
        round_trip(&LineAddr(0x82));
        round_trip(&WordMask(0b1011));
        round_trip(&LineValues {
            words: vec![None, Some(Tid(4)), Some(Tid(0))],
        });
        round_trip(&DataSource::Memory);
        round_trip(&DataSource::Owner);
        let rng = {
            let mut r = SmallRng::seed_from_u64(42);
            r.next_u64();
            r
        };
        round_trip(&rng);
        for p in crate::msg::tests::every_kind() {
            let mut w = SnapWriter::new();
            p.save(&mut w);
            let bytes = w.into_bytes();
            assert_eq!(usize::from(bytes[0]), p.kind_index(), "{}", p.kind_name());
            let mut r = SnapReader::new(&bytes);
            assert_eq!(Payload::load(&mut r).unwrap(), p, "{}", p.kind_name());
            assert!(r.is_done());
        }
        let m = Message::new(NodeId(1), NodeId(2), Payload::Skip { tid: Tid(7) });
        let frames = vec![
            Frame::Data {
                seq: 3,
                ack: 1,
                msg: m.clone(),
            },
            Frame::Ack {
                src: NodeId(2),
                dst: NodeId(1),
                ack: 4,
            },
        ];
        for f in &frames {
            let mut w = SnapWriter::new();
            f.save(&mut w);
            let bytes = w.into_bytes();
            let mut r = SnapReader::new(&bytes);
            assert_eq!(&Frame::load(&mut r).unwrap(), f);
            assert!(r.is_done());
        }
        let mut w = SnapWriter::new();
        m.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(Message::load(&mut r).unwrap(), m);
    }

    /// Pins the format, not just self-consistency: a kind or field moved
    /// in `Payload`'s declaration still round-trips but changes these
    /// bytes. The value was taken from the hand-written encoder the
    /// generated one replaced.
    #[test]
    fn every_payload_kind_encodes_to_pinned_bytes() {
        let mut w = SnapWriter::new();
        for p in crate::msg::tests::every_kind() {
            p.save(&mut w);
        }
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 703);
        assert_eq!(crate::hash::fnv1a(&bytes), 0xa3ab_a470_b2aa_ed3b);
    }

    #[test]
    fn unknown_payload_tags_are_typed_errors() {
        for tag in [ACK_KIND as u8, u8::MAX] {
            let bytes = [tag];
            let mut r = SnapReader::new(&bytes);
            assert!(
                matches!(
                    Payload::load(&mut r),
                    Err(SnapError::Invalid {
                        what: "Payload",
                        ..
                    })
                ),
                "tag {tag}"
            );
        }
    }

    #[test]
    fn identical_values_produce_identical_bytes() {
        let v = BTreeMap::from([(2u64, vec![1u8, 2]), (1, vec![3])]);
        let enc = |m: &BTreeMap<u64, Vec<u8>>| {
            let mut w = SnapWriter::new();
            m.save(&mut w);
            w.into_bytes()
        };
        assert_eq!(enc(&v), enc(&v.clone()));
    }
}
