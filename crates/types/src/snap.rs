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
//! * **Deterministic bytes.** `HashMap`/`HashSet` encode their entries
//!   sorted by key, the same bytes as the sorted `BTreeMap`/`BTreeSet`,
//!   so identical state always produces identical snapshot bytes.
//! * **One declaration per type.** A record whose encoding is its
//!   fields in order declares the list once with
//!   [`snap_fields!`](crate::snap_fields); an enum whose encoding is a
//!   position tag and then the variant's fields declares it once with
//!   [`snap_variants!`](crate::snap_variants). The list order is the
//!   format.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::hash::{BuildHasher, Hash};

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

    /// Writes an optional part of a larger state: a presence flag, then
    /// the part through `save`. [`SnapReader::restore_present`] reads it
    /// back.
    pub fn save_present<T>(&mut self, part: Option<&T>, save: impl FnOnce(&T, &mut SnapWriter)) {
        self.put(&part.is_some());
        if let Some(part) = part {
            save(part, self);
        }
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

    /// Reads a part written by [`SnapWriter::save_present`] into the
    /// part this machine was built with, through `restore`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Invalid`] naming `what` when the snapshot and the
    /// machine disagree on whether the part exists; otherwise the
    /// decode failure of the flag or of `restore`.
    pub fn restore_present<T>(
        &mut self,
        what: &'static str,
        part: Option<&mut T>,
        restore: impl FnOnce(&mut T, &mut SnapReader<'a>) -> Result<(), SnapError>,
    ) -> Result<(), SnapError> {
        match (self.get::<bool>()?, part) {
            (true, Some(part)) => restore(part, self),
            (false, None) => Ok(()),
            (saved, _) => Err(SnapError::invalid(
                what,
                if saved {
                    "the snapshot has it, the config does not"
                } else {
                    "the config has it, the snapshot does not"
                },
            )),
        }
    }

    /// Capacity to reserve for `n` decoded elements of `T`: no more
    /// memory than the bytes left in the stream, so a forged length
    /// cannot make a container reserve more than the snapshot holds
    /// (elements past it are pushed as they actually decode).
    fn capacity_for<T>(&self, n: usize) -> usize {
        n.min(self.remaining() / std::mem::size_of::<T>().max(1))
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

/// Implements [`Snap`] for a struct whose encoding is its fields in
/// order. `save` writes the listed fields in list order; `load` reads
/// them back into a struct literal, so a field missing from the list
/// fails to compile. Fields that are not state follow `skipped:` as a
/// struct-update base (`..base`) that `load` fills them from. A tuple
/// struct lists its field indices.
///
/// ```
/// use tcc_types::snap::{Snap, SnapReader, SnapWriter};
///
/// #[derive(Debug, Default, PartialEq)]
/// struct Window {
///     lo: u64,
///     hi: u64,
///     scratch: Vec<u8>,
/// }
/// tcc_types::snap_fields!(Window { lo, hi; skipped: Window::default() });
///
/// let mut w = SnapWriter::new();
/// Window { lo: 1, hi: 9, scratch: vec![7] }.save(&mut w);
/// let bytes = w.into_bytes();
/// assert_eq!(bytes.len(), 16);
/// let back: Window = SnapReader::new(&bytes).get().unwrap();
/// assert_eq!(back, Window { lo: 1, hi: 9, scratch: Vec::new() });
/// ```
#[macro_export]
macro_rules! snap_fields {
    ($ty:ident { $($field:tt),* $(,)? $(; skipped: $base:expr)? }) => {
        impl $crate::snap::Snap for $ty {
            fn save(&self, w: &mut $crate::snap::SnapWriter) {
                $($crate::snap::Snap::save(&self.$field, w);)*
            }
            fn load(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> ::std::result::Result<Self, $crate::snap::SnapError> {
                Ok($ty { $($field: r.get()?,)* $(..$base)? })
            }
        }
    };
}

/// Implements [`Snap`] for an enum whose encoding is a one-byte tag,
/// the variant's position in the list, followed by the variant's fields
/// in order. Tuple variants name a binding per field, struct variants
/// list their fields; every variant must appear, in declaration order.
/// An unknown tag loads as [`SnapError::Invalid`] naming the enum.
///
/// ```
/// use tcc_types::snap::{Snap, SnapReader, SnapWriter};
///
/// #[derive(Debug, PartialEq)]
/// enum Step {
///     Idle,
///     Move(u32, u32),
///     Wait { until: u64 },
/// }
/// tcc_types::snap_variants!(Step { Idle, Move(dx, dy), Wait { until } });
///
/// let mut w = SnapWriter::new();
/// Step::Move(3, 4).save(&mut w);
/// let bytes = w.into_bytes();
/// assert_eq!(bytes[0], 1);
/// assert_eq!(SnapReader::new(&bytes).get::<Step>().unwrap(), Step::Move(3, 4));
/// assert!(SnapReader::new(&[3]).get::<Step>().is_err());
/// ```
#[macro_export]
macro_rules! snap_variants {
    ($ty:ident $(<$($g:ident),+>)? {
        $($variant:ident $(($($bind:ident),+))? $({ $($field:ident),+ $(,)? })?),+ $(,)?
    }) => {
        const _: () = {
            /// Fieldless mirror of the enum: the discriminants are the tags.
            enum Tag {
                $($variant,)+
            }
            impl$(<$($g: $crate::snap::Snap),+>)? $crate::snap::Snap for $ty$(<$($g),+>)? {
                fn save(&self, w: &mut $crate::snap::SnapWriter) {
                    match self {
                        $(Self::$variant $(($($bind),+))? $({ $($field),+ })? => {
                            w.put(&(Tag::$variant as u8));
                            $($(w.put($bind);)+)?
                            $($(w.put($field);)+)?
                        })+
                    }
                }
                fn load(
                    r: &mut $crate::snap::SnapReader<'_>,
                ) -> ::std::result::Result<Self, $crate::snap::SnapError> {
                    let tag: u8 = r.get()?;
                    $(if tag == Tag::$variant as u8 {
                        $($(let $bind = r.get()?;)+)?
                        return Ok(Self::$variant $(($($bind),+))? $({ $($field: r.get()?),+ })?);
                    })+
                    Err($crate::snap::SnapError::invalid(
                        stringify!($ty),
                        format!("tag {tag}"),
                    ))
                }
            }
        };
    };
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
        let mut out = Vec::with_capacity(r.capacity_for::<T>(n));
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
        let mut out = VecDeque::with_capacity(r.capacity_for::<T>(n));
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

/// Entries sorted by key: the bytes of the equal `BTreeMap`.
impl<K: Snap + Ord + Hash, V: Snap, S: BuildHasher + Default> Snap for HashMap<K, V, S> {
    fn save(&self, w: &mut SnapWriter) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        (entries.len() as u64).save(w);
        for (k, v) in entries {
            k.save(w);
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.get_len(2)?;
        let mut out = HashMap::with_capacity_and_hasher(r.capacity_for::<(K, V)>(n), S::default());
        for _ in 0..n {
            let k = K::load(r)?;
            let v = V::load(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

/// Elements sorted: the bytes of the equal `BTreeSet`.
impl<T: Snap + Ord + Hash, S: BuildHasher + Default> Snap for HashSet<T, S> {
    fn save(&self, w: &mut SnapWriter) {
        let mut items: Vec<&T> = self.iter().collect();
        items.sort_unstable();
        (items.len() as u64).save(w);
        for v in items {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.get_len(1)?;
        let mut out = HashSet::with_capacity_and_hasher(r.capacity_for::<T>(n), S::default());
        for _ in 0..n {
            out.insert(T::load(r)?);
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

/// Nothing: a tag-only payload (the L1's ways) adds no bytes.
impl Snap for () {
    fn save(&self, _: &mut SnapWriter) {}
    fn load(_: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(())
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
use crate::wire::Frame;

snap_fields!(Cycle { 0 });
snap_fields!(NodeId { 0 });
snap_fields!(DirId { 0 });
snap_fields!(Tid { 0 });
snap_fields!(Addr { 0 });
snap_fields!(LineAddr { 0 });
snap_fields!(WordMask { 0 });

snap_fields!(LineValues { words });
snap_variants!(DataSource { Memory, Owner });

snap_fields!(Message { src, dst, payload });
snap_variants!(Frame {
    Data { seq, ack, msg },
    Ack { src, dst, ack },
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{Payload, ACK_KIND};
    use crate::rng::SmallRng;

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
