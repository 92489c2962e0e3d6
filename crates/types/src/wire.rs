//! Dependency-free wire codec: the byte format protocol messages use to
//! cross process boundaries.
//!
//! The simulator runs in one address space and hands `Arc<M>` around, so
//! it never serializes a message. The TCP runtime in
//! `wamcast-net` needs real bytes, and the workspace builds offline with no
//! external dependencies, so the codec is hand-rolled: a tiny writer/reader
//! pair ([`WireWriter`] / [`WireReader`]), a [`Wire`] trait implemented by
//! every protocol message, and a versioned envelope ([`seal`] / [`open`])
//! that frames each datagram with `magic, version, arm-id` so peers reject
//! cross-version and cross-stack traffic instead of misparsing it.
//!
//! Design rules (see `DESIGN.md` §"Wire envelope"):
//!
//! * **Fixed-width little-endian integers.** No varints: messages are
//!   dominated by payload bytes, and fixed widths keep the golden corpus
//!   stable and the decoder branch-free.
//! * **Length-prefixed byte strings and sequences**, never delimiters —
//!   payloads are arbitrary bytes, so no sentinel is safe to reserve.
//! * **Every decode path returns [`WireError`]**; malformed input (truncated,
//!   trailing, hostile length claims) must never panic or over-allocate.
//!   Length claims are validated against the bytes actually remaining
//!   before any allocation happens.
//! * **Enums carry a leading tag byte**; unknown tags are errors, which is
//!   what makes the envelope version byte enforceable.
//!
//! # Example
//!
//! ```
//! use wamcast_types::wire::{open, seal, Wire, WireError};
//! use wamcast_types::{AppMessage, GroupSet, MessageId, Payload, ProcessId};
//!
//! let m = AppMessage::new(
//!     MessageId::new(ProcessId(3), 7),
//!     GroupSet::first_n(2),
//!     Payload::from(b"x=1".to_vec()),
//! );
//! // Raw codec round-trip.
//! assert_eq!(AppMessage::from_wire(&m.to_wire()).unwrap(), m);
//! // Envelope: arm id 4 must match on both sides.
//! let datagram = seal(4, &m);
//! assert_eq!(open::<AppMessage>(4, &datagram).unwrap(), m);
//! assert!(matches!(
//!     open::<AppMessage>(5, &datagram),
//!     Err(WireError::WrongArm { got: 4, want: 5 })
//! ));
//! ```

use crate::{AppMessage, GroupId, GroupSet, MessageId, Payload, ProcessId};
use std::fmt;
use std::sync::Arc;

/// First two bytes of every enveloped datagram.
pub const MAGIC: [u8; 2] = *b"WM";

/// Current wire-format version. Bump on any incompatible layout change;
/// the golden corpus test exists to make such changes loud.
pub const VERSION: u8 = 1;

/// Envelope length: magic (2) + version (1) + arm id (1).
pub const ENVELOPE_LEN: usize = 4;

/// Why a decode failed. Every malformed input maps here — never a panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value it claimed to hold.
    Truncated,
    /// Decoding succeeded but this many bytes were left over.
    Trailing(usize),
    /// The first two bytes were not [`MAGIC`].
    BadMagic([u8; 2]),
    /// The version byte did not match [`VERSION`]. There is no negotiation:
    /// a node speaks exactly one version and rejects everything else.
    BadVersion(u8),
    /// The envelope named a different protocol arm than this node hosts.
    WrongArm {
        /// Arm id carried by the datagram.
        got: u8,
        /// Arm id this node expected.
        want: u8,
    },
    /// An enum tag byte had no meaning for the named type.
    UnknownTag {
        /// The type being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A length prefix claimed more bytes than the input holds — rejected
    /// before allocating anything.
    TooLong {
        /// Length the prefix claimed.
        claimed: u64,
        /// Bytes actually remaining.
        available: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "input truncated"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after value"),
            WireError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::WrongArm { got, want } => {
                write!(f, "datagram for arm {got}, this node hosts arm {want}")
            }
            WireError::UnknownTag { what, tag } => {
                write!(f, "unknown tag {tag} while decoding {what}")
            }
            WireError::TooLong { claimed, available } => {
                write!(
                    f,
                    "length prefix claims {claimed} bytes, only {available} remain"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only byte sink the [`Wire`] encoders write into.
///
/// # Example
///
/// ```
/// use wamcast_types::wire::WireWriter;
/// let mut w = WireWriter::new();
/// w.u16(0x1234);
/// w.bytes(b"ab");
/// assert_eq!(w.finish(), vec![0x34, 0x12, 2, 0, 0, 0, b'a', b'b']);
/// ```
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        WireWriter { buf: Vec::new() }
    }

    /// An empty writer with `cap` bytes pre-reserved.
    pub fn with_capacity(cap: usize) -> Self {
        WireWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// A writer over a caller-owned buffer: clears `buf` (keeping its
    /// capacity) and appends into it. With [`Self::finish`] handing the
    /// buffer back, a hot loop encodes every frame into one allocation
    /// instead of one per frame — see [`seal_into`] for the pooled-envelope
    /// form. The encoding is byte-identical to a fresh writer's: clearing
    /// resets the length, and stale capacity is never observable.
    pub fn over(mut buf: Vec<u8>) -> Self {
        buf.clear();
        WireWriter { buf }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a bool as one byte, `0` or `1`.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a `u32` length prefix followed by the bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        debug_assert!(
            v.len() <= u32::MAX as usize,
            "byte string too long for wire"
        );
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends raw bytes with **no** length prefix (envelope header only).
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over received bytes the [`Wire`] decoders read from.
///
/// All getters return [`WireError::Truncated`] instead of panicking when the
/// input runs dry, and length prefixes are checked against the remaining
/// bytes before any allocation.
///
/// # Example
///
/// ```
/// use wamcast_types::wire::{WireError, WireReader};
/// let mut r = WireReader::new(&[7, 0]);
/// assert_eq!(r.u16().unwrap(), 7);
/// assert_eq!(r.u8(), Err(WireError::Truncated));
/// ```
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
}

impl<'a> WireReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads a bool byte; anything other than `0`/`1` is an error.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::UnknownTag { what: "bool", tag }),
        }
    }

    /// Reads a `u32`-length-prefixed byte string, borrowing from the input.
    /// Hostile length claims fail with [`WireError::TooLong`] before any
    /// allocation.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(WireError::TooLong {
                claimed: n as u64,
                available: self.remaining(),
            });
        }
        self.take(n)
    }

    /// Reads a `u32` element count for a sequence, validated against the
    /// remaining bytes (every element occupies at least one byte, so a
    /// count exceeding `remaining` is provably hostile).
    pub fn seq_len(&mut self) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(WireError::TooLong {
                claimed: n as u64,
                available: self.remaining(),
            });
        }
        Ok(n)
    }

    /// Succeeds only if every input byte was consumed.
    pub fn finish(self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::Trailing(self.buf.len()))
        }
    }
}

/// A value with a byte-level wire representation.
///
/// Implementations must be **total inverses**: `decode(encode(v)) == v` for
/// every value, and `decode` must map every malformed input to `Err` —
/// never panic, never allocate proportionally to a length claim the input
/// cannot back. The fuzz suite in `wamcast-harness` enforces both.
///
/// # Example
///
/// Implementing `Wire` for a two-field struct: encode fields in order,
/// decode them back in the same order (the `Vec`/`Option`/tuple impls
/// below compose the same way).
///
/// ```
/// use wamcast_types::wire::{Wire, WireError, WireReader, WireWriter};
///
/// #[derive(Debug, PartialEq)]
/// struct Ping { round: u64, urgent: bool }
///
/// impl Wire for Ping {
///     fn encode(&self, w: &mut WireWriter) {
///         w.u64(self.round);
///         w.bool(self.urgent);
///     }
///     fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
///         let round = r.u64()?;
///         let urgent = r.bool()?;
///         Ok(Ping { round, urgent })
///     }
/// }
///
/// let p = Ping { round: 7, urgent: true };
/// assert_eq!(Ping::from_wire(&p.to_wire()).unwrap(), p);
/// assert!(Ping::from_wire(&[0u8; 3]).is_err(), "truncated input is an Err");
/// ```
pub trait Wire: Sized {
    /// Appends this value's encoding to `w`.
    fn encode(&self, w: &mut WireWriter);

    /// Decodes one value from the front of `r`.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Encodes into a fresh buffer.
    fn to_wire(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.encode(&mut w);
        w.finish()
    }

    /// Decodes from a buffer, requiring every byte to be consumed.
    fn from_wire(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

/// Wraps a message in the versioned envelope: `magic, version, arm-id, body`.
pub fn seal<M: Wire>(arm: u8, msg: &M) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(ENVELOPE_LEN + 16);
    w.raw(&MAGIC);
    w.u8(VERSION);
    w.u8(arm);
    msg.encode(&mut w);
    w.finish()
}

/// [`seal`] into a caller-owned buffer: clears `buf` (keeping its capacity)
/// and writes `magic, version, arm-id, body` into it. The bytes produced
/// are identical to `seal(arm, msg)` — same writer, same write sequence —
/// so a pooled buffer can replace a fresh allocation anywhere without
/// changing what goes on the wire; the differential fuzz suite pins this.
///
/// # Example
///
/// ```
/// use wamcast_types::wire::{seal, seal_into};
/// let mut buf = vec![0xAA; 64]; // dirty, oversized — contents don't leak
/// seal_into(4, &7u64, &mut buf);
/// assert_eq!(buf, seal(4, &7u64));
/// ```
pub fn seal_into<M: Wire>(arm: u8, msg: &M, buf: &mut Vec<u8>) {
    let mut w = WireWriter::over(std::mem::take(buf));
    w.raw(&MAGIC);
    w.u8(VERSION);
    w.u8(arm);
    msg.encode(&mut w);
    *buf = w.finish();
}

/// Validates the envelope header and returns the arm id, leaving the body
/// unread. Used by hosts that must dispatch before decoding.
pub fn peek_arm(bytes: &[u8]) -> Result<u8, WireError> {
    if bytes.len() < ENVELOPE_LEN {
        return Err(WireError::Truncated);
    }
    if bytes[..2] != MAGIC {
        return Err(WireError::BadMagic([bytes[0], bytes[1]]));
    }
    if bytes[2] != VERSION {
        return Err(WireError::BadVersion(bytes[2]));
    }
    Ok(bytes[3])
}

/// Opens an enveloped datagram: checks magic, version and arm id, then
/// decodes the body, requiring every byte to be consumed.
pub fn open<M: Wire>(want_arm: u8, bytes: &[u8]) -> Result<M, WireError> {
    let got = peek_arm(bytes)?;
    if got != want_arm {
        return Err(WireError::WrongArm {
            got,
            want: want_arm,
        });
    }
    M::from_wire(&bytes[ENVELOPE_LEN..])
}

impl Wire for u64 {
    fn encode(&self, w: &mut WireWriter) {
        w.u64(*self);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.u64()
    }
}

impl Wire for i64 {
    fn encode(&self, w: &mut WireWriter) {
        w.u64(*self as u64);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(r.u64()? as i64)
    }
}

impl Wire for ProcessId {
    fn encode(&self, w: &mut WireWriter) {
        w.u32(self.0);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ProcessId(r.u32()?))
    }
}

impl Wire for GroupId {
    fn encode(&self, w: &mut WireWriter) {
        w.u16(self.0);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(GroupId(r.u16()?))
    }
}

/// The most groups wire v1 can address: destination sets travel as a
/// `u64` mask.
pub const MAX_GROUPS: usize = 64;

/// Wire v1 carries destination sets as a `u64` mask: the format predates
/// the 128-group in-memory mask, and the golden corpus pins the 8-byte
/// layout. The TCP runtime therefore speaks ≤[`MAX_GROUPS`]-group
/// topologies only — the 65..128-group range is a simulator-scale feature
/// (`scale_sweep`), which never serializes destination sets.
impl Wire for GroupSet {
    fn encode(&self, w: &mut WireWriter) {
        assert!(
            self.bits() >> MAX_GROUPS == 0,
            "wire v1 encodes at most 64 groups; {self} does not fit (bump VERSION to widen)"
        );
        w.u64(self.bits() as u64);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(GroupSet::from_bits(r.u64()? as u128))
    }
}

impl Wire for MessageId {
    fn encode(&self, w: &mut WireWriter) {
        self.origin.encode(w);
        w.u64(self.seq);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let origin = ProcessId::decode(r)?;
        let seq = r.u64()?;
        Ok(MessageId { origin, seq })
    }
}

impl Wire for Payload {
    fn encode(&self, w: &mut WireWriter) {
        w.bytes(self.as_slice());
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        // One copy, borrowed slice straight into the refcounted buffer —
        // `from(to_vec())` would copy twice (slice → Vec → Arc<[u8]>).
        Ok(Payload::copy_from_slice(r.bytes()?))
    }
}

impl Wire for AppMessage {
    fn encode(&self, w: &mut WireWriter) {
        self.id.encode(w);
        self.dest.encode(w);
        self.payload.encode(w);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let id = MessageId::decode(r)?;
        let dest = GroupSet::decode(r)?;
        let payload = Payload::decode(r)?;
        Ok(AppMessage { id, dest, payload })
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut WireWriter) {
        debug_assert!(
            self.len() <= u32::MAX as usize,
            "sequence too long for wire"
        );
        w.u32(self.len() as u32);
        for item in self {
            item.encode(w);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.seq_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

// Lives here rather than in downstream crates: `Arc` is not a fundamental
// type, so the orphan rule forbids e.g. `wamcast-core` from implementing a
// foreign trait for `Arc<Vec<MsgEntry>>`. Covers `SharedBatch<T>`.
impl<T: Wire> Wire for Arc<T> {
    fn encode(&self, w: &mut WireWriter) {
        T::encode(self, w);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Arc::new(T::decode(r)?))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.encode(w);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::UnknownTag {
                what: "Option",
                tag,
            }),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, w: &mut WireWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let a = A::decode(r)?;
        let b = B::decode(r)?;
        Ok((a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_msg() -> AppMessage {
        AppMessage::new(
            MessageId::new(ProcessId(9), 41),
            GroupSet::from_iter([GroupId(0), GroupId(3)]),
            Payload::from(b"hello".to_vec()),
        )
    }

    #[test]
    fn primitive_roundtrips() {
        let mut w = WireWriter::new();
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.bool(true);
        w.bytes(b"xyz");
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert!(r.bool().unwrap());
        assert_eq!(r.bytes().unwrap(), b"xyz");
        r.finish().unwrap();
    }

    #[test]
    fn message_roundtrip() {
        let m = sample_msg();
        assert_eq!(AppMessage::from_wire(&m.to_wire()).unwrap(), m);
    }

    #[test]
    fn container_roundtrips() {
        let v = vec![sample_msg(), sample_msg()];
        assert_eq!(Vec::<AppMessage>::from_wire(&v.to_wire()).unwrap(), v);
        let a = Arc::new(v);
        assert_eq!(Arc::<Vec<AppMessage>>::from_wire(&a.to_wire()).unwrap(), a);
        let some = Some(MessageId::new(ProcessId(1), 2));
        assert_eq!(
            Option::<MessageId>::from_wire(&some.to_wire()).unwrap(),
            some
        );
        let none: Option<MessageId> = None;
        assert_eq!(
            Option::<MessageId>::from_wire(&none.to_wire()).unwrap(),
            none
        );
    }

    #[test]
    fn truncation_is_an_error_at_every_prefix() {
        let bytes = sample_msg().to_wire();
        for cut in 0..bytes.len() {
            assert!(
                AppMessage::from_wire(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut bytes = sample_msg().to_wire();
        bytes.push(0);
        assert_eq!(AppMessage::from_wire(&bytes), Err(WireError::Trailing(1)));
    }

    #[test]
    fn hostile_length_claims_rejected_before_allocation() {
        // A Vec claiming u32::MAX elements backed by 4 bytes of input.
        let mut w = WireWriter::new();
        w.u32(u32::MAX);
        let bytes = w.finish();
        assert!(matches!(
            Vec::<AppMessage>::from_wire(&bytes),
            Err(WireError::TooLong { .. })
        ));
        // A byte string claiming more than remains.
        let mut w = WireWriter::new();
        w.u32(1000);
        w.raw(b"short");
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(r.bytes(), Err(WireError::TooLong { .. })));
    }

    #[test]
    fn envelope_round_trip_and_rejection() {
        let m = sample_msg();
        let dgram = seal(2, &m);
        assert_eq!(peek_arm(&dgram).unwrap(), 2);
        assert_eq!(open::<AppMessage>(2, &dgram).unwrap(), m);
        assert_eq!(
            open::<AppMessage>(1, &dgram),
            Err(WireError::WrongArm { got: 2, want: 1 })
        );

        let mut bad_magic = dgram.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            open::<AppMessage>(2, &bad_magic),
            Err(WireError::BadMagic(_))
        ));

        let mut bad_version = dgram.clone();
        bad_version[2] = VERSION + 1;
        assert_eq!(
            open::<AppMessage>(2, &bad_version),
            Err(WireError::BadVersion(VERSION + 1))
        );

        assert_eq!(peek_arm(&dgram[..3]), Err(WireError::Truncated));
    }

    #[test]
    fn seal_into_matches_seal_and_reuses_capacity() {
        let m = sample_msg();
        let fresh = seal(2, &m);
        // Dirty, oversized buffer: contents must not leak into the frame.
        let mut buf = vec![0xAA; 256];
        seal_into(2, &m, &mut buf);
        assert_eq!(buf, fresh);
        let cap = buf.capacity();
        seal_into(2, &m, &mut buf);
        assert_eq!(buf, fresh);
        assert_eq!(buf.capacity(), cap, "reuse must not reallocate");
        assert_eq!(open::<AppMessage>(2, &buf).unwrap(), m);
    }

    #[test]
    fn writer_over_clears_and_keeps_capacity() {
        let mut w = WireWriter::over(vec![1, 2, 3]);
        assert!(w.is_empty());
        w.u8(9);
        assert_eq!(w.finish(), vec![9]);
    }

    #[test]
    fn payload_decode_is_single_copy_equivalent() {
        let p = Payload::from(b"wire bytes".to_vec());
        let enc = p.to_wire();
        assert_eq!(Payload::from_wire(&enc).unwrap(), p);
        assert_eq!(Payload::copy_from_slice(b"wire bytes"), p);
    }

    #[test]
    fn bad_bool_and_option_tags() {
        let mut r = WireReader::new(&[9]);
        assert_eq!(
            r.bool(),
            Err(WireError::UnknownTag {
                what: "bool",
                tag: 9
            })
        );
        assert!(matches!(
            Option::<MessageId>::from_wire(&[7]),
            Err(WireError::UnknownTag { what: "Option", .. })
        ));
    }

    #[test]
    fn errors_display() {
        for e in [
            WireError::Truncated,
            WireError::Trailing(3),
            WireError::BadMagic([0, 1]),
            WireError::BadVersion(9),
            WireError::WrongArm { got: 1, want: 2 },
            WireError::UnknownTag {
                what: "x",
                tag: 255,
            },
            WireError::TooLong {
                claimed: 10,
                available: 1,
            },
        ] {
            assert!(!format!("{e}").is_empty());
        }
    }
}
