//! The ZeroSum wire protocol: length-prefixed, versioned binary frames.
//!
//! Every frame on the wire is `u32` big-endian payload length followed
//! by the payload: a 2-byte magic (`ZS`), a `u16` protocol version, a
//! `u32` FNV-1a checksum over the rest of the payload, a one-byte tag,
//! and the tag's fields. Integers are big-endian and fixed-width;
//! floats travel as their IEEE-754 bit patterns ([`f64::to_bits`]), so
//! a decoded aggregate is *bit-identical* to the encoded one — the
//! property the lossy-transport differential suite checks. Strings are
//! `u16` length + UTF-8 bytes.
//!
//! The checksum is load-bearing for the survivor differential: without
//! it, a single flipped byte inside an `f64` field would decode as a
//! valid-but-wrong aggregate and silently poison the allocation
//! summary. FNV-1a's byte mixing is invertible, so any single-byte
//! substitution is guaranteed to change the digest.
//!
//! The decoder is the collector's hostile-input boundary: frames arrive
//! truncated, corrupted, version-skewed, or cut mid-stream, and every
//! such shape must come back as a typed [`DecodeError`] — never a
//! panic. `decode_frame` is a panic-reachability audit root, so a
//! regression that introduces an `unwrap` or a raw slice index on this
//! path fails `zerosum audit`.

use std::fmt;
use zerosum_core::NodeAggregate;

/// Current protocol version. Bump deliberately: the golden fixtures
/// under `tests/fixtures/net/` pin the encoding byte-for-byte.
pub const PROTOCOL_VERSION: u16 = 1;

/// Leading magic bytes of every payload.
pub const MAGIC: [u8; 2] = *b"ZS";

/// Upper bound on a payload, bytes. A length prefix beyond this is a
/// corrupt or hostile frame, rejected before any allocation.
pub const MAX_PAYLOAD: usize = 64 * 1024;

/// Bytes of the length prefix preceding every payload.
pub const LEN_PREFIX: usize = 4;

/// Payload bytes before the checksummed region: magic (2) + version
/// (2) + checksum (4).
const CHECK_START: usize = 8;

/// FNV-1a 32-bit over `bytes` — the frame integrity digest.
pub(crate) fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Frame tags, one per [`Frame`] variant.
mod tag {
    pub const HELLO: u8 = 1;
    pub const HEARTBEAT: u8 = 2;
    pub const LWP_DETAIL: u8 = 3;
    pub const AGGREGATE: u8 = 4;
    pub const ACK: u8 = 5;
    // 6 was `Bye`, a shutdown frame no agent sent (a node's aggregate is
    // its last word): reserved, so an old peer's Bye is `UnknownTag`.
}

/// One protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Node → collector: opens (or re-opens, after a reconnect) a
    /// stream. Retransmitted every round until the collector answers
    /// with `Ack { round: 0 }`, so a dropped Hello cannot orphan a
    /// node's heartbeats.
    Hello {
        /// The sending node's hostname — the supervision key.
        hostname: String,
    },
    /// Node → collector: one liveness beat per monitoring round.
    Heartbeat {
        /// 1-based monitoring round on the sending node.
        round: u64,
        /// The node's reported sample time, seconds. Clock skew shows
        /// up as deviation from the collector's expected round time.
        t_s: f64,
    },
    /// Node → collector: per-LWP detail. The first thing an agent
    /// sheds when its send window fills — losing detail degrades the
    /// view, losing heartbeats kills the node.
    LwpDetail {
        /// Monitoring round the sample belongs to.
        round: u64,
        /// Thread id.
        tid: u32,
        /// Busy percentage over the round.
        busy_pct: f64,
    },
    /// Node → collector: the node's allocation-summary aggregate.
    /// Retransmitted until acked — this is the frame the survivor
    /// differential must deliver bit-identically.
    Aggregate {
        /// Final monitoring round the aggregate covers.
        round: u64,
        /// The per-node aggregate, exactly as computed node-side.
        agg: NodeAggregate,
    },
    /// Collector → node: acknowledges the Hello (`round == 0`) or an
    /// `Aggregate` up to and including `round`.
    Ack {
        /// 0 for Hello, else the acked aggregate round.
        round: u64,
    },
}

impl Frame {
    /// Short frame-kind name for stats and logs.
    pub fn kind(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "hello",
            Frame::Heartbeat { .. } => "heartbeat",
            Frame::LwpDetail { .. } => "lwp-detail",
            Frame::Aggregate { .. } => "aggregate",
            Frame::Ack { .. } => "ack",
        }
    }
}

/// A frame that could not be encoded (a field exceeds its wire width).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// A string field is longer than its `u16` length prefix allows.
    FieldTooLong {
        /// The offending field.
        field: &'static str,
        /// Its byte length.
        len: usize,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::FieldTooLong { field, len } => {
                write!(f, "field {field} is {len} bytes (max {})", u16::MAX)
            }
        }
    }
}

/// Why a byte buffer failed to decode as a frame. `Incomplete` means
/// the stream does not yet hold a whole frame (keep reading); every
/// other variant marks the buffer corrupt at its current position, and
/// a stream decoder should resynchronize by dropping it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Not enough bytes buffered yet: `need` total to proceed.
    Incomplete {
        /// Bytes available.
        have: usize,
        /// Bytes required before decoding can continue.
        need: usize,
    },
    /// The length prefix exceeds [`MAX_PAYLOAD`].
    TooLong {
        /// The claimed payload length.
        len: usize,
    },
    /// The payload does not start with [`MAGIC`].
    BadMagic {
        /// The bytes found instead.
        found: [u8; 2],
    },
    /// The frame's protocol version is not [`PROTOCOL_VERSION`].
    UnsupportedVersion {
        /// The version found on the wire.
        found: u16,
    },
    /// The payload checksum does not match — corruption in flight.
    BadChecksum {
        /// The digest the frame carries.
        carried: u32,
        /// The digest of the bytes as received.
        computed: u32,
    },
    /// Unknown frame tag.
    UnknownTag {
        /// The tag byte found.
        tag: u8,
    },
    /// The payload ended inside `field` — a truncated or corrupt frame.
    Truncated {
        /// The field being read when the payload ran out.
        field: &'static str,
    },
    /// The payload holds bytes past the end of the frame body.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// A string field is not valid UTF-8.
    BadUtf8 {
        /// The offending field.
        field: &'static str,
    },
}

impl DecodeError {
    /// True when the error only means "keep reading" in a stream
    /// context; false marks real corruption.
    pub fn is_incomplete(&self) -> bool {
        matches!(self, DecodeError::Incomplete { .. })
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Incomplete { have, need } => {
                write!(f, "incomplete frame: have {have} of {need} bytes")
            }
            DecodeError::TooLong { len } => {
                write!(f, "payload length {len} exceeds {MAX_PAYLOAD}")
            }
            DecodeError::BadMagic { found } => {
                write!(f, "bad magic {found:?} (want {MAGIC:?})")
            }
            DecodeError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported protocol version {found} (speak {PROTOCOL_VERSION})"
                )
            }
            DecodeError::BadChecksum { carried, computed } => {
                write!(f, "checksum mismatch: frame carries {carried:#010x}, bytes hash to {computed:#010x}")
            }
            DecodeError::UnknownTag { tag } => write!(f, "unknown frame tag {tag}"),
            DecodeError::Truncated { field } => write!(f, "payload truncated inside {field}"),
            DecodeError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after frame body")
            }
            DecodeError::BadUtf8 { field } => write!(f, "field {field} is not valid UTF-8"),
        }
    }
}

/// Appends the wire form of `frame` (length prefix included) to `out`.
/// The only failure is a string field too long for its length prefix.
pub fn encode_frame(frame: &Frame, out: &mut Vec<u8>) -> Result<(), EncodeError> {
    let start = out.len();
    out.extend_from_slice(&[0, 0, 0, 0]);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&PROTOCOL_VERSION.to_be_bytes());
    // Checksum placeholder, patched below once tag + body are written.
    out.extend_from_slice(&[0, 0, 0, 0]);
    match frame {
        Frame::Hello { hostname } => {
            out.push(tag::HELLO);
            put_str(out, "hostname", hostname)?;
        }
        Frame::Heartbeat { round, t_s } => {
            out.push(tag::HEARTBEAT);
            out.extend_from_slice(&round.to_be_bytes());
            out.extend_from_slice(&t_s.to_bits().to_be_bytes());
        }
        Frame::LwpDetail {
            round,
            tid,
            busy_pct,
        } => {
            out.push(tag::LWP_DETAIL);
            out.extend_from_slice(&round.to_be_bytes());
            out.extend_from_slice(&tid.to_be_bytes());
            out.extend_from_slice(&busy_pct.to_bits().to_be_bytes());
        }
        Frame::Aggregate { round, agg } => {
            out.push(tag::AGGREGATE);
            out.extend_from_slice(&round.to_be_bytes());
            put_str(out, "agg.hostname", &agg.hostname)?;
            out.extend_from_slice(&(agg.ranks as u64).to_be_bytes());
            out.extend_from_slice(&(agg.lwps as u64).to_be_bytes());
            out.extend_from_slice(&agg.mean_user_pct.to_bits().to_be_bytes());
            out.extend_from_slice(&agg.mean_idle_pct.to_bits().to_be_bytes());
            out.extend_from_slice(&agg.total_nvcsw.to_be_bytes());
            out.extend_from_slice(&agg.rss_kib.to_be_bytes());
        }
        Frame::Ack { round } => {
            out.push(tag::ACK);
            out.extend_from_slice(&round.to_be_bytes());
        }
    }
    let payload_len = out.len() - start - LEN_PREFIX;
    // Payloads are bounded by the u16 string caps above, far below u32.
    let len_bytes = (payload_len as u32).to_be_bytes();
    if let Some(dst) = out.get_mut(start..start + LEN_PREFIX) {
        dst.copy_from_slice(&len_bytes);
    }
    let body_start = start + LEN_PREFIX + CHECK_START;
    let check = fnv1a(out.get(body_start..).unwrap_or(&[])).to_be_bytes();
    if let Some(dst) = out.get_mut(start + LEN_PREFIX + 4..body_start) {
        dst.copy_from_slice(&check);
    }
    Ok(())
}

fn put_str(out: &mut Vec<u8>, field: &'static str, s: &str) -> Result<(), EncodeError> {
    let len = s.len();
    let Ok(len16) = u16::try_from(len) else {
        return Err(EncodeError::FieldTooLong { field, len });
    };
    out.extend_from_slice(&len16.to_be_bytes());
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

/// The wire bytes of one frame — a fresh buffer per call; transports
/// reuse scratch buffers via [`encode_frame`] instead.
pub fn frame_bytes(frame: &Frame) -> Result<Vec<u8>, EncodeError> {
    let mut out = Vec::new();
    encode_frame(frame, &mut out)?;
    Ok(out)
}

/// Bounded cursor over exactly one payload. Every read is checked; a
/// read past the end is a typed [`DecodeError::Truncated`].
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], DecodeError> {
        match self.buf.get(self.pos..).and_then(|rest| rest.get(..n)) {
            Some(s) => {
                self.pos += n;
                Ok(s)
            }
            None => Err(DecodeError::Truncated { field }),
        }
    }

    fn u8(&mut self, field: &'static str) -> Result<u8, DecodeError> {
        Ok(*self.take(1, field)?.first().unwrap_or(&0))
    }

    fn u16(&mut self, field: &'static str) -> Result<u16, DecodeError> {
        let b = self.take(2, field)?;
        match <[u8; 2]>::try_from(b) {
            Ok(a) => Ok(u16::from_be_bytes(a)),
            Err(_) => Err(DecodeError::Truncated { field }),
        }
    }

    fn u32(&mut self, field: &'static str) -> Result<u32, DecodeError> {
        let b = self.take(4, field)?;
        match <[u8; 4]>::try_from(b) {
            Ok(a) => Ok(u32::from_be_bytes(a)),
            Err(_) => Err(DecodeError::Truncated { field }),
        }
    }

    fn u64(&mut self, field: &'static str) -> Result<u64, DecodeError> {
        let b = self.take(8, field)?;
        match <[u8; 8]>::try_from(b) {
            Ok(a) => Ok(u64::from_be_bytes(a)),
            Err(_) => Err(DecodeError::Truncated { field }),
        }
    }

    fn f64(&mut self, field: &'static str) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64(field)?))
    }

    fn string(&mut self, field: &'static str) -> Result<String, DecodeError> {
        let len = self.u16(field)? as usize;
        let bytes = self.take(len, field)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => Err(DecodeError::BadUtf8 { field }),
        }
    }
}

/// Decodes the first frame in `buf`. On success, returns the frame and
/// the total bytes consumed (length prefix included) so a stream
/// decoder can advance. [`DecodeError::Incomplete`] means more bytes
/// are needed; every other error marks the buffer corrupt.
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), DecodeError> {
    let Some(len_bytes) = buf.get(..LEN_PREFIX) else {
        return Err(DecodeError::Incomplete {
            have: buf.len(),
            need: LEN_PREFIX,
        });
    };
    let payload_len = match <[u8; 4]>::try_from(len_bytes) {
        Ok(a) => u32::from_be_bytes(a) as usize,
        Err(_) => {
            return Err(DecodeError::Incomplete {
                have: buf.len(),
                need: LEN_PREFIX,
            })
        }
    };
    if payload_len > MAX_PAYLOAD {
        return Err(DecodeError::TooLong { len: payload_len });
    }
    // Header sanity *before* trusting the length prefix: magic and
    // version sit right behind it, so they are judged as soon as their
    // bytes exist even while the payload is still arriving. Without
    // this, a corrupted length prefix can claim a plausible giant
    // frame and leave the stream waiting forever for bytes that will
    // never come — wedging every intact frame queued behind it.
    if let Some(magic) = buf.get(LEN_PREFIX..LEN_PREFIX + 2) {
        if magic != MAGIC {
            let mut found = [0u8; 2];
            for (dst, src) in found.iter_mut().zip(magic) {
                *dst = *src;
            }
            return Err(DecodeError::BadMagic { found });
        }
    }
    if let Some(vb) = buf.get(LEN_PREFIX + 2..LEN_PREFIX + 4) {
        if let Ok(a) = <[u8; 2]>::try_from(vb) {
            let version = u16::from_be_bytes(a);
            if version != PROTOCOL_VERSION {
                return Err(DecodeError::UnsupportedVersion { found: version });
            }
        }
    }
    let total = LEN_PREFIX + payload_len;
    let Some(payload) = buf.get(LEN_PREFIX..total) else {
        return Err(DecodeError::Incomplete {
            have: buf.len(),
            need: total,
        });
    };
    let mut r = Reader {
        buf: payload,
        pos: 0,
    };
    let magic = r.take(2, "magic")?;
    if magic != MAGIC {
        let mut found = [0u8; 2];
        for (dst, src) in found.iter_mut().zip(magic) {
            *dst = *src;
        }
        return Err(DecodeError::BadMagic { found });
    }
    let version = r.u16("version")?;
    if version != PROTOCOL_VERSION {
        return Err(DecodeError::UnsupportedVersion { found: version });
    }
    let carried = r.u32("checksum")?;
    let computed = fnv1a(payload.get(CHECK_START..).unwrap_or(&[]));
    if carried != computed {
        return Err(DecodeError::BadChecksum { carried, computed });
    }
    let tag = r.u8("tag")?;
    let frame = match tag {
        tag::HELLO => Frame::Hello {
            hostname: r.string("hostname")?,
        },
        tag::HEARTBEAT => Frame::Heartbeat {
            round: r.u64("round")?,
            t_s: r.f64("t_s")?,
        },
        tag::LWP_DETAIL => Frame::LwpDetail {
            round: r.u64("round")?,
            tid: r.u32("tid")?,
            busy_pct: r.f64("busy_pct")?,
        },
        tag::AGGREGATE => Frame::Aggregate {
            round: r.u64("round")?,
            agg: NodeAggregate {
                hostname: r.string("agg.hostname")?,
                ranks: r.u64("agg.ranks")? as usize,
                lwps: r.u64("agg.lwps")? as usize,
                mean_user_pct: r.f64("agg.mean_user_pct")?,
                mean_idle_pct: r.f64("agg.mean_idle_pct")?,
                total_nvcsw: r.u64("agg.total_nvcsw")?,
                rss_kib: r.u64("agg.rss_kib")?,
            },
        },
        tag::ACK => Frame::Ack {
            round: r.u64("round")?,
        },
        other => return Err(DecodeError::UnknownTag { tag: other }),
    };
    if r.pos != payload.len() {
        return Err(DecodeError::TrailingBytes {
            extra: payload.len() - r.pos,
        });
    }
    Ok((frame, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                hostname: "node01".into(),
            },
            Frame::Heartbeat { round: 7, t_s: 0.7 },
            Frame::LwpDetail {
                round: 7,
                tid: 4242,
                busy_pct: 93.25,
            },
            Frame::Aggregate {
                round: 24,
                agg: NodeAggregate {
                    hostname: "node01".into(),
                    ranks: 2,
                    lwps: 9,
                    mean_user_pct: 87.125,
                    mean_idle_pct: 11.5,
                    total_nvcsw: 123_456,
                    rss_kib: 7_654_321,
                },
            },
            Frame::Ack { round: 24 },
        ]
    }

    #[test]
    fn every_frame_round_trips_bit_identically() {
        for frame in sample_frames() {
            let bytes = frame_bytes(&frame).unwrap();
            let (decoded, used) = decode_frame(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(decoded, frame);
            // Float fields travel as bit patterns: re-encoding the
            // decoded frame reproduces the exact bytes.
            assert_eq!(frame_bytes(&decoded).unwrap(), bytes);
        }
    }

    #[test]
    fn frames_decode_back_to_back_from_one_buffer() {
        let mut buf = Vec::new();
        let frames = sample_frames();
        for f in &frames {
            encode_frame(f, &mut buf).unwrap();
        }
        let mut consumed = 0;
        let mut decoded = Vec::new();
        while consumed < buf.len() {
            let (f, n) = decode_frame(&buf[consumed..]).unwrap();
            decoded.push(f);
            consumed += n;
        }
        assert_eq!(decoded, frames);
    }

    #[test]
    fn every_prefix_is_a_typed_error_never_a_panic() {
        for frame in sample_frames() {
            let bytes = frame_bytes(&frame).unwrap();
            for cut in 0..bytes.len() {
                match decode_frame(&bytes[..cut]) {
                    Ok(_) => panic!("prefix of {} decoded", frame.kind()),
                    Err(e) => assert!(
                        e.is_incomplete() || matches!(e, DecodeError::Truncated { .. }),
                        "{}[..{cut}]: unexpected {e}",
                        frame.kind()
                    ),
                }
            }
        }
    }

    #[test]
    fn version_skew_and_bad_magic_are_typed() {
        let mut bytes = frame_bytes(&Frame::Ack { round: 1 }).unwrap();
        bytes[LEN_PREFIX + 2] = 0xEE; // version hi byte
        assert!(matches!(
            decode_frame(&bytes),
            Err(DecodeError::UnsupportedVersion { found: 0xEE01 })
        ));
        let mut bytes = frame_bytes(&Frame::Ack { round: 1 }).unwrap();
        bytes[LEN_PREFIX] = b'X';
        assert!(matches!(
            decode_frame(&bytes),
            Err(DecodeError::BadMagic {
                found: [b'X', b'S']
            })
        ));
    }

    #[test]
    fn header_faults_are_judged_before_the_payload_completes() {
        // A length prefix inflated in flight claims bytes that will
        // never arrive — but if magic or version got mangled too, the
        // decoder must say so *now*, not wait on the phantom payload.
        let good = frame_bytes(&Frame::Heartbeat { round: 7, t_s: 0.7 }).unwrap();
        let phantom = |head: &[u8]| {
            let mut b = 40_000u32.to_be_bytes().to_vec();
            b.extend_from_slice(head);
            b
        };
        let mut bad_magic = good.get(LEN_PREFIX..).unwrap().to_vec();
        if let Some(m) = bad_magic.first_mut() {
            *m = b'Q';
        }
        assert!(matches!(
            decode_frame(&phantom(&bad_magic)),
            Err(DecodeError::BadMagic {
                found: [b'Q', b'S']
            })
        ));
        let mut skewed = good.get(LEN_PREFIX..).unwrap().to_vec();
        if let Some(v) = skewed.get_mut(2) {
            *v = 0xEE;
        }
        assert!(matches!(
            decode_frame(&phantom(&skewed)),
            Err(DecodeError::UnsupportedVersion { found: 0xEE01 })
        ));
        // With an intact magic and version the decoder *must* keep
        // waiting (the bytes could legitimately still be in flight) —
        // unwedging that is the collector's header-stall deadline.
        let intact = good.get(LEN_PREFIX..).unwrap().to_vec();
        assert!(decode_frame(&phantom(&intact))
            .err()
            .is_some_and(|e| e.is_incomplete()));
    }

    /// Hand-assembles a wire frame with a *valid* checksum over an
    /// arbitrary tag + body, to probe the parse layer past the
    /// integrity gate.
    fn hand_frame(tag: u8, body: &[u8]) -> Vec<u8> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&MAGIC);
        payload.extend_from_slice(&PROTOCOL_VERSION.to_be_bytes());
        payload.extend_from_slice(&[0, 0, 0, 0]);
        payload.push(tag);
        payload.extend_from_slice(body);
        let check = fnv1a(&payload[CHECK_START..]).to_be_bytes();
        payload[4..8].copy_from_slice(&check);
        let mut out = (payload.len() as u32).to_be_bytes().to_vec();
        out.extend_from_slice(&payload);
        out
    }

    #[test]
    fn hostile_lengths_and_tags_are_rejected() {
        // Length prefix claiming a giant payload.
        let huge = ((MAX_PAYLOAD + 1) as u32).to_be_bytes();
        assert!(matches!(
            decode_frame(&huge),
            Err(DecodeError::TooLong { .. })
        ));
        // Unknown tag (with a valid checksum, so the parse layer — not
        // the integrity gate — must reject it).
        assert!(matches!(
            decode_frame(&hand_frame(0x7F, &[])),
            Err(DecodeError::UnknownTag { tag: 0x7F })
        ));
        // Trailing garbage inside the declared (and checksummed) payload.
        let mut body = 1u64.to_be_bytes().to_vec();
        body.push(0xAA);
        assert!(matches!(
            decode_frame(&hand_frame(5, &body)),
            Err(DecodeError::TrailingBytes { extra: 1 })
        ));
        // Invalid UTF-8 in a hostname.
        assert!(matches!(
            decode_frame(&hand_frame(1, &[0, 2, 0xFF, 0xFE])),
            Err(DecodeError::BadUtf8 { .. })
        ));
        // A body that ends mid-field.
        assert!(matches!(
            decode_frame(&hand_frame(5, &[0, 0, 1])),
            Err(DecodeError::Truncated { field: "round" })
        ));
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        for frame in sample_frames() {
            let bytes = frame_bytes(&frame).unwrap();
            for pos in 0..bytes.len() {
                for flip in [0x01u8, 0x80, 0xFF] {
                    let mut evil = bytes.clone();
                    evil[pos] ^= flip;
                    let got = decode_frame(&evil);
                    assert!(
                        got.is_err(),
                        "{} byte {pos} ^ {flip:#x} decoded as {got:?}",
                        frame.kind()
                    );
                }
            }
        }
    }

    #[test]
    fn oversized_string_fields_fail_to_encode() {
        let long = "h".repeat(usize::from(u16::MAX) + 1);
        let err = frame_bytes(&Frame::Hello { hostname: long }).unwrap_err();
        assert!(matches!(err, EncodeError::FieldTooLong { .. }));
        assert!(err.to_string().contains("hostname"));
    }
}
