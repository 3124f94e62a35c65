//! Golden-file tests for the wire protocol: every fixture under
//! `tests/fixtures/net/` is a canonical encoded frame, pinned
//! byte-for-byte. The encoding *is* the protocol — these fixtures are
//! what a v1 peer on another machine will actually emit — so any codec
//! change that alters bytes must bump `PROTOCOL_VERSION` and
//! regenerate deliberately:
//!
//! ```text
//! cargo test --test wire_golden -- --ignored regen
//! ```
//!
//! The `evil_*` pair pins the *failure* shapes too: a truncated and a
//! bit-flipped aggregate must keep decoding to the same typed errors,
//! and `bye.bin`, a frame of a retired tag, to `UnknownTag`.

use std::path::PathBuf;
use zerosum_core::NodeAggregate;
use zerosum_net::{decode_frame, frame_bytes, DecodeError, Frame};

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/net")
}

fn read_fixture(name: &str) -> Vec<u8> {
    let path = fixture_dir().join(name);
    std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {}: {e}\nregenerate with: cargo test --test wire_golden -- --ignored regen",
            path.display()
        )
    })
}

/// The canonical frame set: one per tag, with values that exercise
/// every field codec (strings, u32/u64, f64 bit patterns).
fn canonical() -> Vec<(&'static str, Frame)> {
    vec![
        (
            "hello.bin",
            Frame::Hello {
                hostname: "golden-node".to_string(),
            },
        ),
        (
            "heartbeat.bin",
            Frame::Heartbeat {
                round: 42,
                t_s: 4.2,
            },
        ),
        (
            "lwp_detail.bin",
            Frame::LwpDetail {
                round: 42,
                tid: 1337,
                busy_pct: 87.5,
            },
        ),
        (
            "aggregate.bin",
            Frame::Aggregate {
                round: 42,
                agg: NodeAggregate {
                    hostname: "golden-node".to_string(),
                    ranks: 2,
                    lwps: 9,
                    mean_user_pct: 93.25,
                    mean_idle_pct: 4.75,
                    total_nvcsw: 123_456,
                    rss_kib: 10_485_760,
                },
            },
        ),
        ("ack.bin", Frame::Ack { round: 42 }),
    ]
}

/// Builds the evil pair from the canonical aggregate: a mid-payload
/// truncation and a single flipped bit.
fn evil_pair() -> (Vec<u8>, Vec<u8>) {
    let agg = canonical()
        .into_iter()
        .find(|(n, _)| *n == "aggregate.bin")
        .map(|(_, f)| frame_bytes(&f).expect("encode aggregate"))
        .expect("canonical aggregate");
    let truncated = agg.get(..21).expect("aggregate longer than 21B").to_vec();
    let mut corrupt = agg;
    if let Some(b) = corrupt.get_mut(30) {
        *b ^= 0x40;
    }
    (truncated, corrupt)
}

#[test]
fn golden_frames_encode_byte_for_byte() {
    for (name, frame) in canonical() {
        let pinned = read_fixture(name);
        let encoded = frame_bytes(&frame).expect("encode");
        assert_eq!(
            encoded, pinned,
            "{name}: encoding drifted from the pinned v1 bytes — \
             a wire change requires a PROTOCOL_VERSION bump"
        );
    }
}

#[test]
fn golden_frames_decode_to_the_canonical_values() {
    for (name, expected) in canonical() {
        let pinned = read_fixture(name);
        let (decoded, consumed) = decode_frame(&pinned).expect("decode");
        assert_eq!(consumed, pinned.len(), "{name}: trailing bytes");
        // Bit-identical round-trip, including the f64 fields.
        assert_eq!(decoded, expected, "{name}");
    }
}

#[test]
fn evil_truncated_fixture_stays_a_typed_incomplete() {
    let bytes = read_fixture("evil_truncated.bin");
    match decode_frame(&bytes) {
        Err(e) if e.is_incomplete() => {}
        other => panic!("evil_truncated.bin: expected Incomplete, got {other:?}"),
    }
    // And it must match the generator exactly, so the pair can't drift
    // apart from the canonical aggregate.
    assert_eq!(bytes, evil_pair().0);
}

#[test]
fn evil_corrupt_fixture_stays_a_checksum_reject() {
    let bytes = read_fixture("evil_corrupt.bin");
    match decode_frame(&bytes) {
        Err(DecodeError::BadChecksum { carried, computed }) => {
            assert_ne!(carried, computed);
        }
        other => panic!("evil_corrupt.bin: expected BadChecksum, got {other:?}"),
    }
    assert_eq!(bytes, evil_pair().1);
}

/// `bye.bin` is a frame of tag 6, the retired `Bye` (no agent sent it):
/// the tag stays reserved, so its pinned bytes are a typed reject.
#[test]
fn the_retired_bye_fixture_is_an_unknown_tag() {
    let bytes = read_fixture("bye.bin");
    match decode_frame(&bytes) {
        Err(DecodeError::UnknownTag { tag: 6 }) => {}
        other => panic!("bye.bin: expected UnknownTag {{ tag: 6 }}, got {other:?}"),
    }
}

/// Regenerates every fixture. Deliberate-only:
/// `cargo test --test wire_golden -- --ignored regen`.
#[test]
#[ignore = "writes fixtures; run only to regenerate after a deliberate protocol bump"]
fn regen() {
    let dir = fixture_dir();
    std::fs::create_dir_all(&dir).expect("create fixture dir");
    for (name, frame) in canonical() {
        let bytes = frame_bytes(&frame).expect("encode");
        std::fs::write(dir.join(name), bytes).expect("write fixture");
    }
    let (truncated, corrupt) = evil_pair();
    std::fs::write(dir.join("evil_truncated.bin"), truncated).expect("write evil_truncated");
    std::fs::write(dir.join("evil_corrupt.bin"), corrupt).expect("write evil_corrupt");
}
