//! Wire-format guarantees, mirroring the persistence tests: corrupt,
//! truncated, and future-version frames are rejected with the right
//! errors, and nothing malformed reaches the message layer.

mod common;

use common::wire_digest::{reseal, seal};
use laelaps_serve::metrics::{MetricFamily, MetricKind, MetricSample};
use laelaps_serve::wire::{
    encode_message, read_message, write_message, Message, WireSpan, CHECKSUM_LEN, HEADER_LEN,
    MAX_PAYLOAD, WIRE_VERSION,
};
use laelaps_serve::{
    HealthSnapshot, HealthTransition, HealthVerdict, RuleEval, SeriesSample, ServeError,
    SessionObsRow, SessionObsSnapshot, SessionScores, SessionStats,
};

fn hello_frame() -> Vec<u8> {
    encode_message(&Message::Hello {
        patient: "chb01".into(),
        electrodes: 23,
    })
}

#[test]
fn truncation_at_every_boundary_is_corrupt_never_a_panic() {
    let frame = hello_frame();
    // Every strict prefix: inside the header, inside the payload, inside
    // the checksum.
    for cut in 1..frame.len() {
        let err = read_message(&mut &frame[..cut]).unwrap_err();
        assert!(
            matches!(err, ServeError::Corrupt { ref reason } if reason.contains("wire")),
            "cut at {cut}: {err}"
        );
    }
    // The empty prefix is a clean end of stream, not corruption.
    assert_eq!(read_message(&mut &frame[..0]).unwrap(), None);
}

#[test]
fn any_flipped_bit_is_detected_by_the_checksum() {
    let frame = hello_frame();
    // Flip one bit in each region that the checksum covers: the tag,
    // the length field, and the payload. (Byte 0–1 = magic and byte 2 =
    // version are gated by their own checks first.)
    for position in [3, 5, HEADER_LEN + 2, frame.len() - CHECKSUM_LEN - 1] {
        let mut corrupted = frame.clone();
        corrupted[position] ^= 0x40;
        let err = read_message(&mut corrupted.as_slice()).unwrap_err();
        assert!(
            matches!(err, ServeError::Corrupt { .. }),
            "flip at {position}: {err}"
        );
    }
    // A flipped checksum byte itself is also caught.
    let mut corrupted = frame.clone();
    let last = corrupted.len() - 1;
    corrupted[last] ^= 0x01;
    assert!(matches!(
        read_message(&mut corrupted.as_slice()).unwrap_err(),
        ServeError::Corrupt { ref reason } if reason.contains("checksum")
    ));
}

#[test]
fn bad_magic_is_rejected_before_anything_else() {
    let mut frame = hello_frame();
    frame[0] ^= 0xFF;
    let err = read_message(&mut frame.as_slice()).unwrap_err();
    assert!(
        matches!(err, ServeError::Corrupt { ref reason } if reason.contains("magic")),
        "{err}"
    );
}

#[test]
fn future_version_is_a_version_mismatch_not_corruption() {
    // Newer, older and 0 alike: the reader accepts exactly WIRE_VERSION.
    for version in [WIRE_VERSION + 41, WIRE_VERSION - 1, 0] {
        let mut frame = hello_frame();
        frame[2] = version;
        // Deliberately do NOT fix the checksum: the version gate must
        // fire first, mirroring the model-file loader.
        let err = read_message(&mut frame.as_slice()).unwrap_err();
        assert!(
            matches!(
                err,
                ServeError::VersionMismatch {
                    found,
                    supported,
                } if found == version as u64 && supported == WIRE_VERSION as u32
            ),
            "version {version}: {err}"
        );
    }
}

#[test]
fn unknown_tag_is_corrupt() {
    let mut frame = encode_message(&Message::Close);
    frame[3] = 0x7C;
    // Re-seal so only the tag is wrong, proving the tag check itself
    // fires (not just the checksum).
    reseal(&mut frame);
    let err = read_message(&mut frame.as_slice()).unwrap_err();
    assert!(
        matches!(err, ServeError::Corrupt { ref reason } if reason.contains("unknown message type")),
        "{err}"
    );
}

#[test]
fn oversized_length_is_rejected_without_allocating() {
    let mut frame = hello_frame();
    frame[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
    let err = read_message(&mut frame.as_slice()).unwrap_err();
    assert!(
        matches!(err, ServeError::Corrupt { ref reason } if reason.contains("cap")),
        "{err}"
    );
    assert!(MAX_PAYLOAD < u32::MAX as usize);
}

#[test]
fn payload_length_mismatches_are_corrupt() {
    // A Hello whose inner string length runs past the payload.
    let mut frame = hello_frame();
    frame[HEADER_LEN] = 0xFF; // patient length low byte: 5 → 255
    reseal(&mut frame);
    assert!(matches!(
        read_message(&mut frame.as_slice()).unwrap_err(),
        ServeError::Corrupt { ref reason } if reason.contains("shorter")
    ));

    // A Close with trailing garbage in the payload.
    let mut padded = Vec::new();
    write_message(&mut padded, &Message::Close).unwrap();
    let mut frame = padded.clone();
    // Extend payload by 2 bytes and fix the length field.
    frame.truncate(HEADER_LEN);
    frame[4..8].copy_from_slice(&2u32.to_le_bytes());
    frame.extend_from_slice(&[0xAA, 0xBB]);
    seal(&mut frame);
    assert!(matches!(
        read_message(&mut frame.as_slice()).unwrap_err(),
        ServeError::Corrupt { ref reason } if reason.contains("longer")
    ));
}

#[test]
fn frames_payload_must_be_whole_samples() {
    let mut frame = Vec::new();
    // Hand-build a Frames frame with a 5-byte payload.
    frame.extend_from_slice(b"LW");
    frame.push(WIRE_VERSION);
    frame.push(0x02); // Frames tag
    frame.extend_from_slice(&5u32.to_le_bytes());
    frame.extend_from_slice(&[1, 2, 3, 4, 5]);
    seal(&mut frame);
    assert!(matches!(
        read_message(&mut frame.as_slice()).unwrap_err(),
        ServeError::Corrupt { ref reason } if reason.contains("whole f32")
    ));
}

#[test]
fn oversized_messages_are_refused_before_hitting_the_wire() {
    // One sample past the cap: write_message must reject it (the peer
    // could only ever see it as corrupt) and write nothing.
    let chunk: Box<[f32]> = vec![0.0f32; MAX_PAYLOAD / 4 + 1].into();
    let mut sink = Vec::new();
    let err = write_message(&mut sink, &Message::Frames { chunk }).unwrap_err();
    assert!(
        matches!(err, ServeError::Protocol { ref reason } if reason.contains("frame cap")),
        "{err}"
    );
    assert!(sink.is_empty(), "nothing may reach the transport");

    // Exactly at the cap is fine.
    let chunk: Box<[f32]> = vec![0.0f32; MAX_PAYLOAD / 4].into();
    write_message(&mut sink, &Message::Frames { chunk }).unwrap();
    assert!(matches!(
        read_message(&mut sink.as_slice()).unwrap(),
        Some(Message::Frames { .. })
    ));
}

#[test]
fn feedback_with_out_of_range_label_is_corrupt() {
    // Hand-build a Feedback frame whose label byte is neither 0 nor 1.
    let mut frame = Vec::new();
    frame.extend_from_slice(b"LW");
    frame.push(WIRE_VERSION);
    frame.push(0x04); // Feedback tag
    frame.extend_from_slice(&9u32.to_le_bytes()); // label + 2 samples
    frame.push(7); // out-of-range label
    frame.extend_from_slice(&1.0f32.to_le_bytes());
    frame.extend_from_slice(&2.0f32.to_le_bytes());
    seal(&mut frame);
    let err = read_message(&mut frame.as_slice()).unwrap_err();
    assert!(
        matches!(err, ServeError::Corrupt { ref reason } if reason.contains("label")),
        "{err}"
    );
}

#[test]
fn feedback_payload_must_be_whole_samples() {
    // Label byte + 6 bytes of samples: not whole f32s.
    let mut frame = Vec::new();
    frame.extend_from_slice(b"LW");
    frame.push(WIRE_VERSION);
    frame.push(0x04);
    frame.extend_from_slice(&7u32.to_le_bytes());
    frame.push(1);
    frame.extend_from_slice(&[1, 2, 3, 4, 5, 6]);
    seal(&mut frame);
    assert!(matches!(
        read_message(&mut frame.as_slice()).unwrap_err(),
        ServeError::Corrupt { ref reason } if reason.contains("whole f32")
    ));
    // An entirely empty Feedback payload (no label byte) is short.
    let mut frame = Vec::new();
    frame.extend_from_slice(b"LW");
    frame.push(WIRE_VERSION);
    frame.push(0x04);
    frame.extend_from_slice(&0u32.to_le_bytes());
    seal(&mut frame);
    assert!(matches!(
        read_message(&mut frame.as_slice()).unwrap_err(),
        ServeError::Corrupt { ref reason } if reason.contains("shorter")
    ));
}

#[test]
fn back_to_back_frames_parse_in_order_and_eof_is_clean() {
    let mut stream = Vec::new();
    let chunk: Box<[f32]> = (0..256).map(|i| i as f32 * 0.5).collect();
    write_message(
        &mut stream,
        &Message::Hello {
            patient: "P1".into(),
            electrodes: 4,
        },
    )
    .unwrap();
    for _ in 0..3 {
        write_message(
            &mut stream,
            &Message::Frames {
                chunk: chunk.clone(),
            },
        )
        .unwrap();
    }
    write_message(&mut stream, &Message::Close).unwrap();

    let mut reader = stream.as_slice();
    assert!(matches!(
        read_message(&mut reader).unwrap(),
        Some(Message::Hello { .. })
    ));
    for _ in 0..3 {
        let Some(Message::Frames { chunk: got }) = read_message(&mut reader).unwrap() else {
            panic!("expected frames");
        };
        assert_eq!(got, chunk);
    }
    assert_eq!(read_message(&mut reader).unwrap(), Some(Message::Close));
    assert_eq!(read_message(&mut reader).unwrap(), None);
    assert_eq!(read_message(&mut reader).unwrap(), None, "EOF is sticky");
}

fn trace_dump_frame() -> Vec<u8> {
    encode_message(&Message::TraceDump {
        recorded: 900,
        dropped: 3,
        spans: vec![
            WireSpan {
                trace_id: 41,
                stage: 0,
                pin: 1,
                shard: 2,
                generation: 7,
                session: 9,
                start_us: 1_000,
                dur_us: 120,
            },
            WireSpan {
                trace_id: 42,
                stage: 3,
                pin: 0,
                shard: 0,
                generation: 7,
                session: 11,
                start_us: 1_200,
                dur_us: 80,
            },
        ],
    })
}

/// A health snapshot with `rules`, `transitions` and `rows` entries of
/// each list (so a test can put the count it patches first).
fn health(rules: usize, transitions: usize, rows: usize) -> HealthSnapshot {
    HealthSnapshot {
        enabled: true,
        verdict: HealthVerdict::Degraded,
        ticks: 240,
        transitions_total: 9,
        rules: (0..rules)
            .map(|i| RuleEval {
                name: format!("rule_{i}"),
                verdict: HealthVerdict::Degraded,
                fast_burn: 1.5,
                slow_burn: 0.75,
            })
            .collect(),
        transitions: (0..transitions as u64)
            .map(|tick| HealthTransition {
                tick,
                rule: "overall".into(),
                from: HealthVerdict::Ok,
                to: HealthVerdict::Degraded,
                fast_burn: 1.5,
                slow_burn: 0.75,
            })
            .collect(),
        series: (0..rows as u64)
            .map(|seq| SeriesSample {
                seq,
                words: vec![seq; 6],
            })
            .collect(),
    }
}

fn health_frame(health: HealthSnapshot) -> Vec<u8> {
    encode_message(&Message::HealthSnapshot {
        health: Box::new(health),
    })
}

fn session_row(session: u64) -> SessionObsRow {
    SessionObsRow {
        session,
        patient: "chb07".into(),
        shard: 1,
        generation: 2,
        stats: SessionStats {
            frames_in: 4096,
            frames_processed: 4000,
            ..SessionStats::default()
        },
        scores: SessionScores {
            latency: 9_001,
            saturation: 77,
            discard: 0,
        },
    }
}

fn session_stats_frame() -> Vec<u8> {
    encode_message(&Message::SessionStatsSnapshot {
        sessions: Box::new(SessionObsSnapshot {
            enabled: true,
            ticks: 9_120,
            top: vec![session_row(41), session_row(7)],
            lookup: Some(session_row(3)),
        }),
    })
}

const FAMILY: &str = "frames_total";
const HELP: &str = "Frames by outcome.";

/// A populated catalogue: a counter whose one sample carries a label,
/// then an unlabelled gauge.
fn stats_families() -> Vec<MetricFamily> {
    vec![
        MetricFamily {
            name: FAMILY.into(),
            help: HELP.into(),
            kind: MetricKind::Counter,
            samples: vec![MetricSample {
                name: FAMILY.into(),
                labels: vec![("outcome".into(), "in".into())],
                value: 4096.0,
            }],
        },
        MetricFamily {
            name: "recent_frames_per_sec".into(),
            help: "Frames drained per second.".into(),
            kind: MetricKind::Gauge,
            samples: vec![MetricSample {
                name: "recent_frames_per_sec".into(),
                labels: Vec::new(),
                value: 512.25,
            }],
        },
    ]
}

fn stats_frame(families: Vec<MetricFamily>) -> Vec<u8> {
    encode_message(&Message::StatsSnapshot { families })
}

#[test]
fn v3_introspection_frames_survive_truncation_like_v1() {
    // The v1/v2 truncation guarantee holds for the new introspection
    // payloads too: every strict prefix is corruption, never a panic,
    // and the empty prefix is a clean end of stream.
    for frame in [
        trace_dump_frame(),
        stats_frame(Vec::new()),
        stats_frame(stats_families()),
        health_frame(health(2, 2, 2)),
        session_stats_frame(),
    ] {
        for cut in 1..frame.len() {
            let err = read_message(&mut &frame[..cut]).unwrap_err();
            assert!(
                matches!(err, ServeError::Corrupt { ref reason } if reason.contains("wire")),
                "cut at {cut}: {err}"
            );
        }
        assert_eq!(read_message(&mut &frame[..0]).unwrap(), None);
    }
}

#[test]
fn v3_introspection_frames_detect_bit_flips_like_v1() {
    for frame in [
        trace_dump_frame(),
        stats_frame(stats_families()),
        health_frame(health(2, 2, 2)),
        session_stats_frame(),
    ] {
        for position in [3, 5, HEADER_LEN + 2, frame.len() - CHECKSUM_LEN - 1] {
            let mut corrupted = frame.clone();
            corrupted[position] ^= 0x40;
            let err = read_message(&mut corrupted.as_slice()).unwrap_err();
            assert!(
                matches!(err, ServeError::Corrupt { .. }),
                "flip at {position}: {err}"
            );
        }
    }
}

#[test]
fn hostile_span_count_is_rejected_without_allocating() {
    // Patch the span-count word (payload offset 16, after the two u64
    // accounting fields) to a huge value and reseal so the checksum
    // passes: the decoder must fail on the short payload instead of
    // pre-allocating a count's worth of spans.
    let mut frame = trace_dump_frame();
    frame[HEADER_LEN + 16..HEADER_LEN + 20].copy_from_slice(&u32::MAX.to_le_bytes());
    reseal(&mut frame);
    let err = read_message(&mut frame.as_slice()).unwrap_err();
    assert!(
        matches!(err, ServeError::Corrupt { ref reason } if reason.contains("shorter")),
        "unexpected error: {err}"
    );
}

#[test]
fn hostile_snapshot_counts_are_rejected_without_allocating() {
    // Health payload: u8 enabled, u8 verdict, u64 ticks, u64 transitions
    // total (18 bytes), then the rule, transition and series-row counts
    // — each list empty unless the fixture puts it first. A series row
    // is u64 seq, then its word count. The session payload's top-row
    // count follows u8 enabled and u64 ticks.
    for (what, frame, offset) in [
        ("rule count", health_frame(health(1, 0, 0)), 18),
        ("transition count", health_frame(health(0, 1, 0)), 22),
        ("series-row count", health_frame(health(0, 0, 1)), 26),
        ("word count", health_frame(health(0, 0, 1)), 30 + 8),
        ("top-row count", session_stats_frame(), 9),
    ] {
        let mut frame = frame;
        let at = HEADER_LEN + offset;
        assert_ne!(frame[at..at + 4], [0; 4], "{what}: patching a real count");
        frame[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        reseal(&mut frame);
        let err = read_message(&mut frame.as_slice()).unwrap_err();
        assert!(
            matches!(err, ServeError::Corrupt { ref reason } if reason.contains("shorter")),
            "{what}: unexpected error: {err}"
        );
    }
}

/// Payload offsets inside the first family of [`stats_families`]: the
/// family count, then the name and help strings (`u32` length + bytes),
/// the kind byte, the sample count, the sample's name, then its label
/// count.
const NAME_LEN_AT: usize = 4;
const KIND_AT: usize = NAME_LEN_AT + 4 + FAMILY.len() + 4 + HELP.len();
const SAMPLE_COUNT_AT: usize = KIND_AT + 1;
const LABEL_COUNT_AT: usize = SAMPLE_COUNT_AT + 4 + 4 + FAMILY.len();

#[test]
fn hostile_metric_counts_are_rejected_without_allocating() {
    // Only the first family goes on the wire, so each patched count runs
    // the decoder off the end of the payload instead of into a
    // neighbour's bytes.
    for (what, offset) in [
        ("family count", 0),
        ("family name length", NAME_LEN_AT),
        ("sample count", SAMPLE_COUNT_AT),
        ("label count", LABEL_COUNT_AT),
    ] {
        let mut frame = stats_frame(stats_families()[..1].to_vec());
        let at = HEADER_LEN + offset;
        assert_ne!(frame[at..at + 4], [0; 4], "{what}: patching a real count");
        frame[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        reseal(&mut frame);
        let err = read_message(&mut frame.as_slice()).unwrap_err();
        assert!(
            matches!(err, ServeError::Corrupt { ref reason } if reason.contains("shorter")),
            "{what}: unexpected error: {err}"
        );
    }
}

#[test]
fn unknown_metric_kind_byte_is_corrupt() {
    let mut frame = stats_frame(stats_families());
    assert_eq!(frame[HEADER_LEN + KIND_AT], 0, "the counter's kind byte");
    frame[HEADER_LEN + KIND_AT] = 3;
    reseal(&mut frame);
    let err = read_message(&mut frame.as_slice()).unwrap_err();
    assert!(
        matches!(err, ServeError::Corrupt { ref reason } if reason.contains("kind")),
        "unexpected error: {err}"
    );
}

#[test]
fn non_finite_metric_values_roundtrip_bit_exactly() {
    let values = [
        f64::NAN,
        f64::from_bits(0xfff4_dead_beef_0001), // a negative, signalling NaN payload
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
    ];
    let mut families = stats_families();
    families[1].samples = values
        .iter()
        .map(|&value| MetricSample {
            name: "recent_frames_per_sec".into(),
            labels: Vec::new(),
            value,
        })
        .collect();
    let frame = stats_frame(families);
    let Some(Message::StatsSnapshot { families: back }) =
        read_message(&mut frame.as_slice()).unwrap()
    else {
        panic!("expected a StatsSnapshot");
    };
    let bits: Vec<u64> = back[1].samples.iter().map(|s| s.value.to_bits()).collect();
    assert_eq!(bits, values.map(f64::to_bits));
}

#[test]
fn unknown_verdict_byte_is_corrupt() {
    let mut frame = health_frame(health(0, 0, 0));
    frame[HEADER_LEN + 1] = 9;
    reseal(&mut frame);
    let err = read_message(&mut frame.as_slice()).unwrap_err();
    assert!(
        matches!(err, ServeError::Corrupt { ref reason } if reason.contains("verdict")),
        "unexpected error: {err}"
    );
}

/// One full chunk at the deployment shape: 256 frames × 12 electrodes.
fn full_chunk_frame() -> Vec<u8> {
    let chunk: Box<[f32]> = (0..256 * 12).map(|i| (i as f32 * 0.37).sin()).collect();
    encode_message(&Message::Frames { chunk })
}

#[test]
fn every_bit_flip_and_truncation_of_a_full_chunk_is_corrupt() {
    let frame = full_chunk_frame();
    assert_eq!(frame.len(), 12_304);
    // Bytes 0–2 (magic and version) are gated by their own checks; every
    // other bit is covered by the checksum or bounds the read.
    let mut corrupted = frame.clone();
    for position in 3..frame.len() {
        for bit in 0..8 {
            corrupted[position] ^= 1 << bit;
            let outcome = read_message(&mut corrupted.as_slice());
            assert!(
                matches!(outcome, Err(ServeError::Corrupt { .. })),
                "flip of bit {bit} at byte {position} was not corrupt: {:?}",
                outcome.map(|m| m.is_some())
            );
            corrupted[position] ^= 1 << bit;
        }
    }
    for cut in 1..frame.len() {
        let outcome = read_message(&mut &frame[..cut]);
        assert!(
            matches!(outcome, Err(ServeError::Corrupt { .. })),
            "cut at {cut} was not corrupt: {:?}",
            outcome.map(|m| m.is_some())
        );
    }
    assert_eq!(read_message(&mut &frame[..0]).unwrap(), None);
}

#[test]
fn the_frame_checksum_has_a_known_answer() {
    // Pins the v8 digest itself: a change to the lanes, seeds, multiplier,
    // padding or fold changes this value, and with it the format.
    let frame = hello_frame();
    let (sealed, footer) = frame.split_at(frame.len() - CHECKSUM_LEN);
    assert_eq!(
        u64::from_le_bytes(footer.try_into().unwrap()),
        KNOWN_HELLO_DIGEST
    );
    assert_eq!(
        common::wire_digest::frame_digest(sealed),
        KNOWN_HELLO_DIGEST
    );
}

/// The digest of [`hello_frame`], computed once from the definition.
const KNOWN_HELLO_DIGEST: u64 = 0x9f44_c907_e327_191e;

#[test]
fn writer_and_reader_agree_with_the_reference_digest_at_every_length() {
    // Payload lengths across every residue of the four-lane block, on the
    // writer's contiguous path and on the reader's split paths (the label
    // byte then the samples of a Feedback, the samples of a Frames).
    for len in 0..40usize {
        let samples: Box<[f32]> = (0..len).map(|i| i as f32 - 7.5).collect();
        let patient = "p".repeat(len);
        for message in [
            Message::Hello {
                patient,
                electrodes: 3,
            },
            Message::Frames {
                chunk: samples.clone(),
            },
            Message::Feedback {
                label: laelaps_core::Label::Ictal,
                chunk: samples,
            },
        ] {
            let frame = encode_message(&message);
            let mut hand_sealed = frame[..frame.len() - CHECKSUM_LEN].to_vec();
            seal(&mut hand_sealed);
            assert_eq!(hand_sealed, frame, "writer digest at length {len}");
            assert_eq!(
                read_message(&mut hand_sealed.as_slice()).unwrap(),
                Some(message),
                "reader digest at length {len}"
            );
        }
    }
}
