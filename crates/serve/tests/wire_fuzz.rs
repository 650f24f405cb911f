//! Seeded mutation fuzzing of the wire decoder.
//!
//! Every case starts from a valid frame of one message — every tag, the
//! message set of the codec's round-trip test — applies one to three
//! mutations (bit flips, byte overwrites, truncations, extensions and
//! length-field edits) and decodes the result twice: as mutated, and
//! resealed (length field and checksum made consistent again), so that
//! the payload decoders run on the mutated bytes too.
//!
//! Invariants, for every decode:
//! - the decoder never panics;
//! - every error is `Corrupt` or `VersionMismatch`;
//! - whatever decodes round-trips through `encode_message`;
//! - no single allocation exceeds `MAX_PAYLOAD + CHECKSUM_LEN`.
//!
//! Case seeds are a pure function of the test name and the case index
//! (the compat `proptest` shim's `TestRng`), and a failure prints its
//! case, so a rerun replays it.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};

use common::alloc::{counted, Counting};
use common::wire_digest::reseal;
use laelaps_core::{Alarm, Classification, DetectorEvent, Label};
use laelaps_serve::metrics::scrape;
use laelaps_serve::wire::{
    encode_message, event_message, read_message, Message, WireSpan, CHECKSUM_LEN, HEADER_LEN,
    MAX_PAYLOAD,
};
use laelaps_serve::{
    HealthSnapshot, HealthTransition, HealthVerdict, RuleEval, SeriesSample, ServeError,
    ServiceStats, SessionObsRow, SessionObsSnapshot, SessionScores, SessionStats,
};
use proptest::TestRng;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Mutated frames per run, each decoded as mutated and resealed.
const CASES: u32 = 100_000;

fn event(alarm: bool) -> DetectorEvent {
    DetectorEvent {
        index: 41,
        end_sample: 21504,
        time_secs: 42.0,
        classification: Classification {
            label: Label::Ictal,
            dist_interictal: 4811,
            dist_ictal: 1009,
        },
        alarm: alarm.then_some(Alarm {
            label_index: 41,
            mean_delta: 0.1 + 0.2,
        }),
    }
}

fn health() -> HealthSnapshot {
    HealthSnapshot {
        enabled: true,
        verdict: HealthVerdict::Critical,
        ticks: 907,
        transitions_total: 77,
        rules: vec![
            RuleEval {
                name: "stage_p99:drain".into(),
                verdict: HealthVerdict::Ok,
                fast_burn: 0.25,
                slow_burn: 0.75,
            },
            RuleEval {
                name: "shard_stall".into(),
                verdict: HealthVerdict::Critical,
                fast_burn: 1.5,
                slow_burn: 1.5,
            },
        ],
        transitions: vec![HealthTransition {
            tick: 811,
            rule: "overall".into(),
            from: HealthVerdict::Degraded,
            to: HealthVerdict::Critical,
            fast_burn: 1.5,
            slow_burn: 1.5,
        }],
        series: vec![
            SeriesSample {
                seq: 905,
                words: vec![4096, 4000, 5, 2, 89, 12],
            },
            SeriesSample {
                seq: 906,
                words: vec![0; 6],
            },
        ],
    }
}

fn session_row(session: u64, patient: &str) -> SessionObsRow {
    SessionObsRow {
        session,
        shard: 1,
        generation: 2,
        patient: patient.into(),
        stats: SessionStats {
            frames_in: 4096,
            frames_dropped: 12,
            frames_refused: 1,
            frames_discarded: 256,
            frames_processed: 3828,
            events_out: 14,
            alarms_out: 1,
            drains: 31,
            max_drain_micros: 977,
            last_drain_tick: 4_810,
            ewma_drain_us: 412,
        },
        scores: SessionScores {
            latency: 9_001,
            saturation: 77,
            discard: 256,
        },
    }
}

fn session_stats() -> SessionObsSnapshot {
    SessionObsSnapshot {
        enabled: true,
        ticks: 4_811,
        top: vec![session_row(7, "chb03"), session_row(0, "")],
        lookup: Some(session_row(11, "chb01")),
    }
}

/// One message of every tag, with and without optional parts.
fn corpus() -> Vec<Message> {
    vec![
        Message::Hello {
            patient: "chb01".into(),
            electrodes: 23,
        },
        Message::Frames {
            chunk: vec![0.0, -1.5, f32::MIN_POSITIVE, 3.25].into(),
        },
        Message::Close,
        Message::Feedback {
            label: Label::Ictal,
            chunk: vec![1.0, -2.5, 0.125].into(),
        },
        Message::Feedback {
            label: Label::Interictal,
            chunk: Box::new([]),
        },
        Message::Accepted {
            session: u64::MAX,
            electrodes: 4,
        },
        Message::ModelUpdated { generation: 7 },
        Message::Throttle {
            queued_chunks: 64,
            capacity_chunks: 64,
        },
        event_message(event(false)),
        event_message(event(true)),
        Message::StatsRequest,
        Message::TraceDumpRequest { limit: 0 },
        Message::TraceDumpRequest { limit: 128 },
        Message::StatsSnapshot {
            families: scrape(&ServiceStats::default(), &health(), &session_stats()),
        },
        Message::StatsSnapshot {
            families: Vec::new(),
        },
        Message::TraceDump {
            recorded: 900,
            dropped: 3,
            spans: vec![
                WireSpan {
                    trace_id: 41,
                    stage: 0,
                    pin: 1,
                    shard: 2,
                    generation: 7,
                    session: 11,
                    start_us: 1_000,
                    dur_us: 250,
                },
                WireSpan::default(),
            ],
        },
        Message::TraceDump {
            recorded: 0,
            dropped: 0,
            spans: Vec::new(),
        },
        Message::HealthRequest,
        Message::HealthSnapshot {
            health: Box::new(health()),
        },
        Message::HealthSnapshot {
            health: Box::default(),
        },
        Message::SessionStatsRequest { session: None },
        Message::SessionStatsRequest {
            session: Some(u64::MAX),
        },
        Message::SessionStatsSnapshot {
            sessions: Box::new(session_stats()),
        },
        Message::SessionStatsSnapshot {
            sessions: Box::default(),
        },
        Message::Error {
            reason: "no model for patient".into(),
        },
    ]
}

#[derive(Debug)]
enum Mutation {
    FlipBit { at: usize, bit: u8 },
    Overwrite { at: usize, byte: u8 },
    Truncate { len: usize },
    Extend { bytes: Vec<u8> },
    Length { value: u32 },
}

impl Mutation {
    fn draw(rng: &mut TestRng, frame: &[u8]) -> Mutation {
        if frame.is_empty() {
            return Mutation::Extend {
                bytes: vec![rng.sample(0..=255u8)],
            };
        }
        match rng.sample(0..5u8) {
            0 => Mutation::FlipBit {
                at: position(rng, frame.len()),
                bit: rng.sample(0..8u8),
            },
            1 => Mutation::Overwrite {
                at: position(rng, frame.len()),
                byte: rng.sample(0..=255u8),
            },
            2 => Mutation::Truncate {
                len: rng.sample(0..frame.len()),
            },
            3 => Mutation::Extend {
                bytes: (0..rng.sample(1..24usize))
                    .map(|_| rng.sample(0..=255u8))
                    .collect(),
            },
            _ => {
                let actual = frame.len().saturating_sub(HEADER_LEN + CHECKSUM_LEN) as i64;
                let value = match rng.sample(0..4u8) {
                    0 => (actual + rng.sample(-16..=16i64)).max(0) as u32,
                    1 => [0, MAX_PAYLOAD as u32, MAX_PAYLOAD as u32 + 1, u32::MAX]
                        [rng.sample(0..4usize)],
                    _ => rng.next_u64() as u32 >> rng.sample(0..32u32),
                };
                Mutation::Length { value }
            }
        }
    }

    fn apply(&self, frame: &mut Vec<u8>) {
        match *self {
            Mutation::FlipBit { at, bit } => frame[at] ^= 1 << bit,
            Mutation::Overwrite { at, byte } => frame[at] = byte,
            Mutation::Truncate { len } => frame.truncate(len),
            Mutation::Extend { ref bytes } => frame.extend_from_slice(bytes),
            Mutation::Length { value } => {
                if frame.len() >= HEADER_LEN {
                    frame[4..HEADER_LEN].copy_from_slice(&value.to_le_bytes());
                }
            }
        }
    }
}

/// A byte position in a frame of `len > 0` bytes. Half of them fall in
/// the header and the first payload bytes, where the tag, the length and
/// the payload's counts live.
fn position(rng: &mut TestRng, len: usize) -> usize {
    if rng.sample(0..2u8) == 0 {
        rng.sample(0..len.min(HEADER_LEN + 8))
    } else {
        rng.sample(0..len)
    }
}

/// Makes the length field and the checksum agree with the bytes again,
/// so that the decoder gets past them to the payload.
fn resealed(frame: &[u8]) -> Option<Vec<u8>> {
    let payload = frame.len().checked_sub(HEADER_LEN + CHECKSUM_LEN)?;
    let mut frame = frame.to_vec();
    frame[4..HEADER_LEN].copy_from_slice(&(payload as u32).to_le_bytes());
    reseal(&mut frame);
    Some(frame)
}

/// Decodes every message in `bytes`, checking the invariants; `case`
/// describes how the bytes were made, for the failure message.
fn check(bytes: &[u8], case: &dyn Fn() -> String) {
    let mut stream = bytes;
    // Each decoded message consumes at least a header and a checksum.
    for _ in 0..=bytes.len() / (HEADER_LEN + CHECKSUM_LEN) {
        let (outcome, counts) =
            catch_unwind(AssertUnwindSafe(|| counted(|| read_message(&mut stream))))
                .unwrap_or_else(|_| panic!("the decoder panicked on {}", case()));
        assert!(
            counts.largest <= MAX_PAYLOAD + CHECKSUM_LEN,
            "one allocation of {} bytes decoding {}",
            counts.largest,
            case()
        );
        let message = match outcome {
            Ok(Some(message)) => message,
            Ok(None)
            | Err(ServeError::Corrupt { .. })
            | Err(ServeError::VersionMismatch { .. }) => return,
            Err(other) => panic!("untyped error {other:?} decoding {}", case()),
        };
        // Compared as bytes: a decoded float may be a NaN.
        let encoded = encode_message(&message);
        let again = read_message(&mut encoded.as_slice())
            .unwrap_or_else(|e| panic!("re-encoded {message:?} fails to decode ({e}): {}", case()))
            .expect("one frame");
        assert_eq!(
            encode_message(&again),
            encoded,
            "{message:?} does not round-trip: {}",
            case()
        );
    }
}

#[test]
fn mutated_frames_never_panic_and_fail_typed() {
    let seeds: Vec<Vec<u8>> = corpus().iter().map(encode_message).collect();
    for case in 0..CASES {
        let mut rng = TestRng::deterministic("mutated_frames_never_panic_and_fail_typed", case);
        let seed = rng.sample(0..seeds.len());
        let mut frame = seeds[seed].clone();
        let mutations: Vec<Mutation> = (0..rng.sample(1..=3u8))
            .map(|_| {
                let mutation = Mutation::draw(&mut rng, &frame);
                mutation.apply(&mut frame);
                mutation
            })
            .collect();
        let describe = |how: &str, bytes: &[u8]| {
            format!(
                "case {case} ({how}): seed message {seed}, mutations {mutations:?}, \
                 frame {bytes:02x?}"
            )
        };
        check(&frame, &|| describe("as mutated", &frame));
        if let Some(resealed) = resealed(&frame) {
            check(&resealed, &|| describe("resealed", &resealed));
        }
    }
}
