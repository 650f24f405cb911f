//! The ingest wire format: versioned, length-prefixed, checksummed frames.
//!
//! Every message travels as one self-delimiting binary frame sealed with
//! a word-wide checksum (below) — a flipped bit anywhere in a frame is
//! caught before the payload is interpreted, and a reader never trusts a
//! length it cannot bound.
//!
//! ## Frame layout
//!
//! ```text
//! offset  size  field
//! 0       2     magic  b"LW"
//! 2       1     wire format version (WIRE_VERSION on every frame)
//! 3       1     message type tag
//! 4       4     payload length P (u32 LE), P ≤ 16 MiB
//! 8       P     payload (all scalars little-endian)
//! 8+P     8     four-lane word checksum of bytes [0, 8+P) (u64 LE)
//! ```
//!
//! There is one protocol version, 9: writers stamp [`WIRE_VERSION`] on
//! every frame and readers accept exactly that version. Readers gate on
//! the version byte *before* verifying the checksum, so a frame from any
//! other protocol version fails with [`ServeError::VersionMismatch`],
//! not a corruption error — the same discipline as the model files.
//!
//! ## Checksum
//!
//! The checksummed bytes `[0, 8+P)` are read as 8-byte little-endian
//! words, the last one zero-padded (the length field already fixes how
//! many bytes are real). The header is word 0, so the tag and the payload
//! length are covered too. Word `i` steps lane `i mod 4` of four
//! independent 64-bit lanes — `s ← (s ⊕ w)·K; s ← s ⊕ (s ≫ 32)` with an
//! odd `K` — and the digest folds the four final lanes, in order, through
//! the same step from a fixed seed.
//!
//! Every step is a bijection of the lane state for a fixed word and of
//! the word for a fixed state, and the fold is a bijection of each lane.
//! A single-bit flip changes exactly one word of one lane, so it changes
//! that lane and therefore the digest: it is caught by construction, not
//! by chance. The lanes have no dependency on each other, so the checksum
//! runs at multiply throughput rather than latency. The model files keep
//! their byte-serial FNV-1a ([`crate::persist`]): the wire has one
//! version, while files already on disk have two.
//!
//! ## Messages
//!
//! | tag  | message            | direction | payload |
//! |------|--------------------|-----------|---------|
//! | 0x01 | `Hello`            | c → s     | `u32` patient length, patient bytes (ASCII), `u32` electrodes |
//! | 0x02 | `Frames`           | c → s     | interleaved `f32` samples (length = P / 4) |
//! | 0x03 | `Close`            | c → s     | empty |
//! | 0x04 | `Feedback`         | c → s     | `u8` label (0 interictal / 1 ictal), interleaved `f32` samples |
//! | 0x05 | `StatsRequest`     | c → s     | empty |
//! | 0x06 | `TraceDumpRequest` | c → s     | `u32` span limit (0 = everything retained) |
//! | 0x07 | `HealthRequest`    | c → s     | empty |
//! | 0x08 | `SessionStatsRequest` | c → s  | `u8` lookup flag, then `u64` session id when the flag is 1 |
//! | 0x81 | `Accepted`         | s → c     | `u64` session id, `u32` electrodes |
//! | 0x82 | `Throttle`         | s → c     | `u32` queued chunks, `u32` queue capacity |
//! | 0x83 | `Event`            | s → c     | one [`DetectorEvent`] (below), `alarm` absent |
//! | 0x84 | `Alarm`            | s → c     | one [`DetectorEvent`] with its alarm record |
//! | 0x85 | `ModelUpdated`     | s → c     | `u64` model generation now running |
//! | 0x86 | `StatsSnapshot`    | s → c     | `u32` family count, then that many metric families (layout below) |
//! | 0x87 | `TraceDump`        | s → c     | `u64` recorded, `u64` dropped, `u32` span count, then 40-byte [`WireSpan`] records |
//! | 0x88 | `HealthSnapshot`   | s → c     | one [`crate::HealthSnapshot`] (layout below) |
//! | 0x89 | `SessionStatsSnapshot` | s → c | one [`crate::SessionObsSnapshot`] (layout below) |
//! | 0xEE | `Error`            | either    | `u32` reason length, UTF-8 reason bytes |
//!
//! An event payload is `u64` index, `u64` end sample, `f64` time bits,
//! `u8` label (0 interictal / 1 ictal), `u64` distance to the interictal
//! prototype, `u64` distance to the ictal prototype, then — for `Alarm`
//! only — `u64` triggering label index and `f64` mean-Δ bits. Floats ride
//! as raw IEEE-754 bits for bit-exact parity with an in-process
//! [`laelaps_core::Detector`].
//!
//! `Feedback` carries a clinician-confirmed labeled segment for the
//! session's patient; the server's adaptation engine folds it into the
//! model off the hot path and answers — in stream order, at the exact
//! frame boundary where the hot-swap took effect — with `ModelUpdated`.
//! A label byte other than 0/1 is rejected as corrupt before the payload
//! reaches any training code.
//!
//! `StatsRequest`, `TraceDumpRequest`, `HealthRequest`, and
//! `SessionStatsRequest` open a read-only introspection exchange instead
//! of a streaming session: when a connection's *first* message is one of
//! them, the server answers each request with a `StatsSnapshot` /
//! `TraceDump` / `HealthSnapshot` / `SessionStatsSnapshot` and keeps
//! answering until the peer sends `Close` or disconnects. This is how
//! `laelapsctl` inspects a running [`crate::IngestServer`] without
//! opening a patient session. `HealthRequest` returns the SLO engine's
//! verdict, per-rule burn rates, transition journal, and time-series
//! tail (empty, with `enabled: false`, when [`crate::ServeConfig::health`]
//! is off).
//!
//! A `StatsSnapshot` payload is the [`crate::metrics`] catalogue, every
//! metric self-described: a `u32` family count, then per family its name
//! and help (each a `u32` length + UTF-8 bytes), a `u8` kind (0 counter,
//! 1 gauge, 2 summary; any other byte is corrupt) and a `u32` sample
//! count. Per sample: its name, a `u32` label count, each label's key and
//! value strings, then the value's `f64` bits. Readers look samples up by
//! name ([`crate::metrics::value`]), so a new metric needs no codec
//! change.
//!
//! A `HealthSnapshot` payload is `u8` enabled, `u8` verdict, `u64`
//! ticks, `u64` transitions total, then three counted lists (`u32`
//! count first): rules (`u32` name length + UTF-8 name, `u8` verdict,
//! `f64` fast and slow burn bits), transitions (`u64` tick, `u32` rule
//! length + UTF-8 rule, `u8` from and `u8` to verdicts, `f64` fast and
//! slow burn bits), and series rows (`u64` seq, `u32` word count, that
//! many `u64` words). Verdicts are [`crate::HealthVerdict`]
//! discriminants; any other byte is corrupt.
//!
//! A `SessionStatsSnapshot` payload is `u8` enabled, `u64` drain ticks,
//! `u32` top-row count + that many rows, then `u8` lookup flag + one row
//! when the flag is 1. A row is `u64` session id, `u32` shard, `u64`
//! model generation, `u32` patient length + UTF-8 patient bytes, eleven
//! `u64` [`crate::SessionStats`] words (frames in / dropped / refused /
//! discarded / processed, events, alarms, drains, max drain µs, last
//! drain tick, EWMA drain µs), and three `u64` heavy-hitter scores
//! (latency / saturation / discard).
//!
//! # Examples
//!
//! ```
//! use laelaps_serve::wire::{read_message, write_message, Message};
//!
//! let mut buf = Vec::new();
//! write_message(&mut buf, &Message::Hello {
//!     patient: "P01".into(),
//!     electrodes: 4,
//! })?;
//! write_message(&mut buf, &Message::Close)?;
//! let mut stream = buf.as_slice();
//! assert!(matches!(
//!     read_message(&mut stream)?,
//!     Some(Message::Hello { electrodes: 4, .. })
//! ));
//! assert_eq!(read_message(&mut stream)?, Some(Message::Close));
//! assert_eq!(read_message(&mut stream)?, None); // clean end of stream
//! # Ok::<(), laelaps_serve::ServeError>(())
//! ```

use std::io::{IoSliceMut, Read, Write};

use laelaps_core::{Alarm, Classification, DetectorEvent, Label};
use laelaps_telemetry::{Clock, Mark};

use crate::error::{Result, ServeError};
use crate::health::{HealthSnapshot, HealthTransition, HealthVerdict, RuleEval, SeriesSample};
use crate::metrics::{MetricFamily, MetricKind, MetricSample};
use crate::stats::{SessionObsRow, SessionObsSnapshot, SessionScores, SessionStats};

/// Magic bytes opening every wire frame.
pub const WIRE_MAGIC: [u8; 2] = *b"LW";

/// The wire format version: stamped on every frame, and the only one a
/// reader accepts.
pub const WIRE_VERSION: u8 = 9;

/// Frame header length: magic + version + tag + payload length.
pub const HEADER_LEN: usize = 8;

/// Trailing checksum length.
pub const CHECKSUM_LEN: usize = 8;

/// Upper bound on a frame's payload. Large enough for ~17 minutes of
/// 8-electrode 512 Hz signal in one `Frames` message; small enough that a
/// corrupted (or hostile) length field cannot make a reader allocate
/// unboundedly.
pub const MAX_PAYLOAD: usize = 16 << 20;

const TAG_HELLO: u8 = 0x01;
const TAG_FRAMES: u8 = 0x02;
const TAG_CLOSE: u8 = 0x03;
const TAG_FEEDBACK: u8 = 0x04;
const TAG_STATS_REQUEST: u8 = 0x05;
const TAG_TRACE_DUMP_REQUEST: u8 = 0x06;
const TAG_HEALTH_REQUEST: u8 = 0x07;
const TAG_SESSION_STATS_REQUEST: u8 = 0x08;
const TAG_ACCEPTED: u8 = 0x81;
const TAG_THROTTLE: u8 = 0x82;
const TAG_EVENT: u8 = 0x83;
const TAG_ALARM: u8 = 0x84;
const TAG_MODEL_UPDATED: u8 = 0x85;
const TAG_STATS_SNAPSHOT: u8 = 0x86;
const TAG_TRACE_DUMP: u8 = 0x87;
const TAG_HEALTH_SNAPSHOT: u8 = 0x88;
const TAG_SESSION_STATS_SNAPSHOT: u8 = 0x89;
const TAG_ERROR: u8 = 0xEE;

/// One ingest-protocol message; see the [module docs](self) for the
/// exact byte layout of each variant.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → server: open a stream for `patient`, declaring the
    /// electrode count every subsequent chunk interleaves.
    Hello {
        /// Patient id the client wants a session for.
        patient: String,
        /// Samples per frame the client will send.
        electrodes: u32,
    },
    /// Client → server: a chunk of interleaved frame-major samples.
    Frames {
        /// The samples; length must divide by the session's electrodes.
        chunk: Box<[f32]>,
    },
    /// Client → server: no more frames; the server drains, streams the
    /// remaining events, and closes the connection.
    Close,
    /// Client → server: a clinician-confirmed labeled segment for this
    /// session's patient, to be folded into the model by the server's
    /// adaptation engine (answered later by [`Message::ModelUpdated`]).
    Feedback {
        /// The confirmed brain-state label of the segment.
        label: Label,
        /// Interleaved frame-major samples; length must divide by the
        /// session's electrode count.
        chunk: Box<[f32]>,
    },
    /// Client → server: ask for every service metric. Valid only
    /// as the first message of a connection (which it turns into an
    /// introspection exchange) or later within one.
    StatsRequest,
    /// Client → server: ask for the flight recorder's retained spans.
    /// Same introspection-only placement as [`Message::StatsRequest`].
    TraceDumpRequest {
        /// Most recent spans to return; 0 means everything retained.
        limit: u32,
    },
    /// Client → server: ask for the SLO engine's live health view. Same
    /// introspection-only placement as [`Message::StatsRequest`].
    HealthRequest,
    /// Client → server: ask for the per-session observability view (the
    /// heavy-hitter top-K plus an optional single-session lookup). Same
    /// introspection-only placement as [`Message::StatsRequest`].
    SessionStatsRequest {
        /// A specific session id to look up alongside the top-K, if any.
        session: Option<u64>,
    },
    /// Server → client: the `Hello` was accepted and a session is live.
    Accepted {
        /// Session id within the serving process.
        session: u64,
        /// Electrode count the session expects (echo of the model's).
        electrodes: u32,
    },
    /// Server → client: the session's queue is full; the server is
    /// holding the offending chunk and will not read more until it fits
    /// (explicit backpressure — nothing was dropped).
    Throttle {
        /// Chunks waiting in the session queue when the push failed.
        queued_chunks: u32,
        /// The queue's capacity in chunks.
        capacity_chunks: u32,
    },
    /// Server → client: one classification event (no alarm attached).
    Event {
        /// The event, bit-exact with an in-process detector's.
        event: DetectorEvent,
    },
    /// Server → client: a classification event whose postprocessor
    /// raised an alarm.
    Alarm {
        /// The event; `event.alarm` is always `Some`.
        event: DetectorEvent,
    },
    /// Server → client: the session's detector was hot-swapped to a new
    /// model generation. Sent in stream order: every `Event`/`Alarm`
    /// before it came from the previous model, every one after it from
    /// the new model.
    ModelUpdated {
        /// Generation of the model now running.
        generation: u64,
    },
    /// Server → client: every service metric, as the catalogue's
    /// self-describing families, answering a [`Message::StatsRequest`].
    StatsSnapshot {
        /// The families [`crate::metrics::scrape`] built, in exposition
        /// order.
        families: Vec<MetricFamily>,
    },
    /// Server → client: the SLO engine's verdict, rule evaluations,
    /// transition journal, and time-series tail answering a
    /// [`Message::HealthRequest`].
    HealthSnapshot {
        /// The health view (boxed: it carries the series tail and only
        /// travels on the introspection path).
        health: Box<HealthSnapshot>,
    },
    /// Server → client: the heavy-hitter sessions and optional lookup
    /// row answering a [`Message::SessionStatsRequest`].
    SessionStatsSnapshot {
        /// The snapshot (boxed: it carries per-session rows and only
        /// travels on the introspection path).
        sessions: Box<SessionObsSnapshot>,
    },
    /// Server → client: the flight recorder's retained spans answering a
    /// [`Message::TraceDumpRequest`].
    TraceDump {
        /// Spans ever written to the recorder (including overwritten).
        recorded: u64,
        /// Spans lost to recorder slot collisions.
        dropped: u64,
        /// The retained spans, oldest first.
        spans: Vec<WireSpan>,
    },
    /// Either direction: the sender hit a fatal condition; the stream is
    /// over.
    Error {
        /// Human-readable description of what went wrong.
        reason: String,
    },
}

/// One completed hot-path span on the wire — a fixed 40-byte record:
/// `u64` trace id, `u8` stage discriminant, `u8` pin reason (0 =
/// unpinned), `u16` shard, `u32` model generation, `u64` session id,
/// `u64` start (µs since the tracer's epoch), `u64` duration (µs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireSpan {
    /// The chunk's trace id.
    pub trace_id: u64,
    /// [`laelaps_telemetry::Stage`] discriminant.
    pub stage: u8,
    /// [`laelaps_telemetry::PinReason`] discriminant if this span's
    /// trace was pinned; 0 when unpinned.
    pub pin: u8,
    /// Shard the span ran on.
    pub shard: u16,
    /// Model generation the session was running.
    pub generation: u32,
    /// Session id.
    pub session: u64,
    /// Span start, microseconds since the tracer's epoch.
    pub start_us: u64,
    /// Span duration, microseconds.
    pub dur_us: u64,
}

impl WireSpan {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.trace_id.to_le_bytes());
        out.push(self.stage);
        out.push(self.pin);
        out.extend_from_slice(&self.shard.to_le_bytes());
        out.extend_from_slice(&self.generation.to_le_bytes());
        out.extend_from_slice(&self.session.to_le_bytes());
        out.extend_from_slice(&self.start_us.to_le_bytes());
        out.extend_from_slice(&self.dur_us.to_le_bytes());
    }

    fn decode(cursor: &mut Cursor<'_>) -> Result<Self> {
        Ok(WireSpan {
            trace_id: cursor.u64()?,
            stage: cursor.u8()?,
            pin: cursor.u8()?,
            shard: cursor.u16()?,
            generation: cursor.u32()?,
            session: cursor.u64()?,
            start_us: cursor.u64()?,
            dur_us: cursor.u64()?,
        })
    }
}

fn encode_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn decode_str(cursor: &mut Cursor<'_>, what: &str) -> Result<String> {
    let len = cursor.u32()? as usize;
    String::from_utf8(cursor.take(len)?.to_vec())
        .map_err(|_| corrupt(format!("{what} is not UTF-8")))
}

fn encode_families(out: &mut Vec<u8>, families: &[MetricFamily]) {
    out.extend_from_slice(&(families.len() as u32).to_le_bytes());
    for family in families {
        encode_str(out, &family.name);
        encode_str(out, &family.help);
        out.push(family.kind as u8);
        out.extend_from_slice(&(family.samples.len() as u32).to_le_bytes());
        for sample in &family.samples {
            encode_str(out, &sample.name);
            out.extend_from_slice(&(sample.labels.len() as u32).to_le_bytes());
            for (key, value) in &sample.labels {
                encode_str(out, key);
                encode_str(out, value);
            }
            out.extend_from_slice(&sample.value.to_bits().to_le_bytes());
        }
    }
}

fn decode_families(cursor: &mut Cursor<'_>) -> Result<Vec<MetricFamily>> {
    let mut families = Vec::new();
    for _ in 0..cursor.u32()? {
        let name = decode_str(cursor, "metric family name")?;
        let help = decode_str(cursor, "metric help")?;
        let raw = cursor.u8()?;
        let kind = *MetricKind::ALL
            .get(raw as usize)
            .ok_or_else(|| corrupt(format!("unknown metric kind byte 0x{raw:02x}")))?;
        let mut samples = Vec::new();
        for _ in 0..cursor.u32()? {
            let name = decode_str(cursor, "metric sample name")?;
            let mut labels = Vec::new();
            for _ in 0..cursor.u32()? {
                labels.push((
                    decode_str(cursor, "label key")?,
                    decode_str(cursor, "label value")?,
                ));
            }
            let value = cursor.f64_bits()?;
            samples.push(MetricSample {
                name,
                labels,
                value,
            });
        }
        families.push(MetricFamily {
            name,
            help,
            kind,
            samples,
        });
    }
    Ok(families)
}

fn encode_health(out: &mut Vec<u8>, health: &HealthSnapshot) {
    out.push(health.enabled as u8);
    out.push(health.verdict as u8);
    out.extend_from_slice(&health.ticks.to_le_bytes());
    out.extend_from_slice(&health.transitions_total.to_le_bytes());
    out.extend_from_slice(&(health.rules.len() as u32).to_le_bytes());
    for rule in &health.rules {
        encode_str(out, &rule.name);
        out.push(rule.verdict as u8);
        out.extend_from_slice(&rule.fast_burn.to_bits().to_le_bytes());
        out.extend_from_slice(&rule.slow_burn.to_bits().to_le_bytes());
    }
    out.extend_from_slice(&(health.transitions.len() as u32).to_le_bytes());
    for transition in &health.transitions {
        out.extend_from_slice(&transition.tick.to_le_bytes());
        encode_str(out, &transition.rule);
        out.push(transition.from as u8);
        out.push(transition.to as u8);
        out.extend_from_slice(&transition.fast_burn.to_bits().to_le_bytes());
        out.extend_from_slice(&transition.slow_burn.to_bits().to_le_bytes());
    }
    out.extend_from_slice(&(health.series.len() as u32).to_le_bytes());
    for row in &health.series {
        out.extend_from_slice(&row.seq.to_le_bytes());
        out.extend_from_slice(&(row.words.len() as u32).to_le_bytes());
        for word in &row.words {
            out.extend_from_slice(&word.to_le_bytes());
        }
    }
}

fn decode_verdict(cursor: &mut Cursor<'_>) -> Result<HealthVerdict> {
    let raw = cursor.u8()?;
    HealthVerdict::from_raw(raw).ok_or_else(|| corrupt(format!("unknown verdict byte 0x{raw:02x}")))
}

fn decode_health(cursor: &mut Cursor<'_>) -> Result<HealthSnapshot> {
    let enabled = cursor.u8()? != 0;
    let verdict = decode_verdict(cursor)?;
    let ticks = cursor.u64()?;
    let transitions_total = cursor.u64()?;
    let mut rules = Vec::new();
    for _ in 0..cursor.u32()? {
        rules.push(RuleEval {
            name: decode_str(cursor, "rule name")?,
            verdict: decode_verdict(cursor)?,
            fast_burn: cursor.f64_bits()?,
            slow_burn: cursor.f64_bits()?,
        });
    }
    let mut transitions = Vec::new();
    for _ in 0..cursor.u32()? {
        transitions.push(HealthTransition {
            tick: cursor.u64()?,
            rule: decode_str(cursor, "transition rule")?,
            from: decode_verdict(cursor)?,
            to: decode_verdict(cursor)?,
            fast_burn: cursor.f64_bits()?,
            slow_burn: cursor.f64_bits()?,
        });
    }
    let mut series = Vec::new();
    for _ in 0..cursor.u32()? {
        let seq = cursor.u64()?;
        let mut words = Vec::new();
        for _ in 0..cursor.u32()? {
            words.push(cursor.u64()?);
        }
        series.push(SeriesSample { seq, words });
    }
    Ok(HealthSnapshot {
        enabled,
        verdict,
        ticks,
        transitions_total,
        rules,
        transitions,
        series,
    })
}

fn encode_session_row(out: &mut Vec<u8>, row: &SessionObsRow) {
    out.extend_from_slice(&row.session.to_le_bytes());
    out.extend_from_slice(&(row.shard.min(u32::MAX as usize) as u32).to_le_bytes());
    out.extend_from_slice(&row.generation.to_le_bytes());
    encode_str(out, &row.patient);
    let s = &row.stats;
    for v in [
        s.frames_in,
        s.frames_dropped,
        s.frames_refused,
        s.frames_discarded,
        s.frames_processed,
        s.events_out,
        s.alarms_out,
        s.drains,
        s.max_drain_micros,
        s.last_drain_tick,
        s.ewma_drain_us,
        row.scores.latency,
        row.scores.saturation,
        row.scores.discard,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn decode_session_row(cursor: &mut Cursor<'_>) -> Result<SessionObsRow> {
    Ok(SessionObsRow {
        session: cursor.u64()?,
        shard: cursor.u32()? as usize,
        generation: cursor.u64()?,
        patient: decode_str(cursor, "session patient id")?,
        stats: SessionStats {
            frames_in: cursor.u64()?,
            frames_dropped: cursor.u64()?,
            frames_refused: cursor.u64()?,
            frames_discarded: cursor.u64()?,
            frames_processed: cursor.u64()?,
            events_out: cursor.u64()?,
            alarms_out: cursor.u64()?,
            drains: cursor.u64()?,
            max_drain_micros: cursor.u64()?,
            last_drain_tick: cursor.u64()?,
            ewma_drain_us: cursor.u64()?,
        },
        scores: SessionScores {
            latency: cursor.u64()?,
            saturation: cursor.u64()?,
            discard: cursor.u64()?,
        },
    })
}

fn encode_session_obs(out: &mut Vec<u8>, obs: &SessionObsSnapshot) {
    out.push(obs.enabled as u8);
    out.extend_from_slice(&obs.ticks.to_le_bytes());
    out.extend_from_slice(&(obs.top.len() as u32).to_le_bytes());
    for row in &obs.top {
        encode_session_row(out, row);
    }
    match &obs.lookup {
        Some(row) => {
            out.push(1);
            encode_session_row(out, row);
        }
        None => out.push(0),
    }
}

fn decode_session_obs(cursor: &mut Cursor<'_>) -> Result<SessionObsSnapshot> {
    let enabled = cursor.u8()? != 0;
    let ticks = cursor.u64()?;
    let mut top = Vec::new();
    for _ in 0..cursor.u32()? {
        top.push(decode_session_row(cursor)?);
    }
    let lookup = match cursor.u8()? {
        0 => None,
        1 => Some(decode_session_row(cursor)?),
        other => return Err(corrupt(format!("unknown lookup flag 0x{other:02x}"))),
    };
    Ok(SessionObsSnapshot {
        enabled,
        ticks,
        top,
        lookup,
    })
}

/// Builds the [`Message::TraceDump`] answering a request with `limit`:
/// the snapshot's spans (already oldest-first) with each trace's pin
/// reason stamped, keeping only the most recent `limit` when `limit` is
/// non-zero.
pub fn trace_dump_message(snapshot: &laelaps_telemetry::TraceSnapshot, limit: u32) -> Message {
    let skip = if limit == 0 {
        0
    } else {
        snapshot.spans.len().saturating_sub(limit as usize)
    };
    let spans = snapshot.spans[skip..]
        .iter()
        .map(|span| WireSpan {
            trace_id: span.trace_id,
            stage: span.stage as u8,
            pin: snapshot
                .pin_reason(span.trace_id)
                .map(|r| r as u8)
                .unwrap_or(0),
            shard: span.shard,
            generation: span.generation,
            session: span.session,
            start_us: span.start_us,
            dur_us: span.dur_us,
        })
        .collect();
    Message::TraceDump {
        recorded: snapshot.recorded,
        dropped: snapshot.dropped,
        spans,
    }
}

impl Message {
    fn tag(&self) -> u8 {
        match self {
            Message::Hello { .. } => TAG_HELLO,
            Message::Frames { .. } => TAG_FRAMES,
            Message::Close => TAG_CLOSE,
            Message::Feedback { .. } => TAG_FEEDBACK,
            Message::StatsRequest => TAG_STATS_REQUEST,
            Message::TraceDumpRequest { .. } => TAG_TRACE_DUMP_REQUEST,
            Message::HealthRequest => TAG_HEALTH_REQUEST,
            Message::SessionStatsRequest { .. } => TAG_SESSION_STATS_REQUEST,
            Message::Accepted { .. } => TAG_ACCEPTED,
            Message::Throttle { .. } => TAG_THROTTLE,
            Message::Event { .. } => TAG_EVENT,
            Message::Alarm { .. } => TAG_ALARM,
            Message::ModelUpdated { .. } => TAG_MODEL_UPDATED,
            Message::StatsSnapshot { .. } => TAG_STATS_SNAPSHOT,
            Message::TraceDump { .. } => TAG_TRACE_DUMP,
            Message::HealthSnapshot { .. } => TAG_HEALTH_SNAPSHOT,
            Message::SessionStatsSnapshot { .. } => TAG_SESSION_STATS_SNAPSHOT,
            Message::Error { .. } => TAG_ERROR,
        }
    }

    /// Payload bytes the message encodes to, where that is known without
    /// encoding it: the sample payloads, which are nearly every byte the
    /// wire carries.
    fn sample_payload_len(&self) -> usize {
        match self {
            Message::Frames { chunk } => chunk.len() * 4,
            Message::Feedback { chunk, .. } => 1 + chunk.len() * 4,
            _ => 0,
        }
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            Message::Hello {
                patient,
                electrodes,
            } => {
                out.extend_from_slice(&(patient.len() as u32).to_le_bytes());
                out.extend_from_slice(patient.as_bytes());
                out.extend_from_slice(&electrodes.to_le_bytes());
            }
            Message::Frames { chunk } => put_samples(out, chunk),
            Message::Close => {}
            Message::Feedback { label, chunk } => put_feedback(out, *label, chunk),
            Message::Accepted {
                session,
                electrodes,
            } => {
                out.extend_from_slice(&session.to_le_bytes());
                out.extend_from_slice(&electrodes.to_le_bytes());
            }
            Message::Throttle {
                queued_chunks,
                capacity_chunks,
            } => {
                out.extend_from_slice(&queued_chunks.to_le_bytes());
                out.extend_from_slice(&capacity_chunks.to_le_bytes());
            }
            Message::Event { event } | Message::Alarm { event } => {
                out.extend_from_slice(&event.index.to_le_bytes());
                out.extend_from_slice(&event.end_sample.to_le_bytes());
                out.extend_from_slice(&event.time_secs.to_bits().to_le_bytes());
                out.push(event.classification.label.is_ictal() as u8);
                out.extend_from_slice(&(event.classification.dist_interictal as u64).to_le_bytes());
                out.extend_from_slice(&(event.classification.dist_ictal as u64).to_le_bytes());
                if let Some(alarm) = &event.alarm {
                    out.extend_from_slice(&alarm.label_index.to_le_bytes());
                    out.extend_from_slice(&alarm.mean_delta.to_bits().to_le_bytes());
                }
            }
            Message::StatsRequest => {}
            Message::TraceDumpRequest { limit } => {
                out.extend_from_slice(&limit.to_le_bytes());
            }
            Message::HealthRequest => {}
            Message::SessionStatsRequest { session } => match session {
                Some(id) => {
                    out.push(1);
                    out.extend_from_slice(&id.to_le_bytes());
                }
                None => out.push(0),
            },
            Message::ModelUpdated { generation } => {
                out.extend_from_slice(&generation.to_le_bytes());
            }
            Message::StatsSnapshot { families } => encode_families(out, families),
            Message::HealthSnapshot { health } => encode_health(out, health),
            Message::SessionStatsSnapshot { sessions } => encode_session_obs(out, sessions),
            Message::TraceDump {
                recorded,
                dropped,
                spans,
            } => {
                out.reserve(8 + 8 + 4 + spans.len() * 40);
                out.extend_from_slice(&recorded.to_le_bytes());
                out.extend_from_slice(&dropped.to_le_bytes());
                out.extend_from_slice(&(spans.len() as u32).to_le_bytes());
                for span in spans {
                    span.encode_into(out);
                }
            }
            Message::Error { reason } => {
                out.extend_from_slice(&(reason.len() as u32).to_le_bytes());
                out.extend_from_slice(reason.as_bytes());
            }
        }
    }
}

fn corrupt(reason: impl Into<String>) -> ServeError {
    ServeError::Corrupt {
        reason: format!("wire: {}", reason.into()),
    }
}

// ---------------------------------------------------------------------------
// Frame checksum
// ---------------------------------------------------------------------------

/// Independent lanes of the frame checksum: frame word `i` steps lane
/// `i % LANES`.
const LANES: usize = 4;

/// Lane starting states: the first four SHA-512 initial hash words
/// (arbitrary, distinct and public).
const LANE_SEEDS: [u64; LANES] = [
    0x6a09_e667_f3bc_c908,
    0xbb67_ae85_84ca_a73b,
    0x3c6e_f372_fe94_f82b,
    0xa54f_f53a_5f1d_36f1,
];

/// Starting state of the fold over the final lanes: the fifth SHA-512
/// initial hash word.
const FOLD_SEED: u64 = 0x510e_527f_ade6_82d1;

/// The odd multiplier of a lane step: 2⁶⁴/φ, rounded to odd.
const LANE_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// One lane step. The xor, the multiplication by an odd constant and
/// the xorshift are each bijective, so for a fixed word the step is a
/// bijection of the state, and for a fixed state a bijection of the word.
#[inline(always)]
fn lane_step(state: u64, word: u64) -> u64 {
    let x = (state ^ word).wrapping_mul(LANE_MUL);
    x ^ (x >> 32)
}

fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
}

/// The frame checksum of the [module docs](self#checksum), over bytes fed
/// in any split: a reader feeds the header and then the payload parts it
/// read into their final buffers.
struct FrameDigest {
    lanes: [u64; LANES],
    /// Whole words absorbed so far.
    words: usize,
    /// The leading bytes of a word that the next update completes.
    tail: [u8; 8],
    tail_len: usize,
}

impl FrameDigest {
    fn new() -> Self {
        FrameDigest {
            lanes: LANE_SEEDS,
            words: 0,
            tail: [0; 8],
            tail_len: 0,
        }
    }

    fn word(&mut self, word: u64) {
        let lane = &mut self.lanes[self.words % LANES];
        *lane = lane_step(*lane, word);
        self.words += 1;
    }

    fn update(&mut self, mut bytes: &[u8]) {
        if self.tail_len > 0 {
            let take = bytes.len().min(8 - self.tail_len);
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < 8 {
                return;
            }
            self.tail_len = 0;
            self.word(u64::from_le_bytes(self.tail));
        }
        while !self.words.is_multiple_of(LANES) && bytes.len() >= 8 {
            self.word(le_word(&bytes[..8]));
            bytes = &bytes[8..];
        }
        // From a lane-0 word on, each block of four words steps the four
        // lanes side by side.
        let mut blocks = bytes.chunks_exact(8 * LANES);
        let mut lanes = self.lanes;
        for block in &mut blocks {
            for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
                *lane = lane_step(*lane, le_word(word));
            }
        }
        self.lanes = lanes;
        self.words += bytes.len() / (8 * LANES) * LANES;
        let mut words = blocks.remainder().chunks_exact(8);
        for word in &mut words {
            self.word(le_word(word));
        }
        let rest = words.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    fn finish(mut self) -> u64 {
        if self.tail_len > 0 {
            self.tail[self.tail_len..].fill(0);
            self.word(u64::from_le_bytes(self.tail));
        }
        self.lanes.into_iter().fold(FOLD_SEED, lane_step)
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Appends `samples` as little-endian `f32`s.
fn put_samples(out: &mut Vec<u8>, samples: &[f32]) {
    let start = out.len();
    out.resize(start + samples.len() * 4, 0);
    for (bytes, sample) in out[start..].chunks_exact_mut(4).zip(samples) {
        bytes.copy_from_slice(&sample.to_le_bytes());
    }
}

fn put_feedback(out: &mut Vec<u8>, label: Label, samples: &[f32]) {
    out.push(label.is_ictal() as u8);
    put_samples(out, samples);
}

/// Appends one sealed frame to `out`: the header, the payload that `body`
/// appends (about `payload_hint` bytes, reserved up front), and the
/// checksum over both. Every frame a writer sends is framed here.
fn append_frame(out: &mut Vec<u8>, tag: u8, payload_hint: usize, body: impl FnOnce(&mut Vec<u8>)) {
    out.reserve(HEADER_LEN + payload_hint + CHECKSUM_LEN);
    let start = out.len();
    out.extend_from_slice(&WIRE_MAGIC);
    out.push(WIRE_VERSION);
    out.push(tag);
    out.extend_from_slice(&[0; 4]);
    body(out);
    let payload_len = (out.len() - start - HEADER_LEN) as u32;
    out[start + 4..start + HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
    let mut digest = FrameDigest::new();
    digest.update(&out[start..]);
    out.extend_from_slice(&digest.finish().to_le_bytes());
}

/// Appends `message` to `out` as one complete wire frame; a connection
/// batches several frames into one write this way.
pub(crate) fn append_message(out: &mut Vec<u8>, message: &Message) {
    append_frame(out, message.tag(), message.sample_payload_len(), |out| {
        message.encode_payload(out)
    });
}

/// Appends the frame of a [`Message::Frames`] carrying `samples`, without
/// building the message.
pub(crate) fn append_frames(out: &mut Vec<u8>, samples: &[f32]) {
    append_frame(out, TAG_FRAMES, samples.len() * 4, |out| {
        put_samples(out, samples)
    });
}

/// Appends the frame of a [`Message::Feedback`] carrying `label` and
/// `samples`, without building the message.
pub(crate) fn append_feedback(out: &mut Vec<u8>, label: Label, samples: &[f32]) {
    append_frame(out, TAG_FEEDBACK, 1 + samples.len() * 4, |out| {
        put_feedback(out, label, samples)
    });
}

/// Refuses a payload of `payload_len` bytes if it exceeds
/// [`MAX_PAYLOAD`]: the peer could only reject its frame as corrupt.
pub(crate) fn check_payload_len(payload_len: usize) -> Result<()> {
    if payload_len > MAX_PAYLOAD {
        return Err(ServeError::Protocol {
            reason: format!(
                "message payload of {payload_len} bytes exceeds the \
                 {MAX_PAYLOAD}-byte frame cap"
            ),
        });
    }
    Ok(())
}

/// Encodes `message` into one complete wire frame.
///
/// Does not enforce [`MAX_PAYLOAD`]; use [`write_message`], which
/// rejects oversized messages before any byte reaches the transport
/// (an oversized frame would be unreadable on the other end).
pub fn encode_message(message: &Message) -> Vec<u8> {
    let mut frame = Vec::new();
    append_message(&mut frame, message);
    frame
}

/// Encodes `message` and writes the frame to `writer`.
///
/// # Errors
///
/// Returns [`ServeError::Protocol`] if the payload exceeds
/// [`MAX_PAYLOAD`] (nothing is written — the peer could only reject the
/// frame as corrupt), or [`ServeError::Io`] on write failure.
pub fn write_message<W: Write>(writer: &mut W, message: &Message) -> Result<()> {
    let frame = encode_message(message);
    check_payload_len(frame.len() - HEADER_LEN - CHECKSUM_LEN)?;
    writer.write_all(&frame)?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// Fills every buffer of `bufs`, in order, distinguishing a clean
/// end-of-stream before the first byte (`Ok(false)`) from a truncation
/// (error). One vectored read can fill a payload and its checksum.
fn read_full<R: Read>(reader: &mut R, mut bufs: &mut [IoSliceMut<'_>]) -> Result<bool> {
    let total: usize = bufs.iter().map(|buf| buf.len()).sum();
    let mut filled = 0;
    while filled < total {
        match reader.read_vectored(bufs) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => return Err(corrupt("frame truncated by end of stream")),
            Ok(n) => {
                filled += n;
                IoSliceMut::advance_slices(&mut bufs, n);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(true)
}

/// Reads the rest of a frame whose header was read: the payload into
/// `parts`, in order, then the checksum, which must match the one
/// computed over `header` and the parts.
fn read_sealed<R: Read>(
    reader: &mut R,
    header: &[u8; HEADER_LEN],
    parts: &mut [&mut [u8]],
) -> Result<()> {
    let mut footer = [0u8; CHECKSUM_LEN];
    let count = parts.len();
    {
        // A payload has at most two parts (a label and the samples); one
        // vectored read takes them and the checksum.
        let mut bufs: [IoSliceMut<'_>; 3] = std::array::from_fn(|_| IoSliceMut::new(&mut []));
        for (buf, part) in bufs.iter_mut().zip(parts.iter_mut()) {
            *buf = IoSliceMut::new(part);
        }
        bufs[count] = IoSliceMut::new(&mut footer);
        if !read_full(reader, &mut bufs[..=count])? {
            return Err(corrupt("frame truncated by end of stream"));
        }
    }
    let mut digest = FrameDigest::new();
    digest.update(header);
    for part in parts.iter() {
        digest.update(part);
    }
    if digest.finish() != u64::from_le_bytes(footer) {
        return Err(corrupt("checksum mismatch"));
    }
    Ok(())
}

/// A zeroed chunk of `len` samples: one allocation, which the payload is
/// read into and which the session ring then takes.
fn sample_chunk(len: usize) -> Box<[f32]> {
    vec![0.0; len].into_boxed_slice()
}

/// The bytes of `samples`, so a payload is read straight into the chunk
/// it becomes.
fn sample_bytes(samples: &mut [f32]) -> &mut [u8] {
    let len = std::mem::size_of_val(samples);
    // SAFETY: the pointer comes from a live `&mut [f32]` of exactly `len`
    // bytes, which the returned slice borrows mutably for its whole
    // lifetime, so nothing else can access that memory meanwhile. `u8` has
    // alignment 1, and `f32` has no padding and no invalid bit patterns, so
    // every byte is initialized and any bytes written through the view
    // leave valid `f32`s behind.
    unsafe { std::slice::from_raw_parts_mut(samples.as_mut_ptr().cast::<u8>(), len) }
}

/// Turns samples read as raw little-endian bytes into native ones (a
/// no-op on little-endian targets). Runs after the checksum, which covers
/// the bytes as they travelled.
fn samples_from_le(samples: &mut [f32]) {
    if cfg!(target_endian = "big") {
        for sample in samples {
            *sample = f32::from_bits(u32::from_le(sample.to_bits()));
        }
    }
}

fn decode_label(raw: u8, what: &str) -> Result<Label> {
    match raw {
        0 => Ok(Label::Interictal),
        1 => Ok(Label::Ictal),
        other => Err(corrupt(format!("unknown {what} byte 0x{other:02x}"))),
    }
}

/// Reads and verifies one frame from `reader`.
///
/// Returns `Ok(None)` on a clean end of stream (EOF exactly at a frame
/// boundary); an EOF anywhere inside a frame is
/// [`ServeError::Corrupt`].
///
/// # Errors
///
/// * [`ServeError::VersionMismatch`] — frame from any other protocol
///   version (gated before the checksum, mirroring
///   [`crate::load_model`]);
/// * [`ServeError::Corrupt`] — bad magic, oversized or truncated
///   payload, checksum mismatch, unknown tag, or malformed payload;
/// * [`ServeError::Io`] — transport failure.
pub fn read_message<R: Read>(reader: &mut R) -> Result<Option<Message>> {
    Ok(read_message_spanned(reader, None)?.map(|(message, _)| message))
}

/// [`read_message`] that also hands back the message's decode mark,
/// opened on `clock` once the 8-byte header has fully arrived — so idle
/// socket waits between messages are never charged to decode latency,
/// only validating and reading the body, the checksum pass, and payload
/// parsing. The caller closes the mark as
/// [`laelaps_telemetry::Stage::WireDecode`].
///
/// A `Frames` message opens a new item: its mark mints the chunk's trace
/// ([`Clock::begin`]), so the chunk's trace starts with its decode span.
/// Any other message gets an untraced mark. The mark holds an instant
/// only when stage timing is on or the chunk is traced; otherwise, and
/// without a clock, it is empty and no clock is read.
///
/// # Errors
///
/// Same as [`read_message`].
pub fn read_message_spanned<R: Read>(
    reader: &mut R,
    clock: Option<&Clock>,
) -> Result<Option<(Message, Mark)>> {
    let mut header = [0u8; HEADER_LEN];
    if !read_full(reader, &mut [IoSliceMut::new(&mut header)])? {
        return Ok(None);
    }
    let decode = match clock {
        Some(clock) if header[3] == TAG_FRAMES => clock.begin(),
        Some(clock) => clock.mark(None),
        None => Mark::default(),
    };
    if header[..2] != WIRE_MAGIC {
        return Err(corrupt("bad magic (not a Laelaps wire frame)"));
    }
    let version = header[2];
    if version != WIRE_VERSION {
        return Err(ServeError::VersionMismatch {
            found: version as u64,
            supported: WIRE_VERSION as u32,
        });
    }
    let tag = header[3];
    let payload_len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
    if payload_len > MAX_PAYLOAD {
        return Err(corrupt(format!(
            "payload length {payload_len} exceeds the {MAX_PAYLOAD}-byte cap"
        )));
    }
    let message = match tag {
        // Whole-sample payloads are read straight into the chunk they
        // become; other lengths fail in `decode_payload`, after the
        // checksum like every malformed payload.
        TAG_FRAMES if payload_len.is_multiple_of(4) => {
            let mut chunk = sample_chunk(payload_len / 4);
            read_sealed(reader, &header, &mut [sample_bytes(&mut chunk)])?;
            samples_from_le(&mut chunk);
            Message::Frames { chunk }
        }
        TAG_FEEDBACK if payload_len % 4 == 1 => {
            let mut label = [0u8];
            let mut chunk = sample_chunk(payload_len / 4);
            read_sealed(reader, &header, &mut [&mut label, sample_bytes(&mut chunk)])?;
            samples_from_le(&mut chunk);
            Message::Feedback {
                label: decode_label(label[0], "feedback label")?,
                chunk,
            }
        }
        _ => {
            let mut payload = vec![0u8; payload_len];
            read_sealed(reader, &header, &mut [&mut payload])?;
            decode_payload(tag, &payload)?
        }
    };
    Ok(Some((message, decode)))
}

/// A little-endian cursor over a verified payload.
struct Cursor<'p> {
    bytes: &'p [u8],
}

impl<'p> Cursor<'p> {
    fn take(&mut self, n: usize) -> Result<&'p [u8]> {
        if self.bytes.len() < n {
            return Err(corrupt("payload shorter than its message requires"));
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64_bits(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn finish(&self) -> Result<()> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(corrupt("payload longer than its message requires"))
        }
    }
}

fn decode_payload(tag: u8, payload: &[u8]) -> Result<Message> {
    let mut cursor = Cursor { bytes: payload };
    let message = match tag {
        TAG_HELLO => {
            let len = cursor.u32()? as usize;
            let patient = String::from_utf8(cursor.take(len)?.to_vec())
                .map_err(|_| corrupt("patient id is not UTF-8"))?;
            let electrodes = cursor.u32()?;
            Message::Hello {
                patient,
                electrodes,
            }
        }
        // Whole-sample `Frames` and `Feedback` payloads never get here:
        // `read_message_spanned` reads them into their chunks.
        TAG_FRAMES => return Err(corrupt("frames payload is not whole f32 samples")),
        TAG_CLOSE => Message::Close,
        TAG_FEEDBACK => {
            decode_label(cursor.u8()?, "feedback label")?;
            return Err(corrupt("feedback payload is not whole f32 samples"));
        }
        TAG_ACCEPTED => Message::Accepted {
            session: cursor.u64()?,
            electrodes: cursor.u32()?,
        },
        TAG_THROTTLE => Message::Throttle {
            queued_chunks: cursor.u32()?,
            capacity_chunks: cursor.u32()?,
        },
        TAG_EVENT | TAG_ALARM => {
            let index = cursor.u64()?;
            let end_sample = cursor.u64()?;
            let time_secs = cursor.f64_bits()?;
            let label = decode_label(cursor.u8()?, "label")?;
            let dist_interictal = cursor.u64()? as usize;
            let dist_ictal = cursor.u64()? as usize;
            let alarm = if tag == TAG_ALARM {
                Some(Alarm {
                    label_index: cursor.u64()?,
                    mean_delta: cursor.f64_bits()?,
                })
            } else {
                None
            };
            let event = DetectorEvent {
                index,
                end_sample,
                time_secs,
                classification: Classification {
                    label,
                    dist_interictal,
                    dist_ictal,
                },
                alarm,
            };
            if tag == TAG_ALARM {
                Message::Alarm { event }
            } else {
                Message::Event { event }
            }
        }
        TAG_STATS_REQUEST => Message::StatsRequest,
        TAG_TRACE_DUMP_REQUEST => Message::TraceDumpRequest {
            limit: cursor.u32()?,
        },
        TAG_HEALTH_REQUEST => Message::HealthRequest,
        TAG_SESSION_STATS_REQUEST => {
            let session = match cursor.u8()? {
                0 => None,
                1 => Some(cursor.u64()?),
                other => return Err(corrupt(format!("unknown lookup flag 0x{other:02x}"))),
            };
            Message::SessionStatsRequest { session }
        }
        TAG_MODEL_UPDATED => Message::ModelUpdated {
            generation: cursor.u64()?,
        },
        TAG_STATS_SNAPSHOT => Message::StatsSnapshot {
            families: decode_families(&mut cursor)?,
        },
        TAG_HEALTH_SNAPSHOT => Message::HealthSnapshot {
            health: Box::new(decode_health(&mut cursor)?),
        },
        TAG_SESSION_STATS_SNAPSHOT => Message::SessionStatsSnapshot {
            sessions: Box::new(decode_session_obs(&mut cursor)?),
        },
        TAG_TRACE_DUMP => {
            let recorded = cursor.u64()?;
            let dropped = cursor.u64()?;
            let count = cursor.u32()?;
            let mut spans = Vec::new();
            for _ in 0..count {
                spans.push(WireSpan::decode(&mut cursor)?);
            }
            Message::TraceDump {
                recorded,
                dropped,
                spans,
            }
        }
        TAG_ERROR => {
            let len = cursor.u32()? as usize;
            let reason = String::from_utf8(cursor.take(len)?.to_vec())
                .map_err(|_| corrupt("error reason is not UTF-8"))?;
            Message::Error { reason }
        }
        other => return Err(corrupt(format!("unknown message type 0x{other:02x}"))),
    };
    cursor.finish()?;
    Ok(message)
}

/// Builds the `Event`/`Alarm` message for a detector event: events whose
/// postprocessor fired travel as [`Message::Alarm`], the rest as
/// [`Message::Event`].
pub fn event_message(event: DetectorEvent) -> Message {
    if event.alarm.is_some() {
        Message::Alarm { event }
    } else {
        Message::Event { event }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_event(alarm: bool) -> DetectorEvent {
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
                mean_delta: 0.1 + 0.2, // deliberately non-representable
            }),
        }
    }

    /// The catalogue over a session-layer snapshot with one heavy
    /// hitter: labelled and unlabelled samples, and families without any.
    fn sample_families() -> Vec<MetricFamily> {
        let sessions = sample_session_stats();
        crate::metrics::scrape(&crate::ServiceStats::default(), &sample_health(), &sessions)
    }

    fn sample_health() -> HealthSnapshot {
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

    fn sample_session_stats() -> SessionObsSnapshot {
        SessionObsSnapshot {
            enabled: true,
            ticks: 4_811,
            top: vec![
                SessionObsRow {
                    session: 7,
                    shard: 1,
                    generation: 2,
                    patient: "chb03".into(),
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
                },
                SessionObsRow {
                    session: 0,
                    patient: String::new(),
                    shard: 0,
                    generation: 0,
                    stats: SessionStats::default(),
                    scores: SessionScores::default(),
                },
            ],
            lookup: Some(SessionObsRow {
                session: 11,
                patient: "chb01".into(),
                shard: 0,
                generation: 0,
                stats: SessionStats::default(),
                scores: SessionScores::default(),
            }),
        }
    }

    #[test]
    fn every_variant_roundtrips() {
        let messages = [
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
            event_message(sample_event(false)),
            event_message(sample_event(true)),
            Message::StatsRequest,
            Message::TraceDumpRequest { limit: 0 },
            Message::TraceDumpRequest { limit: 128 },
            Message::StatsSnapshot {
                families: sample_families(),
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
                health: Box::new(sample_health()),
            },
            Message::HealthSnapshot {
                health: Box::default(),
            },
            Message::SessionStatsRequest { session: None },
            Message::SessionStatsRequest {
                session: Some(u64::MAX),
            },
            Message::SessionStatsSnapshot {
                sessions: Box::new(sample_session_stats()),
            },
            Message::SessionStatsSnapshot {
                sessions: Box::default(),
            },
            Message::Error {
                reason: "no model for patient".into(),
            },
        ];
        let mut stream = Vec::new();
        for message in &messages {
            let frame = encode_message(message);
            assert_eq!(
                frame[2], WIRE_VERSION,
                "{message:?} is stamped WIRE_VERSION"
            );
            write_message(&mut stream, message).unwrap();
        }
        let mut reader = stream.as_slice();
        for message in &messages {
            assert_eq!(read_message(&mut reader).unwrap().as_ref(), Some(message));
        }
        assert_eq!(read_message(&mut reader).unwrap(), None);
    }

    #[test]
    fn alarm_floats_are_bit_exact() {
        let event = sample_event(true);
        let bytes = encode_message(&event_message(event));
        let Some(Message::Alarm { event: back }) = read_message(&mut bytes.as_slice()).unwrap()
        else {
            panic!("expected an alarm message");
        };
        assert_eq!(
            back.alarm.unwrap().mean_delta.to_bits(),
            event.alarm.unwrap().mean_delta.to_bits()
        );
        assert_eq!(back.time_secs.to_bits(), event.time_secs.to_bits());
    }

    #[test]
    fn empty_chunk_roundtrips() {
        // Decoding is permissive; the server rejects empty chunks at the
        // session layer where the width contract lives.
        let bytes = encode_message(&Message::Frames {
            chunk: Box::new([]),
        });
        assert_eq!(
            read_message(&mut bytes.as_slice()).unwrap(),
            Some(Message::Frames {
                chunk: Box::new([])
            })
        );
    }
}
