//! Per-chunk causal tracing: trace ids minted at ingest, span records
//! keyed by [`Stage`], tail-based pinning, and a point-in-time snapshot
//! for export.
//!
//! The [`Tracer`] follows the same zero-cost-when-disabled discipline as
//! [`crate::StageSet`]: with [`TraceConfig::enabled`] false (the
//! default), [`Tracer::begin`] returns `None` without reading the clock,
//! and every downstream call is gated on the resulting `None` — tracing
//! off means **zero additional clock reads and zero extra hot-path
//! work**. When on, each accepted chunk gets a [`TraceId`]; completed
//! spans (one per pipeline stage the chunk crosses) are packed into five
//! `u64` words and written to the [`FlightRecorder`] — allocation-free,
//! wait-free, overwrite-oldest. Retention is tail-based: everything
//! lands in the recorder, and anomalies (an alarm, a discarded or
//! dropped frame, a stage over [`TraceConfig::pin_threshold_us`], an
//! applied model swap) *pin* the trace id so exports can surface the
//! interesting traces even after the ring wrapped past routine ones.

use std::num::NonZeroU64;
use std::time::Instant;

use laelaps_check::sync::atomic::{AtomicU64, Ordering};

use crate::recorder::{FlightRecorder, RECORD_WORDS};
use crate::Stage;

/// Identifies one traced chunk (or feedback segment) across its whole
/// life. Minted by [`Tracer::begin`]; nonzero so `Option<TraceId>` is
/// pointer-sized and a zero word in serialized form means "untraced".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(NonZeroU64);

impl TraceId {
    /// The raw id.
    pub fn get(self) -> u64 {
        self.0.get()
    }

    /// Rebuilds an id from its raw value (`None` for 0).
    pub fn from_raw(raw: u64) -> Option<TraceId> {
        NonZeroU64::new(raw).map(TraceId)
    }
}

/// A minted trace: the id plus the tracer-epoch-relative microsecond it
/// was minted at. Carried alongside the traced payload (a session ring
/// chunk, a feedback segment) through the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHandle {
    /// The trace id.
    pub id: TraceId,
    /// [`Tracer::now_micros`] at mint time.
    pub start_us: u64,
}

/// Attribution attached to every span: which session, on which shard,
/// running which model generation (truncated to 32 bits), produced it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanContext {
    /// Session id.
    pub session: u64,
    /// Worker shard the session is pinned to.
    pub shard: u16,
    /// Model generation at record time (low 32 bits).
    pub generation: u32,
}

/// Why a trace was pinned for export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PinReason {
    /// The chunk's classification emitted an alarm.
    Alarm = 1,
    /// The chunk's frames were discarded by a failed session.
    Discard = 2,
    /// The chunk was dropped at ingest (lossy push against a full ring).
    Drop = 3,
    /// A stage span exceeded [`TraceConfig::pin_threshold_us`].
    SlowStage = 4,
    /// The trace is a feedback segment whose model swap was applied.
    ModelSwap = 5,
}

impl PinReason {
    /// Decodes the `repr(u8)` discriminant.
    pub fn from_raw(raw: u8) -> Option<PinReason> {
        match raw {
            1 => Some(PinReason::Alarm),
            2 => Some(PinReason::Discard),
            3 => Some(PinReason::Drop),
            4 => Some(PinReason::SlowStage),
            5 => Some(PinReason::ModelSwap),
            _ => None,
        }
    }

    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            PinReason::Alarm => "alarm",
            PinReason::Discard => "discard",
            PinReason::Drop => "drop",
            PinReason::SlowStage => "slow_stage",
            PinReason::ModelSwap => "model_swap",
        }
    }
}

/// Tracing configuration, carried on the serving config next to the
/// stage-timing switch. Default **off** (no clock reads, no recorder).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch; false compiles the whole trace path down to a
    /// branch on `None`.
    pub enabled: bool,
    /// Flight-recorder capacity in spans (rounded up to a power of two).
    pub capacity: usize,
    /// Trace one in every `sample_every` accepted chunks (1 = all).
    pub sample_every: u64,
    /// A recorded span at least this long (µs) pins its trace
    /// ([`PinReason::SlowStage`]); 0 disables the threshold.
    pub pin_threshold_us: u64,
    /// How many pinned trace ids are remembered (overwrite-oldest).
    pub pinned_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: false,
            capacity: 4096,
            sample_every: 1,
            pin_threshold_us: 50_000,
            pinned_capacity: 64,
        }
    }
}

impl TraceConfig {
    /// Tracing on with the default knobs.
    pub fn sampled() -> Self {
        TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        }
    }
}

/// Pinned trace ids are packed into one word each: the id in the low 56
/// bits, the [`PinReason`] in the top byte. Ids are minted sequentially
/// from 1, so 2^56 of them outlast any deployment; the pack is
/// documented rather than hidden so exports can decode it.
const PIN_ID_BITS: u32 = 56;
const PIN_ID_MASK: u64 = (1 << PIN_ID_BITS) - 1;

/// A small overwrite-oldest set of pinned trace ids. O(1) wait-free
/// insertion (one `fetch_add` + one `store`) so pinning is safe from the
/// hot path; duplicates are allowed and folded at snapshot time.
struct PinSet {
    slots: Box<[AtomicU64]>,
    cursor: AtomicU64,
}

impl PinSet {
    fn new(capacity: usize) -> Self {
        PinSet {
            slots: (0..capacity.max(1).next_power_of_two())
                .map(|_| AtomicU64::new(0))
                .collect(),
            cursor: AtomicU64::new(0),
        }
    }

    fn pin(&self, id: TraceId, reason: PinReason) {
        let packed = (id.get() & PIN_ID_MASK) | ((reason as u64) << PIN_ID_BITS);
        let at = self.cursor.fetch_add(1, Ordering::Relaxed);
        self.slots[(at as usize) & (self.slots.len() - 1)].store(packed, Ordering::Relaxed);
    }

    fn snapshot(&self) -> Vec<PinnedTrace> {
        let mut out: Vec<PinnedTrace> = Vec::new();
        for slot in self.slots.iter() {
            let packed = slot.load(Ordering::Relaxed);
            if packed == 0 {
                continue;
            }
            let trace_id = packed & PIN_ID_MASK;
            let reason = PinReason::from_raw((packed >> PIN_ID_BITS) as u8);
            if let Some(reason) = reason {
                if !out.iter().any(|p| p.trace_id == trace_id) {
                    out.push(PinnedTrace { trace_id, reason });
                }
            }
        }
        out
    }

    fn pinned(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }
}

/// One completed, decoded span from the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// Pipeline stage the span measures.
    pub stage: Stage,
    /// Session attribution.
    pub session: u64,
    /// Shard attribution.
    pub shard: u16,
    /// Model generation at record time (low 32 bits).
    pub generation: u32,
    /// Span start, µs since the tracer's epoch.
    pub start_us: u64,
    /// Span duration in µs.
    pub dur_us: u64,
    /// Recorder write sequence (total order over all spans).
    pub seq: u64,
}

/// A pinned trace id and why it was pinned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PinnedTrace {
    /// The pinned trace id.
    pub trace_id: u64,
    /// The (most recently snapshotted) pin reason.
    pub reason: PinReason,
}

/// Point-in-time view of the tracer: decoded spans, the pinned set, and
/// the accounting counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSnapshot {
    /// Whether tracing was on.
    pub enabled: bool,
    /// Every stable span in the recorder, oldest first.
    pub spans: Vec<SpanRecord>,
    /// Distinct pinned traces still remembered.
    pub pinned: Vec<PinnedTrace>,
    /// Trace ids minted (≥ sampled chunks; unsampled mints burn an id).
    pub minted: u64,
    /// Spans ever written to the recorder (including overwritten ones).
    pub recorded: u64,
    /// Spans dropped to recorder slot collisions.
    pub dropped: u64,
}

impl TraceSnapshot {
    /// The pin reason of `trace_id`, if pinned.
    pub fn pin_reason(&self, trace_id: u64) -> Option<PinReason> {
        self.pinned
            .iter()
            .find(|p| p.trace_id == trace_id)
            .map(|p| p.reason)
    }
}

/// Mints trace ids, stamps span times, and records completed spans into
/// the flight recorder. One per service, shared by every session.
pub struct Tracer {
    enabled: bool,
    /// All span timestamps are µs since this instant (one shared epoch
    /// keeps spans from different threads on one timeline).
    epoch: Instant,
    next_id: AtomicU64,
    sample_every: u64,
    pin_threshold_us: u64,
    recorder: FlightRecorder,
    pinned: PinSet,
}

impl Tracer {
    /// Builds a tracer from its config. With `enabled: false` the
    /// recorder and pin set are still allocated at minimum size but
    /// never touched (every public method early-outs before any clock
    /// read or atomic write).
    pub fn new(config: &TraceConfig) -> Self {
        let (capacity, pinned) = if config.enabled {
            (config.capacity, config.pinned_capacity)
        } else {
            (2, 1)
        };
        Tracer {
            enabled: config.enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            sample_every: config.sample_every.max(1),
            pin_threshold_us: config.pin_threshold_us,
            recorder: FlightRecorder::new(capacity),
            pinned: PinSet::new(pinned),
        }
    }

    /// Whether tracing is on.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Mints a trace for a newly accepted chunk: `None` when disabled
    /// (no clock read) or when sampling skips this chunk (the id is
    /// still consumed, keeping sampling uniform under concurrency).
    #[inline]
    pub fn begin(&self) -> Option<TraceHandle> {
        if !self.enabled {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        if self.sample_every > 1 && !id.is_multiple_of(self.sample_every) {
            return None;
        }
        Some(TraceHandle {
            // `id` starts at 1 and the counter would take ~585 millennia
            // of continuous minting to wrap to 0.
            id: TraceId(NonZeroU64::new(id).expect("trace ids start at 1")),
            start_us: self.now_micros(),
        })
    }

    /// Microseconds since the tracer's epoch. **Reads the clock** — call
    /// it only under a live trace (a `Some` [`TraceHandle`] / non-empty
    /// traced set), which is how tracing-off keeps zero clock reads.
    #[inline]
    pub fn now_micros(&self) -> u64 {
        self.epoch.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }

    /// Records one completed span and auto-pins the trace when the span
    /// is at or over the slow-stage threshold.
    pub fn record(&self, id: TraceId, stage: Stage, ctx: SpanContext, start_us: u64, dur_us: u64) {
        if !self.enabled {
            return;
        }
        // Word layout (RECORD_WORDS = 5), decoded by `decode_entry`:
        //   w0  trace id
        //   w1  stage (u8) | shard (u16) << 16 | generation (u32) << 32
        //   w2  session id
        //   w3  start_us
        //   w4  dur_us
        let meta = (stage as u64 & 0xFF)
            | (u64::from(ctx.shard) << 16)
            | (u64::from(ctx.generation) << 32);
        self.recorder
            .write([id.get(), meta, ctx.session, start_us, dur_us]);
        if self.pin_threshold_us > 0 && dur_us >= self.pin_threshold_us {
            self.pinned.pin(id, PinReason::SlowStage);
        }
    }

    /// Pins `id` so exports surface its trace (tail-based retention).
    pub fn pin(&self, id: TraceId, reason: PinReason) {
        if self.enabled {
            self.pinned.pin(id, reason);
        }
    }

    /// Point-in-time snapshot: decoded spans (oldest first), the pinned
    /// set, and the counters. Allocates on the read side only.
    pub fn snapshot(&self) -> TraceSnapshot {
        if !self.enabled {
            return TraceSnapshot::default();
        }
        let spans = self
            .recorder
            .snapshot()
            .into_iter()
            .filter_map(|entry| decode_entry(entry.seq, entry.words))
            .collect();
        TraceSnapshot {
            enabled: true,
            spans,
            pinned: self.pinned.snapshot(),
            minted: self.next_id.load(Ordering::Relaxed).saturating_sub(1),
            recorded: self.recorder.recorded(),
            dropped: self.recorder.dropped(),
        }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled)
            .field("recorded", &self.recorder.recorded())
            .field("dropped", &self.recorder.dropped())
            .field("pinned", &self.pinned.pinned())
            .finish()
    }
}

fn decode_entry(seq: u64, words: [u64; RECORD_WORDS]) -> Option<SpanRecord> {
    let stage = *Stage::ALL.get((words[1] & 0xFF) as usize)?;
    Some(SpanRecord {
        trace_id: words[0],
        stage,
        shard: (words[1] >> 16) as u16,
        generation: (words[1] >> 32) as u32,
        session: words[2],
        start_us: words[3],
        dur_us: words[4],
        seq,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(session: u64) -> SpanContext {
        SpanContext {
            session,
            shard: 3,
            generation: 7,
        }
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let tracer = Tracer::new(&TraceConfig::default());
        assert!(!tracer.enabled());
        assert!(tracer.begin().is_none());
        let snapshot = tracer.snapshot();
        assert!(!snapshot.enabled);
        assert!(snapshot.spans.is_empty());
        assert_eq!(snapshot.minted, 0);
    }

    #[test]
    fn spans_round_trip_with_full_attribution() {
        let tracer = Tracer::new(&TraceConfig::sampled());
        let trace = tracer.begin().expect("enabled tracer mints");
        tracer.record(trace.id, Stage::RingWait, ctx(42), 100, 25);
        tracer.record(trace.id, Stage::Drain, ctx(42), 125, 10);
        let snapshot = tracer.snapshot();
        assert_eq!(snapshot.spans.len(), 2);
        let span = &snapshot.spans[0];
        assert_eq!(span.trace_id, trace.id.get());
        assert_eq!(span.stage, Stage::RingWait);
        assert_eq!(span.session, 42);
        assert_eq!(span.shard, 3);
        assert_eq!(span.generation, 7);
        assert_eq!((span.start_us, span.dur_us), (100, 25));
        assert_eq!(snapshot.spans[1].stage, Stage::Drain);
        assert!(snapshot.spans[0].seq < snapshot.spans[1].seq);
        assert_eq!(snapshot.minted, 1);
        assert_eq!(snapshot.recorded, 2);
    }

    #[test]
    fn sampling_mints_one_in_n() {
        let config = TraceConfig {
            enabled: true,
            sample_every: 4,
            ..TraceConfig::default()
        };
        let tracer = Tracer::new(&config);
        let sampled = (0..100).filter(|_| tracer.begin().is_some()).count();
        assert_eq!(sampled, 25, "every 4th mint is sampled");
    }

    #[test]
    fn slow_spans_auto_pin() {
        let config = TraceConfig {
            enabled: true,
            pin_threshold_us: 1000,
            ..TraceConfig::default()
        };
        let tracer = Tracer::new(&config);
        let fast = tracer.begin().unwrap();
        let slow = tracer.begin().unwrap();
        tracer.record(fast.id, Stage::Drain, ctx(1), 0, 999);
        tracer.record(slow.id, Stage::Drain, ctx(1), 0, 1000);
        let snapshot = tracer.snapshot();
        assert_eq!(snapshot.pin_reason(fast.id.get()), None);
        assert_eq!(
            snapshot.pin_reason(slow.id.get()),
            Some(PinReason::SlowStage)
        );
        let pinned: Vec<_> = snapshot
            .spans
            .iter()
            .filter(|s| snapshot.pin_reason(s.trace_id).is_some())
            .collect();
        assert_eq!(pinned.len(), 1);
        assert_eq!(pinned[0].trace_id, slow.id.get());
    }

    #[test]
    fn explicit_pins_survive_and_dedupe() {
        let tracer = Tracer::new(&TraceConfig::sampled());
        let trace = tracer.begin().unwrap();
        tracer.pin(trace.id, PinReason::Alarm);
        tracer.pin(trace.id, PinReason::Alarm);
        let snapshot = tracer.snapshot();
        assert_eq!(snapshot.pinned.len(), 1);
        assert_eq!(snapshot.pinned[0].reason, PinReason::Alarm);
    }

    #[test]
    fn pin_set_overwrites_oldest() {
        let config = TraceConfig {
            enabled: true,
            pinned_capacity: 2,
            ..TraceConfig::default()
        };
        let tracer = Tracer::new(&config);
        let traces: Vec<_> = (0..3).map(|_| tracer.begin().unwrap()).collect();
        for t in &traces {
            tracer.pin(t.id, PinReason::Discard);
        }
        let snapshot = tracer.snapshot();
        assert_eq!(snapshot.pinned.len(), 2, "capacity 2 keeps the last 2");
        assert_eq!(snapshot.pin_reason(traces[0].id.get()), None);
        assert!(snapshot.pin_reason(traces[2].id.get()).is_some());
    }

    #[test]
    fn pin_reason_raw_round_trips() {
        for reason in [
            PinReason::Alarm,
            PinReason::Discard,
            PinReason::Drop,
            PinReason::SlowStage,
            PinReason::ModelSwap,
        ] {
            assert_eq!(PinReason::from_raw(reason as u8), Some(reason));
        }
        assert_eq!(PinReason::from_raw(0), None);
        assert_eq!(PinReason::from_raw(99), None);
    }
}
