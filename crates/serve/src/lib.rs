//! # laelaps-serve
//!
//! The multi-patient streaming detection service for the Laelaps
//! reproduction: the paper detects seizures from *continuous, long-term*
//! iEEG (one classification every 0.5 s, per patient, around the clock) —
//! this crate turns the single-patient [`laelaps_core::Detector`] into a
//! service that runs whole patient fleets concurrently.
//!
//! Six pillars:
//!
//! * **Model persistence** ([`save_model`] / [`load_model`] /
//!   [`ModelRegistry`]) — a versioned binary format (readable JSON header +
//!   bit-exact prototype body + checksum) for trained
//!   [`laelaps_core::PatientModel`]s, with a directory-backed, memory-cached
//!   registry keyed by patient id.
//! * **Session engine** ([`DetectionService`] / [`SessionHandle`]) — each
//!   session owns a bounded SPSC frame queue with *explicit* backpressure
//!   (`try_push` returns the chunk on overflow) and is placed on the
//!   least-loaded shard of a worker pool
//!   (a [`laelaps_eval::parallel::ShardedPool`]), so its
//!   event stream is byte-identical to a bare `Detector` run while many
//!   sessions proceed in parallel. Alarms additionally fan into a
//!   service-wide bus ([`DetectionService::take_alarms`]); [`EventTap`]
//!   subscriptions let another thread collect a session's events while
//!   its handle keeps pushing.
//!
//!   **Hot path.** Each shard worker has one drain path: per pass it
//!   takes its shard's [`ready`] queue — the sessions given work since
//!   their last drain — and hands each of their queued chunks to
//!   [`laelaps_core::Detector::push_frames`] in one call (encode a run of
//!   frames per half window, then classify → postprocess each window),
//!   polling for a staged hot-swap between chunks. A detector that fails
//!   or panics part-way through a chunk charges the frames it had not
//!   finished to `frames_discarded`. A push, a close, a dropped handle
//!   or a swap request queues its session and wakes only that session's
//!   worker; a worker whose queue is empty sleeps, so an idle session
//!   costs nothing. Encode is nearly all of a frame's cost; the two
//!   Hamming distances of classify are a fraction of a percent, so
//!   batching windows across sessions to amortise them does not pay.
//! * **Network ingest** ([`net::IngestServer`] / [`net::IngestClient`]) —
//!   a TCP front-end speaking the [`wire`] protocol, so remote producers
//!   (a fleet of bedside acquisition devices) can drive the service.
//!   Every message is one length-prefixed, checksummed frame (wire
//!   version 9):
//!
//!   ```text
//!   offset  size  field
//!   0       2     magic  b"LW"
//!   2       1     wire format version (one version, WIRE_VERSION)
//!   3       1     message type tag
//!   4       4     payload length P (u32 LE), P ≤ 16 MiB
//!   8       P     payload (all scalars little-endian)
//!   8+P     8     four-lane word checksum of bytes [0, 8+P) (u64 LE)
//!   ```
//!
//!   Clients send `Hello{patient, electrodes}` / `Frames{chunk}` /
//!   `Close`; the server answers `Accepted`, applies backpressure with
//!   `Throttle` (never a silent drop), streams `Event`/`Alarm` records
//!   back on the same socket, and reports fatal conditions as
//!   `Error{reason}`. See [`wire`] for the per-message payload layouts.
//! * **Online adaptation** ([`adapt::AdaptationEngine`]) — the loop that
//!   turns the static model-server into a learning system: clinician
//!   feedback (labeled segments, in-process or as wire `Feedback`
//!   messages) is folded into the patient's persisted model off the hot
//!   path ([`laelaps_core::PatientModel::absorb`] — the paper's
//!   incremental-update property), published to the registry as a new
//!   **generation** (atomic rename, rollback-able), and hot-swapped into
//!   every live session of that patient **at a frame boundary with zero
//!   dropped frames** and the postprocessor state carried across. Swaps
//!   surface as [`ServiceEvent::ModelSwapped`] on the bus, as ordered
//!   [`session::SessionOutput::ModelSwapped`] markers in the event
//!   stream, and as `ModelUpdated` wire frames.
//! * **Observability** ([`ServiceStats`] / [`SessionStats`] /
//!   [`TelemetrySnapshot`]) — per-session and aggregate counters (frames
//!   in/dropped/refused/processed, events, alarms, per-session model
//!   generation) plus stage-level latency telemetry from
//!   `laelaps-telemetry`: every hot-path stage feeds a lock-free
//!   log-bucketed histogram (p50/p99/p999 within 1/16 relative error,
//!   exact max, snapshots merge exactly), and a sliding-window rate
//!   meter tracks recent drain throughput. All of it is timed on one
//!   [`laelaps_telemetry::Clock`]: a chunk's mark rides its ring slot,
//!   and one close per stage boundary records the histogram sample and
//!   the trace span alike. The instrumented pipeline:
//!
//!   ```text
//!   TCP reader          ring             shard worker
//!   wire_decode → ring_enqueue → ring_wait → drain ────────────→ publish
//!   (checksum +   (push retry    (queued     (encode → classify  (events →
//!    decode)       loop)          in ring)    → postprocess,      bus/tap)
//!                                             per session)
//!
//!   feedback: adapt_retrain (absorb + republish) →
//!             adapt_propagate (feedback submission → applied swap)
//!
//!   health:   evaluator tick (off the hot path; workers only bump a
//!             heartbeat) → windowed deltas → SLO burn rates → verdict
//!   ```
//!
//!   One [`TelemetrySnapshot`] (on every [`ServiceStats`]) carries the
//!   stage histograms and folds in the subsystem counters with a uniform
//!   zero-when-unused shape: [`RegistryStats`] cache
//!   hits/misses/evictions and [`AdaptStats`] feedback/retrain/swap
//!   counts. One metric catalogue, [`metrics::scrape`], names every
//!   exported metric — its name, help text, kind and labels — over the
//!   service stats, the health view and the per-session heavy hitters;
//!   the wire's `StatsSnapshot`, the Prometheus renderer and
//!   `laelapsctl` all read that one list, so a new metric needs no edit
//!   anywhere else. Timing is on by default
//!   ([`ServeConfig::telemetry`]); switching it off reduces the
//!   instrumentation to its plain atomic counters — no clock reads on
//!   the hot path, and `loadgen --overhead-check` holds the enabled
//!   path within 2% of disabled. The cohort load harness
//!   (`cargo run --release -p laelaps-bench --bin loadgen`) drives
//!   hundreds of sessions through the service and writes its closing
//!   catalogue as a Prometheus scrape (`--prom-out`). Throughput and
//!   latency are measured by the repository benchmark (`perfbench/`,
//!   `BENCHMARK.json`), which CI runs against the base commit
//!   (`benchdiff`).
//!
//!   On top of the aggregate histograms, [`ServeConfig::trace`] turns on
//!   **per-chunk causal tracing**: every accepted chunk gets a trace id
//!   when its frame arrives (TCP) or is pushed, and each stage it crosses
//!   records a span — with session, shard, and model-generation
//!   attribution — into a fixed-size, wait-free flight recorder ring
//!   ([`laelaps_telemetry::FlightRecorder`], overwrite-oldest). Anomalies
//!   (alarms, drops, discards, slow stages, applied hot-swaps) *pin*
//!   their trace for tail-based retention. Read it in process via
//!   [`DetectionService::trace_snapshot`], or live over the wire: a
//!   connection opening with `StatsRequest` / `TraceDumpRequest` gets
//!   `StatsSnapshot` (the metric catalogue) / `TraceDump` replies — what
//!   the `laelapsctl` binary in `laelaps-bench` renders (`laelapsctl
//!   trace` and `loadgen --trace-out` both export Chrome trace-event
//!   JSON for Perfetto). Tracing defaults off and then performs zero
//!   clock reads.
//!
//!   [`ServeConfig::sessions`] adds the **per-session layer** on top:
//!   every session carries a compact accounting cell
//!   ([`laelaps_telemetry::SessionCell`] — frames in / processed /
//!   dropped / discarded, the drain tick of its last productive pass,
//!   and an EWMA of its drain latency; plain atomics, zero clock
//!   reads), and each shard worker feeds a fixed-capacity
//!   [`laelaps_telemetry::TopK`] heavy-hitter sketch triple (drain
//!   latency / ring saturation / discards), so memory stays
//!   `O(shards × 3 × top_k)` **no matter how many sessions stream**:
//!
//!   ```text
//!   session drain ──> SessionCell (per session, plain atomics)
//!        │                 │ ewma / depth / discards
//!        │                 v
//!        └────> shard TopK sketches (fixed K, wait-free add)
//!                          │ merge on demand
//!                          v
//!        SessionObsSnapshot { top-K rows + lookup } ── wire
//!               (`laelapsctl sessions` / `top`, Prometheus)
//!   ```
//!
//!   Read it in process via [`DetectionService::session_obs_snapshot`],
//!   or over the wire: `SessionStatsRequest` (optional single-session
//!   lookup) answers with `SessionStatsSnapshot` — what
//!   `laelapsctl sessions` / `laelapsctl top` render. The catalogue
//!   exports the top-K rows as bounded `laelaps_session_*` families
//!   (`laelapsctl stats --prom`). The layer defaults **off**; enabled,
//!   `loadgen --overhead-check` holds it within 3% of telemetry-only.
//! * **Health & SLO** ([`ServeConfig::health`] / [`HealthSnapshot`]) —
//!   a continuous judgment layer on top of the raw telemetry: a
//!   dedicated evaluator thread samples the counters, gauges, and stage
//!   histograms once per interval, keeps the per-tick deltas in a
//!   bounded window (the tail of which is [`HealthSnapshot::series`]),
//!   and evaluates
//!   declarative [`SloRule`]s (stage p99 ceilings, drop/refusal/discard
//!   rate ceilings, ring saturation, feedback-propagation staleness,
//!   and — when the per-session layer is on — per-session stall,
//!   discard-rate, and latency rules whose verdicts **name the
//!   offending session id** in the journal and on the bus)
//!   over **fast and slow burn windows** with hysteresis, so a brief
//!   spike degrades quickly but recovery requires sustained clean
//!   evaluations — no verdict flapping under oscillating load. A
//!   per-shard heartbeat **watchdog** (workers bump an atomic on every
//!   productive drain pass) flags a stalled or deadlocked shard as
//!   `Critical` within one evaluation allowance, even though the stall
//!   itself produces no samples. Verdict transitions emit
//!   [`ServiceEvent::Health`] on the bus and accumulate in a bounded
//!   journal; read the whole surface in process via
//!   [`DetectionService::health_snapshot`], over the wire via
//!   `HealthRequest` (what `laelapsctl health` / `watch` render); the
//!   catalogue exports the verdicts and burn rates as metric families
//!   (`laelapsctl stats --prom`).
//!   Health defaults **off**: no evaluator thread, no heartbeat bumps,
//!   zero extra hot-path clock reads.
//!
//! The lock-free structures in this crate ([`ring`], the swap gate in
//! [`swapgate`], the [`ready`] queues, the progress/waker protocols) are
//! catalogued — with
//! their invariants, chosen memory orderings, and the rationale for each
//! — in `CONCURRENCY.md` at the repository root. They are written
//! against the `laelaps_check::sync` facade, so building the test suite
//! with `RUSTFLAGS="--cfg laelaps_check"` model-checks the protocols
//! across thread interleavings (see `tests/model.rs`).
//!
//! See `examples/long_term_monitoring.rs` for the in-process train →
//! persist → load → stream → alarm flow over a 32-patient synthetic
//! cohort, `examples/remote_cohort.rs` for the same cohort driven
//! over TCP through [`net::IngestServer`], and
//! `examples/online_adaptation.rs` for the feedback → retrain → hot-swap
//! loop improving a live session's detection latency mid-stream.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod adapt;
pub mod error;
pub mod health;
pub mod metrics;
pub mod net;
pub mod persist;
pub mod ready;
pub mod ring;
pub mod service;
pub mod session;
pub mod stats;
pub mod swapgate;
pub mod wire;

pub use adapt::{AdaptStats, AdaptationEngine, FeedbackSegment};
pub use error::{Result, ServeError};
pub use health::{
    sample_label, HealthConfig, HealthSnapshot, HealthTransition, HealthVerdict, RuleEval,
    SeriesSample, SloRule, SAMPLE_WORDS,
};
pub use net::{IngestClient, IngestServer};
pub use persist::{
    load_model, load_model_from, save_model, save_model_to, ModelRegistry, RegistryConfig,
    FORMAT_VERSION, MODEL_EXT,
};
pub use service::{AlarmRecord, DetectionService, ServeConfig, ServiceEvent};
pub use session::{EventTap, PushError, SessionHandle, SessionId, SessionOutput};
pub use stats::{
    RegistryStats, ServiceStats, SessionObsConfig, SessionObsRow, SessionObsSnapshot,
    SessionScores, SessionStats, SessionStatsEntry, ShardGauges, TelemetrySnapshot, TraceStats,
};

// The telemetry primitives behind [`TelemetrySnapshot`], re-exported so
// consumers can configure timing and read histograms without a separate
// `laelaps-telemetry` import. The trace types ride along: they configure
// [`ServeConfig::trace`] and decode [`DetectionService::trace_snapshot`].
pub use laelaps_telemetry::{
    HistogramSnapshot, PinReason, PinnedTrace, SpanContext, SpanRecord, Stage, StagesSnapshot,
    TelemetryConfig, TraceConfig, TraceSnapshot,
};
