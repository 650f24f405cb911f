//! Observability counters for sessions and the whole service.

use laelaps_check::sync::atomic::{AtomicU64, Ordering};
pub use laelaps_telemetry::TraceStats;
use laelaps_telemetry::{
    Clock, Counter, Mark, RateMeter, SessionCell, StagesSnapshot, TelemetryConfig, TopK,
    TraceConfig,
};

use crate::adapt::AdaptStats;

/// Lock-free per-session counters, updated by the producer side (frames
/// in, drops) and the shard worker (events, alarms, latency).
///
/// Frame accounting and drain recency live in the embedded
/// [`SessionCell`] — the same cell the per-session observability layer
/// reads — so `laelapsctl sessions`, the session SLO rules, and the
/// service totals all share one source of truth. The cell's memory
/// orderings mirror the previous inline atomics exactly
/// (`frames_processed` is `Release`/`Acquire` for the flush invariant;
/// `frames_in` reads are `Acquire` for the swap barrier; the rest is
/// `Relaxed`).
#[derive(Debug, Default)]
pub(crate) struct SessionCounters {
    pub cell: SessionCell,
    pub frames_refused: AtomicU64,
    pub events_out: AtomicU64,
    pub alarms_out: AtomicU64,
    pub drains: AtomicU64,
    pub max_drain_micros: AtomicU64,
}

impl SessionCounters {
    pub fn snapshot(&self) -> SessionStats {
        SessionStats {
            frames_in: self.cell.accepted(),
            frames_dropped: self.cell.dropped(),
            frames_refused: self.frames_refused.load(Ordering::Relaxed),
            frames_discarded: self.cell.discarded(),
            frames_processed: self.cell.processed(),
            events_out: self.events_out.load(Ordering::Relaxed),
            alarms_out: self.alarms_out.load(Ordering::Relaxed),
            drains: self.drains.load(Ordering::Relaxed),
            max_drain_micros: self.max_drain_micros.load(Ordering::Relaxed),
            last_drain_tick: self.cell.last_drain_tick(),
            ewma_drain_us: self.cell.ewma_drain_us(),
        }
    }

    pub fn record_drain(&self, micros: u64, tick: u64) {
        self.drains.fetch_add(1, Ordering::Relaxed);
        self.max_drain_micros.fetch_max(micros, Ordering::Relaxed);
        self.cell.note_drain(tick, micros);
    }
}

/// A point-in-time snapshot of one session's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Frames accepted into the session's queue.
    pub frames_in: u64,
    /// Frames rejected by [`crate::SessionHandle::push_chunk_lossy`]
    /// because the queue was full (never entered the queue).
    pub frames_dropped: u64,
    /// Frames offered to [`crate::SessionHandle::push_chunk_lossy`] after
    /// the session closed or failed (never entered the queue). Offered
    /// load is `frames_in + frames_dropped + frames_refused`.
    pub frames_refused: u64,
    /// Accepted frames thrown away by the worker after the session's
    /// detector failed; `frames_processed + frames_discarded` accounts
    /// for every accepted frame once the session is idle.
    pub frames_discarded: u64,
    /// Frames the worker has run through the detector.
    pub frames_processed: u64,
    /// Classification events emitted (one per 0.5 s of warm signal).
    pub events_out: u64,
    /// Alarms raised.
    pub alarms_out: u64,
    /// Worker drain batches executed for this session.
    pub drains: u64,
    /// Worst-case wall time of one drain batch, microseconds — the
    /// service-side latency bound for this session.
    pub max_drain_micros: u64,
    /// Service drain tick of this session's last productive drain pass
    /// (0 = never drained). Ticks are the shard workers' shared pass
    /// counter, not wall time — compare against
    /// [`SessionObsSnapshot::ticks`] to judge staleness.
    pub last_drain_tick: u64,
    /// Exponentially weighted moving average of this session's drain
    /// latency, microseconds (0 when telemetry is disabled).
    pub ewma_drain_us: u64,
}

impl SessionStats {
    pub(crate) fn absorb(&mut self, other: &SessionStats) {
        self.frames_in += other.frames_in;
        self.frames_dropped += other.frames_dropped;
        self.frames_refused += other.frames_refused;
        self.frames_discarded += other.frames_discarded;
        self.frames_processed += other.frames_processed;
        self.events_out += other.events_out;
        self.alarms_out += other.alarms_out;
        self.drains += other.drains;
        self.max_drain_micros = self.max_drain_micros.max(other.max_drain_micros);
        self.last_drain_tick = self.last_drain_tick.max(other.last_drain_tick);
        self.ewma_drain_us = self.ewma_drain_us.max(other.ewma_drain_us);
    }
}

/// One row of [`ServiceStats`].
#[derive(Debug, Clone)]
pub struct SessionStatsEntry {
    /// Session id.
    pub session: crate::SessionId,
    /// Patient id the session serves.
    pub patient: String,
    /// Worker shard the session is pinned to (chosen least-loaded at
    /// open time).
    pub shard: usize,
    /// Generation of the model the session is currently running;
    /// advances when the adaptation engine hot-swaps a retrained model
    /// into the live stream.
    pub generation: u64,
    /// The counters.
    pub stats: SessionStats,
}

/// [`crate::ModelRegistry`] cache counters (see
/// [`crate::ModelRegistry::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Loads served from the in-memory cache.
    pub hits: u64,
    /// Loads that had to read a model file.
    pub misses: u64,
    /// Entries dropped by the LRU policy to stay within the cache cap
    /// (manual evictions are not counted).
    pub evictions: u64,
    /// Models currently cached.
    pub cached_entries: usize,
}

/// Configuration of the per-session observability layer
/// ([`crate::ServeConfig::sessions`]).
///
/// When enabled, each shard worker feeds three fixed-capacity [`TopK`]
/// heavy-hitter sketches (drain latency, ring saturation, discards) —
/// total memory `O(shards × top_k)` regardless of how many sessions
/// stream through. Disabled (the default), the layer costs nothing:
/// sessions still carry their [`SessionCell`] (plain counters the stats
/// path always maintained), but no sketches exist and drain passes skip
/// the feed entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionObsConfig {
    /// Whether shard workers feed the heavy-hitter sketches and the
    /// wire `SessionStatsRequest` returns rows.
    pub enabled: bool,
    /// Slots per sketch (per shard, per dimension); clamped to ≥ 1.
    pub top_k: usize,
}

impl Default for SessionObsConfig {
    fn default() -> Self {
        SessionObsConfig {
            enabled: false,
            top_k: 8,
        }
    }
}

impl SessionObsConfig {
    /// An enabled configuration with the default sketch capacity.
    pub fn enabled() -> Self {
        SessionObsConfig {
            enabled: true,
            ..Default::default()
        }
    }
}

/// Heavy-hitter scores of one session, one per tracked dimension.
///
/// Scores are cumulative Space-Saving weights, not instantaneous
/// levels: every productive drain pass adds the session's current EWMA
/// drain latency (µs), its ring depth (chunks), and the frames it
/// discarded. A chronically slow or saturated session therefore climbs
/// monotonically, which is exactly the ranking signal `laelapsctl top`
/// wants. Each score may overestimate by the sketch's inherited-minimum
/// error (see [`laelaps_telemetry::TopKEntry::err`]); zero means "not
/// resident in that sketch".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionScores {
    /// Sum of EWMA drain latencies over productive passes, µs.
    pub latency: u64,
    /// Sum of observed ring depths over productive passes, chunks.
    pub saturation: u64,
    /// Total frames discarded, as seen by the discard sketch.
    pub discard: u64,
}

impl SessionScores {
    /// Combined ranking key: the sum of all three dimensions.
    pub fn combined(&self) -> u64 {
        self.latency
            .saturating_add(self.saturation)
            .saturating_add(self.discard)
    }
}

/// The fixed-memory half of per-session observability: one sketch
/// triple per shard, fed wait-free by that shard's worker from inside
/// the drain paths. See [`SessionObsConfig`] for the memory bound.
#[derive(Debug)]
pub(crate) struct SessionObs {
    shards: Vec<ShardSketches>,
}

#[derive(Debug)]
struct ShardSketches {
    latency: TopK,
    saturation: TopK,
    discard: TopK,
}

impl SessionObs {
    pub fn new(config: &SessionObsConfig, workers: usize) -> Option<Self> {
        if !config.enabled {
            return None;
        }
        let k = config.top_k.max(1);
        Some(SessionObs {
            shards: (0..workers.max(1))
                .map(|_| ShardSketches {
                    latency: TopK::new(k),
                    saturation: TopK::new(k),
                    discard: TopK::new(k),
                })
                .collect(),
        })
    }

    /// Feeds one productive drain pass: adds this pass's EWMA latency,
    /// observed ring depth, and discarded-frame count for `session` to
    /// the owning shard's sketches. Zero weights are no-ops inside the
    /// sketch, so an idle dimension costs one branch.
    #[inline]
    pub fn record(
        &self,
        shard: usize,
        session: u64,
        ewma_us: u64,
        queued_chunks: u64,
        discarded: u64,
    ) {
        let Some(s) = self.shards.get(shard) else {
            return;
        };
        s.latency.add(session, ewma_us);
        s.saturation.add(session, queued_chunks);
        s.discard.add(session, discarded);
    }

    /// Folds every shard's sketches into per-session [`SessionScores`],
    /// worst combined score first. Bounded by `shards × 3 × top_k`
    /// distinct sessions (in practice ≤ `shards × 3 × top_k` rows; each
    /// session lives on one shard, so no cross-shard double counting).
    pub fn merged(&self) -> Vec<(u64, SessionScores)> {
        let mut by_session: std::collections::BTreeMap<u64, SessionScores> =
            std::collections::BTreeMap::new();
        for shard in &self.shards {
            for e in shard.latency.snapshot() {
                by_session.entry(e.key).or_default().latency += e.weight;
            }
            for e in shard.saturation.snapshot() {
                by_session.entry(e.key).or_default().saturation += e.weight;
            }
            for e in shard.discard.snapshot() {
                by_session.entry(e.key).or_default().discard += e.weight;
            }
        }
        let mut rows: Vec<(u64, SessionScores)> = by_session.into_iter().collect();
        rows.sort_by(|a, b| b.1.combined().cmp(&a.1.combined()).then(a.0.cmp(&b.0)));
        rows
    }
}

/// One row of a [`SessionObsSnapshot`]: a session's identity, its full
/// counter snapshot (one source of truth with `laelapsctl sessions`),
/// and its heavy-hitter scores.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionObsRow {
    /// Session id.
    pub session: crate::SessionId,
    /// Patient id the session serves.
    pub patient: String,
    /// Worker shard the session is pinned to.
    pub shard: usize,
    /// Generation of the model the session is currently running.
    pub generation: u64,
    /// The session's counters, including `last_drain_tick` and
    /// `ewma_drain_us`.
    pub stats: SessionStats,
    /// Heavy-hitter scores (zero for a pure lookup row that is not
    /// resident in any sketch).
    pub scores: SessionScores,
}

/// Snapshot returned by [`crate::DetectionService::session_obs_snapshot`]
/// and carried by the wire `SessionStatsSnapshot` message.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionObsSnapshot {
    /// Whether the per-session layer is on
    /// ([`SessionObsConfig::enabled`]); when `false`, `top` is empty.
    pub enabled: bool,
    /// Current service drain tick — compare with
    /// [`SessionStats::last_drain_tick`] for staleness.
    pub ticks: u64,
    /// Worst sessions by combined heavy-hitter score, worst first,
    /// bounded by `shards × 3 × top_k` (retired sessions drop out).
    pub top: Vec<SessionObsRow>,
    /// The explicitly requested session, if one was asked for and is
    /// still live (scores may be zero if it never hit a sketch).
    pub lookup: Option<SessionObsRow>,
}

/// The service's live telemetry state: the clock (per-stage latency
/// histograms and the causal tracer) plus a trailing frame-rate meter,
/// shared by every shard worker, session, and connection of one
/// [`crate::DetectionService`].
///
/// Owned by the service, snapshotted into [`TelemetrySnapshot`] by
/// [`crate::DetectionService::stats`].
#[derive(Debug)]
pub(crate) struct ServiceTelemetry {
    /// The one clock: stage histograms (microseconds) and the per-chunk
    /// tracer (flight recorder + pin set), timed on one epoch. Tracing is
    /// inert — zero clock reads — unless [`crate::ServeConfig::trace`]
    /// enabled it.
    pub clock: Clock,
    /// Frames drained across every session, trailing 5 s window, on the
    /// clock's epoch.
    frames: RateMeter,
    /// Shard-worker pass counter: bumped once per shard drain pass, the
    /// tick domain of [`SessionStats::last_drain_tick`]. Not wall time.
    pub drain_ticks: Counter,
    /// Frames refused across every session, live or retired. A closed
    /// session's handle can go on refusing after the session retired and
    /// its counters were folded into the retired totals, so the service
    /// totals read refusals from here.
    pub frames_refused: Counter,
    /// The per-session heavy-hitter sketches; `None` unless
    /// [`crate::ServeConfig::sessions`] enabled the layer.
    pub session_obs: Option<SessionObs>,
}

impl ServiceTelemetry {
    pub fn new(
        config: &TelemetryConfig,
        trace: &TraceConfig,
        sessions: &SessionObsConfig,
        workers: usize,
    ) -> Self {
        ServiceTelemetry {
            clock: Clock::new(config, trace),
            frames: RateMeter::per_5s(),
            drain_ticks: Counter::new(),
            frames_refused: Counter::new(),
            session_obs: SessionObs::new(sessions, workers),
        }
    }

    /// Attributes `frames` drained frames to the rate window of `at`, the
    /// close of their drain pass (which holds no instant with timing off).
    #[inline]
    pub fn record_frames(&self, frames: u64, at: Mark) {
        if let Some(now) = at.at_us().filter(|_| frames > 0) {
            self.frames.record(now, frames);
        }
    }

    /// Point-in-time snapshot; `registry`/`adapt`/`shards`
    /// stay at their zero defaults for the caller to fill in.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let stages = &self.clock.stages;
        TelemetrySnapshot {
            enabled: stages.enabled(),
            stages: stages.snapshot(),
            recent_frames_per_sec: if stages.enabled() {
                self.clock.per_sec(&self.frames)
            } else {
                0.0
            },
            registry: RegistryStats::default(),
            adapt: AdaptStats::default(),
            shards: Vec::new(),
            trace: self.clock.tracer.stats(),
        }
    }
}

/// Saturation gauges of one shard worker, sampled at snapshot time.
///
/// `ring_depth_chunks` is the racy-but-clamped sum of each session ring's
/// occupancy; `in_flight_frames` derives from the monotonic session
/// counters (`frames_in − frames_processed − frames_discarded`, saturating
/// per session). Both are monitoring hints: they expose queue saturation
/// directly instead of leaving it inferable only from `ring_wait`
/// percentiles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardGauges {
    /// Shard index (matches [`SessionStatsEntry::shard`]).
    pub shard: usize,
    /// Live sessions pinned to this shard.
    pub sessions: usize,
    /// Chunks currently queued across this shard's session rings.
    pub ring_depth_chunks: usize,
    /// Accepted frames not yet processed or discarded on this shard.
    pub in_flight_frames: u64,
}

/// The service's full observability surface beyond raw session counters,
/// folded into every [`ServiceStats`]: per-stage latency histograms, the
/// recent drain rate, and the registry / adaptation counters.
///
/// Sections whose subsystem is not in play carry their zero defaults
/// (e.g. `adapt` on a service without an [`crate::AdaptationEngine`]),
/// so consumers always read one shape.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Whether stage timing was on ([`crate::ServeConfig::telemetry`]);
    /// when `false` every stage histogram is empty and
    /// `recent_frames_per_sec` is 0.
    pub enabled: bool,
    /// Latency histogram per hot-path stage, microseconds. Estimate
    /// percentiles via [`laelaps_telemetry::HistogramSnapshot::p99`] and
    /// friends.
    pub stages: StagesSnapshot,
    /// Frames drained per second over the trailing 5 s window.
    pub recent_frames_per_sec: f64,
    /// Model-registry cache counters (zero unless attached via
    /// [`ServiceStats::with_registry`] — the adaptation engine's
    /// [`crate::AdaptationEngine::service_stats`] always attaches them).
    pub registry: RegistryStats,
    /// Adaptation-engine counters (zero unless attached via
    /// [`ServiceStats::with_adapt`]; `service_stats` attaches them).
    pub adapt: AdaptStats,
    /// Per-shard saturation gauges, ordered by shard index (one row per
    /// worker shard, present whenever the snapshot came from
    /// [`crate::DetectionService::stats`]).
    pub shards: Vec<ShardGauges>,
    /// Per-chunk tracing accounting (all-zero with `enabled: false`
    /// unless [`crate::ServeConfig::trace`] turned tracing on).
    pub trace: TraceStats,
}

/// Aggregate service snapshot returned by
/// [`crate::DetectionService::stats`].
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Sessions currently registered (live or draining).
    pub sessions: usize,
    /// Sessions that already finished and were retired from their shard.
    pub retired_sessions: usize,
    /// Sum over live *and* retired sessions (max for `max_drain_micros`).
    pub totals: SessionStats,
    /// Rows for live sessions only, ordered by session id; a retired
    /// session's counters remain reachable via its handle.
    pub per_session: Vec<SessionStatsEntry>,
    /// Stage latency histograms, drain rate, and subsystem counters —
    /// one uniform shape whether or not each subsystem is in play.
    pub telemetry: TelemetrySnapshot,
}

impl ServiceStats {
    /// Attaches registry cache counters to this snapshot.
    #[must_use]
    pub fn with_registry(mut self, registry: RegistryStats) -> Self {
        self.telemetry.registry = registry;
        self
    }

    /// Attaches adaptation-engine counters to this snapshot.
    #[must_use]
    pub fn with_adapt(mut self, adapt: AdaptStats) -> Self {
        self.telemetry.adapt = adapt;
        self
    }
}

/// Accumulated counters of sessions already retired from their shards.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RetiredStats {
    pub sessions: usize,
    pub totals: SessionStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let counters = SessionCounters::default();
        counters.cell.record_in(10);
        counters.record_drain(40, 3);
        counters.record_drain(15, 7);
        let stats = counters.snapshot();
        assert_eq!(stats.frames_in, 10);
        assert_eq!(stats.drains, 2);
        assert_eq!(stats.max_drain_micros, 40);
        assert_eq!(stats.last_drain_tick, 7, "latest tick wins");
        assert!(stats.ewma_drain_us > 0, "EWMA fed from record_drain");
    }

    #[test]
    fn session_obs_merges_across_shards_worst_first() {
        let obs = SessionObs::new(&SessionObsConfig::enabled(), 2).expect("enabled");
        obs.record(0, 11, 500, 4, 0);
        obs.record(0, 11, 500, 4, 0);
        obs.record(1, 22, 10, 1, 64);
        obs.record(5, 99, 1, 1, 1); // out-of-range shard: ignored
        let rows = obs.merged();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, 11, "worst combined score first");
        assert_eq!(
            rows[0].1,
            SessionScores {
                latency: 1000,
                saturation: 8,
                discard: 0
            }
        );
        assert_eq!(rows[1].1.discard, 64);
    }

    #[test]
    fn session_obs_disabled_builds_nothing() {
        assert!(SessionObs::new(&SessionObsConfig::default(), 4).is_none());
    }

    #[test]
    fn aggregate_sums_and_maxes() {
        let mut totals = SessionStats {
            frames_in: 100,
            max_drain_micros: 7,
            last_drain_tick: 9,
            ..Default::default()
        };
        totals.absorb(&SessionStats {
            frames_in: 5,
            max_drain_micros: 11,
            last_drain_tick: 3,
            ..Default::default()
        });
        assert_eq!(totals.frames_in, 105, "counters sum");
        assert_eq!(totals.max_drain_micros, 11, "latency bounds take the max");
        assert_eq!(totals.last_drain_tick, 9, "the latest tick wins");
    }
}
