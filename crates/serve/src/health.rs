//! Continuous self-assessment: SLO burn-rate rules, a shard liveness
//! watchdog, and the operator-facing health snapshot.
//!
//! PR 5 made the hot path *measurable* and the tracing layer made
//! individual chunks *traceable*; this module is the part that actually
//! **watches** those signals. A dedicated evaluator thread (spawned by
//! [`crate::DetectionService`] when [`HealthConfig::enabled`] is set)
//! ticks once per [`HealthConfig::interval`]:
//!
//! 1. it samples the cumulative telemetry and forms the per-tick
//!    *deltas* (frame-counter rates, per-tick stage histograms via
//!    [`HistogramSnapshot::delta_since`]), keeping the newest ticks in
//!    one window — the burn rules read its tail, and
//!    [`HealthSnapshot::series`] renders it as fixed-width rows for the
//!    `watch` view and the wire `HealthSnapshot`;
//! 2. it evaluates every declarative [`SloRule`] over two sliding
//!    windows — a **fast** window (catches sharp regressions quickly)
//!    and a **slow** window (filters noise) — and assigns each rule a
//!    burn rate per window: `observed / ceiling`, so `1.0` means the
//!    objective is being consumed exactly at its limit;
//! 3. it folds the per-rule verdicts into one service verdict and emits
//!    a typed [`HealthTransition`] onto the service event bus (and into
//!    a bounded journal) whenever any verdict changes.
//!
//! ## Verdict semantics
//!
//! A rule is [`HealthVerdict::Critical`] when **both** windows burn at
//! ≥ 1.0 (the regression is sharp *and* sustained), [`Degraded`] when
//! exactly one does, otherwise [`Ok`]. Upgrades apply immediately;
//! downgrades apply only after [`HealthConfig::recover_after`]
//! consecutive cleaner evaluations — the hysteresis that keeps an
//! oscillating load from flapping the verdict (and spamming the bus)
//! every tick.
//!
//! The [`SloRule::ShardStall`] watchdog bypasses the windows entirely:
//! each shard worker bumps a heartbeat counter on every productive drain
//! pass, and a shard that *has queued work* but whose heartbeat has not
//! advanced for `max_missed` consecutive ticks is flagged `Critical` on
//! the spot — a wedged or deadlocked worker is detected within one
//! evaluation period of exhausting its allowance, not after a slow
//! window fills.
//!
//! Everything here follows the zero-cost-when-off discipline: with
//! health disabled (the default) no evaluator thread exists, the worker
//! loop's heartbeat hook is a skipped `Option`, and **no additional
//! clock is ever read** — this module deliberately never calls
//! `Instant::now()` (evaluation "time" is the tick count; the interval
//! sleep is a condvar timeout), which is enforced by `cargo xtask lint`.
//!
//! [`Degraded`]: HealthVerdict::Degraded
//! [`Ok`]: HealthVerdict::Ok

use std::collections::VecDeque;
use std::time::Duration;

use laelaps_check::sync::atomic::{AtomicU64, Ordering};
use laelaps_check::sync::{Condvar, Mutex};

use laelaps_telemetry::{HistogramSnapshot, Stage, StagesSnapshot};

use crate::stats::ShardGauges;

/// Words per [`SeriesSample`] row: the five frame-counter deltas, the
/// total queued-chunk gauge, then one per-tick p99 per pipeline stage.
pub const SAMPLE_WORDS: usize = 6 + Stage::ALL.len();

/// Index of a frame-counter delta inside a sample row.
const W_FRAMES_IN: usize = 0;
const W_FRAMES_PROCESSED: usize = 1;
const W_FRAMES_DROPPED: usize = 2;
const W_FRAMES_REFUSED: usize = 3;
const W_FRAMES_DISCARDED: usize = 4;
/// Index of the total ring-depth gauge inside a sample row.
const W_RING_DEPTH: usize = 5;
/// First per-stage p99 word; stage `s` lives at `W_STAGE0 + s as usize`.
const W_STAGE0: usize = 6;

/// How many recent series rows a [`HealthSnapshot`] carries (enough for
/// a `watch` sparkline without bloating the wire frame). The evaluator
/// keeps at least this many ticks.
const SERIES_EXPORT: usize = 32;

/// How many per-session samples one evaluation tick retains — the
/// worst-looking sessions only, so the evaluator's per-tick state stays
/// bounded no matter how many sessions are live. A stalled session's
/// backlog grows monotonically, so it climbs into the sample set within
/// a tick or two of wedging.
pub(crate) const SESSION_SAMPLE_CAP: usize = 16;

/// Stable label of sample word `index` (`None` past
/// [`SAMPLE_WORDS`]) — what the Prometheus exposition and the `watch`
/// view call each column.
pub fn sample_label(index: usize) -> Option<String> {
    match index {
        W_FRAMES_IN => Some("frames_in".into()),
        W_FRAMES_PROCESSED => Some("frames_processed".into()),
        W_FRAMES_DROPPED => Some("frames_dropped".into()),
        W_FRAMES_REFUSED => Some("frames_refused".into()),
        W_FRAMES_DISCARDED => Some("frames_discarded".into()),
        W_RING_DEPTH => Some("ring_depth_chunks".into()),
        i if i < SAMPLE_WORDS => Stage::ALL
            .get(i - W_STAGE0)
            .map(|s| format!("p99_{}_us", s.name())),
        _ => None,
    }
}

/// Health evaluation configuration, carried on
/// [`crate::ServeConfig::health`]. Default **off**: no evaluator
/// thread, no heartbeats, zero extra clock reads.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthConfig {
    /// Master switch.
    pub enabled: bool,
    /// Evaluation period: how often the evaluator samples the telemetry
    /// and re-evaluates every rule.
    pub interval: Duration,
    /// Fast burn window, in ticks — sharp regressions trip it within
    /// `fast_window × interval`.
    pub fast_window: usize,
    /// Slow burn window, in ticks (≥ the fast window) — sustained
    /// regressions confirm here; transient spikes do not.
    pub slow_window: usize,
    /// Consecutive cleaner evaluations required before a verdict is
    /// allowed to *downgrade* (upgrades are immediate) — the anti-flap
    /// hysteresis.
    pub recover_after: u32,
    /// How many [`HealthTransition`]s the journal retains
    /// (overwrite-oldest).
    pub journal_capacity: usize,
    /// The objectives to evaluate.
    pub rules: Vec<SloRule>,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            enabled: false,
            interval: Duration::from_millis(250),
            fast_window: 4,
            slow_window: 24,
            recover_after: 3,
            journal_capacity: 64,
            rules: SloRule::default_rules(),
        }
    }
}

impl HealthConfig {
    /// The default configuration with evaluation switched on.
    pub fn enabled() -> Self {
        HealthConfig {
            enabled: true,
            ..HealthConfig::default()
        }
    }
}

/// One declarative service-level objective.
///
/// Every rule maps the windowed telemetry to a **burn rate** —
/// `observed / ceiling`, dimensionless, 1.0 = consuming the objective
/// exactly at its limit — evaluated independently over the fast and
/// slow windows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SloRule {
    /// The windowed p99 of one pipeline stage must stay under
    /// `ceiling_us` microseconds.
    StageP99 {
        /// Stage under the objective.
        stage: Stage,
        /// Windowed-p99 ceiling, µs.
        ceiling_us: u64,
    },
    /// Frames dropped (lossy push against a full ring) per 10 000
    /// frames in must stay under the ceiling.
    DropRate {
        /// Ceiling, in dropped frames per 10 000 accepted.
        max_per_10k: u64,
    },
    /// Frames discarded (by failed sessions) per 10 000 frames in must
    /// stay under the ceiling.
    DiscardRate {
        /// Ceiling, in discarded frames per 10 000 accepted.
        max_per_10k: u64,
    },
    /// Frames refused (reliable push backpressure) per 10 000 frames in
    /// must stay under the ceiling.
    RefusalRate {
        /// Ceiling, in refused frames per 10 000 accepted.
        max_per_10k: u64,
    },
    /// The total queued-chunk depth across every session ring must stay
    /// under the ceiling (saturation = sustained producer overrun).
    RingSaturation {
        /// Ceiling, in queued chunks summed over all sessions.
        max_depth_chunks: u64,
    },
    /// Feedback→swap propagation (the [`Stage::AdaptPropagate`] span)
    /// windowed p99 must stay under `ceiling_us` — a model retrained
    /// from feedback must actually reach the serving sessions promptly.
    SwapStaleness {
        /// Windowed-p99 ceiling for the whole propagation span, µs.
        ceiling_us: u64,
    },
    /// Liveness watchdog: a shard with queued work whose worker
    /// heartbeat has not advanced for `max_missed` consecutive ticks is
    /// `Critical` immediately (no burn windows).
    ShardStall {
        /// Consecutive heartbeat-less ticks (with work queued) a shard
        /// is allowed before it is declared stalled.
        max_missed: u32,
    },
    /// Per-session liveness watchdog: a sampled *session* with queued
    /// work whose `frames_processed` has not advanced for `max_missed`
    /// consecutive ticks is `Critical` immediately (no burn windows) —
    /// catches one patient's stream silently going dark while its shard
    /// stays healthy. Transitions name the offender
    /// (`"session_stall:<id>"`).
    SessionStall {
        /// Consecutive progress-less ticks (with work queued) a session
        /// is allowed before it is declared stalled.
        max_missed: u32,
    },
    /// The worst sampled session's cumulative discard rate — frames
    /// discarded per 10 000 accepted *by that session* — must stay
    /// under the ceiling. Cumulative, not windowed (discards follow a
    /// terminal detector failure, so the rate only clears when the
    /// failed session retires); both burn windows read the same value.
    /// Transitions name the offender (`"session_discard_rate:<id>"`).
    SessionDiscardRate {
        /// Ceiling, in discarded frames per 10 000 accepted, per
        /// session.
        max_per_10k: u64,
    },
    /// The worst sampled session's EWMA drain latency must stay under
    /// `ceiling_us` — one chronically slow session surfaces even while
    /// service-wide percentiles look fine. Both burn windows read the
    /// same (already-smoothed) value. Transitions name the offender
    /// (`"session_latency:<id>"`).
    SessionLatency {
        /// Per-session EWMA drain-latency ceiling, µs.
        ceiling_us: u64,
    },
}

impl SloRule {
    /// A permissive starter rule set: generous ceilings that flag only
    /// unambiguous misbehaviour (a wedged shard, runaway drops, a
    /// saturated service). Operators tighten per deployment.
    pub fn default_rules() -> Vec<SloRule> {
        vec![
            SloRule::StageP99 {
                stage: Stage::Drain,
                ceiling_us: 400_000,
            },
            SloRule::DropRate { max_per_10k: 2_000 },
            SloRule::DiscardRate { max_per_10k: 1_000 },
            SloRule::RingSaturation {
                max_depth_chunks: 4_096,
            },
            SloRule::SwapStaleness {
                ceiling_us: 5_000_000,
            },
            SloRule::ShardStall { max_missed: 2 },
            SloRule::SessionStall { max_missed: 4 },
            SloRule::SessionDiscardRate { max_per_10k: 2_000 },
            SloRule::SessionLatency {
                ceiling_us: 1_000_000,
            },
        ]
    }

    /// Stable machine-readable rule name (what the wire snapshot, the
    /// Prometheus labels, and the journal call it).
    pub fn name(&self) -> String {
        match self {
            SloRule::StageP99 { stage, .. } => format!("stage_p99:{}", stage.name()),
            SloRule::DropRate { .. } => "drop_rate".to_string(),
            SloRule::DiscardRate { .. } => "discard_rate".to_string(),
            SloRule::RefusalRate { .. } => "refusal_rate".to_string(),
            SloRule::RingSaturation { .. } => "ring_saturation".to_string(),
            SloRule::SwapStaleness { .. } => "swap_staleness".to_string(),
            SloRule::ShardStall { .. } => "shard_stall".to_string(),
            SloRule::SessionStall { .. } => "session_stall".to_string(),
            SloRule::SessionDiscardRate { .. } => "session_discard_rate".to_string(),
            SloRule::SessionLatency { .. } => "session_latency".to_string(),
        }
    }
}

/// A rule's (or the whole service's) current state. Ordered: a higher
/// verdict is worse, and the service verdict is the per-rule maximum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthVerdict {
    /// Every window burns under its ceiling.
    #[default]
    Ok = 0,
    /// Exactly one window burns at or over 1.0 — sharp-but-new, or
    /// lingering-but-fading.
    Degraded = 1,
    /// Both windows burn at or over 1.0 (or a watchdog fired): the
    /// objective is being violated, sharply and sustainedly.
    Critical = 2,
}

impl HealthVerdict {
    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            HealthVerdict::Ok => "ok",
            HealthVerdict::Degraded => "degraded",
            HealthVerdict::Critical => "critical",
        }
    }

    /// Decodes the wire discriminant.
    pub fn from_raw(raw: u8) -> Option<HealthVerdict> {
        match raw {
            0 => Some(HealthVerdict::Ok),
            1 => Some(HealthVerdict::Degraded),
            2 => Some(HealthVerdict::Critical),
            _ => None,
        }
    }
}

/// One rule's most recent evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleEval {
    /// [`SloRule::name`] of the rule.
    pub name: String,
    /// Current (hysteresis-filtered) verdict.
    pub verdict: HealthVerdict,
    /// Burn rate over the fast window (`observed / ceiling`).
    pub fast_burn: f64,
    /// Burn rate over the slow window.
    pub slow_burn: f64,
}

/// A verdict state change, as journaled and as emitted on the service
/// event bus inside [`crate::ServiceEvent::Health`].
#[derive(Debug, Clone, PartialEq)]
pub struct HealthTransition {
    /// Evaluation tick (0-based count of evaluator periods) at which
    /// the transition happened.
    pub tick: u64,
    /// [`SloRule::name`] of the rule that moved — or `"overall"` for
    /// the folded service verdict.
    pub rule: String,
    /// Verdict before.
    pub from: HealthVerdict,
    /// Verdict after.
    pub to: HealthVerdict,
    /// Fast-window burn at transition time.
    pub fast_burn: f64,
    /// Slow-window burn at transition time.
    pub slow_burn: f64,
}

/// One row of the health time-series: one evaluation tick's deltas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesSample {
    /// Row number (0-based; the first tick only sets the baseline, so
    /// evaluation tick `t` produces row `t - 1`).
    pub seq: u64,
    /// [`SAMPLE_WORDS`] words, named by [`sample_label`].
    pub words: Vec<u64>,
}

/// Point-in-time health view: the folded verdict, every rule's latest
/// evaluation, the recent transition journal, and the tail of the
/// metric time-series. `enabled: false` (with everything empty) when
/// the service was built without health evaluation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthSnapshot {
    /// Whether health evaluation is running.
    pub enabled: bool,
    /// The folded service verdict (worst rule verdict).
    pub verdict: HealthVerdict,
    /// Evaluation ticks performed so far.
    pub ticks: u64,
    /// Verdict transitions since the evaluator started, rule and
    /// overall alike — every one ever journaled, including those the
    /// bounded journal has since dropped.
    pub transitions_total: u64,
    /// Latest evaluation of every configured rule.
    pub rules: Vec<RuleEval>,
    /// Recent verdict transitions, oldest first (bounded journal).
    pub transitions: Vec<HealthTransition>,
    /// Tail of the metric time-series, oldest first: one row per tick,
    /// at most 32 rows.
    pub series: Vec<SeriesSample>,
}

/// What one evaluation tick observes: the cumulative service counters,
/// the cumulative stage histograms, the per-shard saturation gauges,
/// the per-shard heartbeat counters, and a bounded set of per-session
/// samples for the session-level rules.
#[derive(Debug, Clone)]
pub(crate) struct HealthInput {
    /// Cumulative `[in, processed, dropped, refused, discarded]`.
    pub frames: [u64; 5],
    /// Cumulative stage histograms.
    pub stages: StagesSnapshot,
    /// Per-shard saturation gauges.
    pub shards: Vec<ShardGauges>,
    /// Per-shard heartbeat counters (see [`HealthState::bump_heartbeat`]).
    pub heartbeats: Vec<u64>,
    /// The worst-looking live sessions, at most [`SESSION_SAMPLE_CAP`]
    /// of them (most in-flight first) — what the `Session*` rules
    /// evaluate.
    pub sessions: Vec<SessionHealthSample>,
}

/// One session's observation inside a [`HealthInput`]: cumulative frame
/// counters plus the derived in-flight backlog and the drain-latency
/// EWMA.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SessionHealthSample {
    /// Session id (what a firing rule names in its transition).
    pub session: u64,
    /// Shard the session is pinned to.
    pub shard: usize,
    /// Cumulative frames accepted.
    pub frames_in: u64,
    /// Cumulative frames processed.
    pub frames_processed: u64,
    /// Cumulative frames discarded after a detector failure.
    pub frames_discarded: u64,
    /// Accepted frames not yet processed or discarded (the backlog that
    /// arms the stall watchdog).
    pub in_flight: u64,
    /// EWMA drain latency, µs.
    pub ewma_drain_us: u64,
}

/// One tick's deltas, kept for window evaluation and the series rows.
struct TickDelta {
    /// [`SeriesSample::seq`] of this tick's row.
    seq: u64,
    /// `[in, processed, dropped, refused, discarded]` gained this tick.
    frames: [u64; 5],
    /// Total queued chunks at sample time (gauge, not a delta).
    ring_depth: u64,
    /// Per-stage histograms of just this tick's samples.
    stages: Vec<HistogramSnapshot>,
}

/// The previous cumulative observation (delta baseline).
struct Baseline {
    frames: [u64; 5],
    stages: StagesSnapshot,
    heartbeats: Vec<u64>,
}

/// Per-rule hysteresis state.
struct RuleState {
    verdict: HealthVerdict,
    /// Consecutive evaluations whose computed verdict was *better* than
    /// the held one.
    cleaner: u32,
}

/// Everything the evaluator mutates, under one lock (the lock is
/// contended only by snapshot readers, never by the hot path).
struct EvalCore {
    baseline: Option<Baseline>,
    /// The newest `max(slow_window, SERIES_EXPORT)` ticks, oldest first;
    /// the burn rules read only their newest `fast` / `slow` ticks.
    window: VecDeque<TickDelta>,
    rules: Vec<RuleState>,
    /// Consecutive heartbeat-less ticks (with work queued), per shard.
    missed: Vec<u32>,
    /// Per-session stall watch, rebuilt each tick from the bounded
    /// sample set: `(session, frames_processed at last tick, missed)`.
    /// At most [`SESSION_SAMPLE_CAP`] entries, so evaluator memory
    /// stays independent of the session count.
    session_watch: Vec<(u64, u64, u32)>,
    latest: Vec<RuleEval>,
    verdict: HealthVerdict,
    journal: VecDeque<HealthTransition>,
    transitions_total: u64,
    ticks: u64,
}

/// Shared health state: heartbeat counters the workers bump and the
/// evaluator's windows and rule state. Owned by the service (`Arc`),
/// shared with the evaluator thread.
pub(crate) struct HealthState {
    config: HealthConfig,
    heartbeats: Box<[AtomicU64]>,
    core: Mutex<EvalCore>,
    stop: Mutex<bool>,
    wake: Condvar,
}

impl HealthState {
    pub(crate) fn new(config: HealthConfig, shards: usize) -> Self {
        let rules = config
            .rules
            .iter()
            .map(|_| RuleState {
                verdict: HealthVerdict::Ok,
                cleaner: 0,
            })
            .collect();
        let latest = config
            .rules
            .iter()
            .map(|rule| RuleEval {
                name: rule.name(),
                verdict: HealthVerdict::Ok,
                fast_burn: 0.0,
                slow_burn: 0.0,
            })
            .collect();
        HealthState {
            heartbeats: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            core: Mutex::new(EvalCore {
                baseline: None,
                window: VecDeque::new(),
                rules,
                missed: vec![0; shards],
                session_watch: Vec::new(),
                latest,
                verdict: HealthVerdict::Ok,
                journal: VecDeque::new(),
                transitions_total: 0,
                ticks: 0,
            }),
            stop: Mutex::new(false),
            wake: Condvar::new(),
            config,
        }
    }

    /// Marks one productive drain pass on `shard`. Called by the worker
    /// loop under the same condition as its progress bump; one `Relaxed`
    /// `fetch_add`, nothing else.
    #[inline]
    pub(crate) fn bump_heartbeat(&self, shard: usize) {
        self.heartbeats[shard].fetch_add(1, Ordering::Relaxed);
    }

    /// Current heartbeat counters, indexed by shard.
    pub(crate) fn heartbeat_counts(&self) -> Vec<u64> {
        self.heartbeats
            .iter()
            .map(|h| h.load(Ordering::Relaxed))
            .collect()
    }

    /// Sleeps one evaluation period (or until [`HealthState::shutdown`]);
    /// returns `true` when the evaluator should exit.
    pub(crate) fn wait_interval(&self) -> bool {
        let guard = self.stop.lock().expect("health stop lock poisoned");
        if *guard {
            return true;
        }
        let (guard, _timeout) = self
            .wake
            .wait_timeout(guard, self.config.interval)
            .expect("health stop lock poisoned");
        *guard
    }

    /// Asks the evaluator thread to exit its next wait.
    pub(crate) fn shutdown(&self) {
        *self.stop.lock().expect("health stop lock poisoned") = true;
        self.wake.notify_all();
    }

    /// One evaluation tick: fold `input` into the windows, re-evaluate
    /// every rule, and return the verdict transitions (already
    /// journaled) for the caller to publish on the service bus.
    pub(crate) fn tick(&self, input: HealthInput) -> Vec<HealthTransition> {
        let mut core = self.core.lock().expect("health core lock poisoned");
        let core = &mut *core;
        let tick = core.ticks;
        core.ticks += 1;

        // Watchdog bookkeeping runs on cumulative state (no baseline
        // needed beyond the previous heartbeat reading).
        let queued: Vec<bool> = input
            .shards
            .iter()
            .map(|s| s.ring_depth_chunks > 0 || s.in_flight_frames > 0)
            .collect();
        if let Some(baseline) = &core.baseline {
            for (shard, missed) in core.missed.iter_mut().enumerate() {
                let advanced = input.heartbeats.get(shard).copied().unwrap_or(0)
                    != baseline.heartbeats.get(shard).copied().unwrap_or(0);
                if advanced || !queued.get(shard).copied().unwrap_or(false) {
                    *missed = 0;
                } else {
                    *missed = missed.saturating_add(1);
                }
            }
        }

        // Per-session stall bookkeeping, same shape as the shard
        // watchdog: a sampled session with queued work whose
        // `frames_processed` did not advance since the last tick misses
        // a beat; progress (or an empty backlog, or dropping out of the
        // sample set) clears it. Rebuilt each tick, bounded by the
        // sample cap.
        core.session_watch = input
            .sessions
            .iter()
            .map(|s| {
                let missed = core
                    .session_watch
                    .iter()
                    .find(|(id, _, _)| *id == s.session)
                    .map_or(0, |(_, last_processed, missed)| {
                        if s.in_flight > 0 && s.frames_processed == *last_processed {
                            missed.saturating_add(1)
                        } else {
                            0
                        }
                    });
                (s.session, s.frames_processed, missed)
            })
            .collect();

        let ring_depth: u64 = input
            .shards
            .iter()
            .map(|s| s.ring_depth_chunks as u64)
            .sum();

        // Delta this tick against the previous cumulative observation;
        // the first tick only establishes the baseline.
        if let Some(baseline) = &core.baseline {
            let mut frames = [0u64; 5];
            for (delta, (now, before)) in frames
                .iter_mut()
                .zip(input.frames.iter().zip(baseline.frames.iter()))
            {
                *delta = now.saturating_sub(*before);
            }
            let stages: Vec<HistogramSnapshot> = Stage::ALL
                .iter()
                .map(|&stage| {
                    input
                        .stages
                        .get(stage)
                        .delta_since(baseline.stages.get(stage))
                })
                .collect();
            core.window.push_back(TickDelta {
                seq: tick - 1,
                frames,
                ring_depth,
                stages,
            });
            while core.window.len() > self.config.slow_window.max(SERIES_EXPORT) {
                core.window.pop_front();
            }
        }
        core.baseline = Some(Baseline {
            frames: input.frames,
            stages: input.stages,
            heartbeats: input.heartbeats,
        });

        // Evaluate every rule over both windows and apply hysteresis.
        let mut transitions = Vec::new();
        let before_overall = core.verdict;
        let fast = self.config.fast_window.max(1);
        let slow = self.config.slow_window.max(1);
        let mut latest = Vec::with_capacity(self.config.rules.len());
        for (index, rule) in self.config.rules.iter().enumerate() {
            let (fast_burn, slow_burn, offender) = burns(
                rule,
                &core.window,
                fast,
                slow,
                &core.missed,
                &core.session_watch,
                &input.sessions,
            );
            let computed = match rule {
                // The watchdogs are binary: missing the allowance is
                // Critical on the spot, windows play no part.
                SloRule::ShardStall { .. } | SloRule::SessionStall { .. } => {
                    if fast_burn >= 1.0 {
                        HealthVerdict::Critical
                    } else {
                        HealthVerdict::Ok
                    }
                }
                _ => match (fast_burn >= 1.0, slow_burn >= 1.0) {
                    (true, true) => HealthVerdict::Critical,
                    (true, false) | (false, true) => HealthVerdict::Degraded,
                    (false, false) => HealthVerdict::Ok,
                },
            };
            let state = &mut core.rules[index];
            let held = state.verdict;
            if computed >= held {
                // Upgrades (and steady state) apply immediately.
                state.cleaner = 0;
                state.verdict = computed;
            } else {
                // Downgrades wait out the hysteresis.
                state.cleaner += 1;
                if state.cleaner >= self.config.recover_after.max(1) {
                    state.verdict = computed;
                    state.cleaner = 0;
                }
            }
            if state.verdict != held {
                // A per-session rule names its worst offender on the
                // way *up* ("session_stall:3"), so the journal and the
                // bus say which patient stream to look at; downgrades
                // use the plain rule name (the offender may be gone).
                let rule_label = match offender {
                    Some(id) if state.verdict > held => format!("{}:{id}", rule.name()),
                    _ => rule.name(),
                };
                transitions.push(HealthTransition {
                    tick,
                    rule: rule_label,
                    from: held,
                    to: state.verdict,
                    fast_burn,
                    slow_burn,
                });
            }
            latest.push(RuleEval {
                name: rule.name(),
                verdict: state.verdict,
                fast_burn,
                slow_burn,
            });
        }
        core.verdict = latest
            .iter()
            .map(|rule| rule.verdict)
            .max()
            .unwrap_or(HealthVerdict::Ok);
        if core.verdict != before_overall {
            let worst = latest
                .iter()
                .max_by(|a, b| {
                    a.fast_burn
                        .max(a.slow_burn)
                        .total_cmp(&b.fast_burn.max(b.slow_burn))
                })
                .cloned();
            transitions.push(HealthTransition {
                tick,
                rule: "overall".to_string(),
                from: before_overall,
                to: core.verdict,
                fast_burn: worst.as_ref().map_or(0.0, |w| w.fast_burn),
                slow_burn: worst.as_ref().map_or(0.0, |w| w.slow_burn),
            });
        }
        core.latest = latest;
        core.transitions_total += transitions.len() as u64;
        for transition in &transitions {
            core.journal.push_back(transition.clone());
            while core.journal.len() > self.config.journal_capacity.max(1) {
                core.journal.pop_front();
            }
        }
        transitions
    }

    /// Point-in-time [`HealthSnapshot`].
    pub(crate) fn snapshot(&self) -> HealthSnapshot {
        let core = self.core.lock().expect("health core lock poisoned");
        let skip = core.window.len().saturating_sub(SERIES_EXPORT);
        HealthSnapshot {
            enabled: true,
            verdict: core.verdict,
            ticks: core.ticks,
            transitions_total: core.transitions_total,
            rules: core.latest.clone(),
            transitions: core.journal.iter().cloned().collect(),
            series: core.window.iter().skip(skip).map(series_row).collect(),
        }
    }
}

impl std::fmt::Debug for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let core = self.core.lock().expect("health core lock poisoned");
        f.debug_struct("HealthState")
            .field("verdict", &core.verdict)
            .field("ticks", &core.ticks)
            .finish_non_exhaustive()
    }
}

/// One tick as a [`SeriesSample`] row, word order as [`sample_label`].
fn series_row(tick: &TickDelta) -> SeriesSample {
    let mut words = Vec::with_capacity(SAMPLE_WORDS);
    words.extend_from_slice(&tick.frames);
    words.push(tick.ring_depth);
    words.extend(tick.stages.iter().map(HistogramSnapshot::p99));
    SeriesSample {
        seq: tick.seq,
        words,
    }
}

/// Burn rates of `rule` over the last `fast` and `slow` ticks of
/// `window` (newest at the back). The third return is the worst
/// offending session id, `Some` only for the per-session rules — what
/// an upgrade transition appends to the rule name.
fn burns(
    rule: &SloRule,
    window: &VecDeque<TickDelta>,
    fast: usize,
    slow: usize,
    missed: &[u32],
    session_watch: &[(u64, u64, u32)],
    sessions: &[SessionHealthSample],
) -> (f64, f64, Option<u64>) {
    match rule {
        SloRule::StageP99 { stage, ceiling_us } => {
            let burn = |n| windowed_p99(window, n, *stage) as f64 / (*ceiling_us).max(1) as f64;
            (burn(fast), burn(slow), None)
        }
        SloRule::SwapStaleness { ceiling_us } => {
            let burn = |n| {
                windowed_p99(window, n, Stage::AdaptPropagate) as f64 / (*ceiling_us).max(1) as f64
            };
            (burn(fast), burn(slow), None)
        }
        SloRule::DropRate { max_per_10k } => rate_burns(window, fast, slow, 2, *max_per_10k),
        SloRule::DiscardRate { max_per_10k } => rate_burns(window, fast, slow, 4, *max_per_10k),
        SloRule::RefusalRate { max_per_10k } => rate_burns(window, fast, slow, 3, *max_per_10k),
        SloRule::RingSaturation { max_depth_chunks } => {
            let burn = |n: usize| {
                let worst = window
                    .iter()
                    .rev()
                    .take(n)
                    .map(|t| t.ring_depth)
                    .max()
                    .unwrap_or(0);
                worst as f64 / (*max_depth_chunks).max(1) as f64
            };
            (burn(fast), burn(slow), None)
        }
        SloRule::ShardStall { max_missed } => {
            let worst = missed.iter().copied().max().unwrap_or(0);
            let burn = worst as f64 / (*max_missed).max(1) as f64;
            (burn, burn, None)
        }
        SloRule::SessionStall { max_missed } => {
            // Watchdog over the bounded stall watch; no windows — the
            // missed counter is already "consecutive ticks".
            let worst = session_watch.iter().max_by_key(|(_, _, m)| *m);
            let burn = worst.map_or(0.0, |(_, _, m)| *m as f64 / (*max_missed).max(1) as f64);
            (burn, burn, worst.map(|(id, _, _)| *id))
        }
        SloRule::SessionDiscardRate { max_per_10k } => {
            // Cumulative per-session rate (discards follow a terminal
            // failure; the rate clears when the session retires), so
            // both windows read the same value.
            let worst = sessions.iter().max_by(|a, b| {
                per_10k(a.frames_discarded, a.frames_in)
                    .total_cmp(&per_10k(b.frames_discarded, b.frames_in))
            });
            let burn = worst.map_or(0.0, |s| {
                per_10k(s.frames_discarded, s.frames_in) / (*max_per_10k).max(1) as f64
            });
            (burn, burn, worst.map(|s| s.session))
        }
        SloRule::SessionLatency { ceiling_us } => {
            // The EWMA is already smoothed, so both windows read it as
            // is.
            let worst = sessions.iter().max_by_key(|s| s.ewma_drain_us);
            let burn = worst.map_or(0.0, |s| {
                s.ewma_drain_us as f64 / (*ceiling_us).max(1) as f64
            });
            (burn, burn, worst.map(|s| s.session))
        }
    }
}

/// Cumulative events per 10 000 frames in.
fn per_10k(hit: u64, base: u64) -> f64 {
    hit as f64 * 10_000.0 / base.max(1) as f64
}

/// p99 of `stage` over the newest `n` ticks (per-tick delta histograms
/// merged — exact, since merging bucket counts is exact).
fn windowed_p99(window: &VecDeque<TickDelta>, n: usize, stage: Stage) -> u64 {
    let mut merged = HistogramSnapshot::default();
    for tick in window.iter().rev().take(n) {
        merged.merge(&tick.stages[stage as usize]);
    }
    merged.p99()
}

/// Burn rates for a per-10k frame-rate rule: counter at `index` summed
/// over the window, per 10 000 frames in over the same window.
fn rate_burns(
    window: &VecDeque<TickDelta>,
    fast: usize,
    slow: usize,
    index: usize,
    max_per_10k: u64,
) -> (f64, f64, Option<u64>) {
    let burn = |n: usize| {
        let (mut hit, mut base) = (0u64, 0u64);
        for tick in window.iter().rev().take(n) {
            hit += tick.frames[index];
            base += tick.frames[W_FRAMES_IN];
        }
        per_10k(hit, base) / max_per_10k.max(1) as f64
    };
    (burn(fast), burn(slow), None)
}

#[cfg(test)]
mod tests {
    use laelaps_telemetry::Histogram;

    use super::*;

    /// A synthetic observation: cumulative frames, idle stages, one
    /// shard whose gauges and heartbeat the test scripts.
    fn input(frames: [u64; 5], depth: usize, in_flight: u64, heartbeat: u64) -> HealthInput {
        HealthInput {
            frames,
            stages: StagesSnapshot::default(),
            shards: vec![ShardGauges {
                shard: 0,
                sessions: 1,
                ring_depth_chunks: depth,
                in_flight_frames: in_flight,
            }],
            heartbeats: vec![heartbeat],
            sessions: Vec::new(),
        }
    }

    /// [`input`] plus scripted per-session samples.
    fn input_with_sessions(
        frames: [u64; 5],
        heartbeat: u64,
        sessions: Vec<SessionHealthSample>,
    ) -> HealthInput {
        HealthInput {
            sessions,
            ..input(frames, 0, 0, heartbeat)
        }
    }

    fn sample(session: u64, frames_in: u64, processed: u64, discarded: u64) -> SessionHealthSample {
        SessionHealthSample {
            session,
            shard: 0,
            frames_in,
            frames_processed: processed,
            frames_discarded: discarded,
            in_flight: frames_in
                .saturating_sub(processed)
                .saturating_sub(discarded),
            ewma_drain_us: 0,
        }
    }

    fn config(rules: Vec<SloRule>) -> HealthConfig {
        HealthConfig {
            enabled: true,
            fast_window: 2,
            slow_window: 4,
            recover_after: 3,
            rules,
            ..HealthConfig::default()
        }
    }

    #[test]
    fn drop_rate_breach_degrades_then_goes_critical_then_recovers() {
        let state = HealthState::new(config(vec![SloRule::DropRate { max_per_10k: 100 }]), 1);
        // Baseline, then a clean history long enough to fill the slow
        // window (4 ticks of 10k frames, zero drops).
        state.tick(input([0; 5], 0, 0, 0));
        let mut cumulative = [0u64; 5];
        for hb in 1..=4u64 {
            cumulative[0] += 10_000;
            cumulative[1] += 10_000;
            let transitions = state.tick(input(cumulative, 0, 0, hb));
            assert!(transitions.is_empty());
        }
        assert_eq!(state.snapshot().verdict, HealthVerdict::Ok);
        // One tick of 300 drops per 10k frames: the fast window (2
        // ticks) reads 150/10k — breached — while the slow window (4
        // ticks) reads 75/10k — still under. Exactly one window over →
        // Degraded.
        cumulative[0] += 10_000;
        cumulative[1] += 9_700;
        cumulative[2] += 300;
        let mut transitions = state.tick(input(cumulative, 0, 0, 5));
        assert_eq!(state.snapshot().verdict, HealthVerdict::Degraded);
        assert!(transitions.iter().any(|t| t.rule == "drop_rate"
            && t.from == HealthVerdict::Ok
            && t.to == HealthVerdict::Degraded));
        // Drops persist: the slow window confirms (600/40k = 150/10k) →
        // Critical, and the overall verdict follows.
        cumulative[0] += 10_000;
        cumulative[1] += 9_700;
        cumulative[2] += 300;
        transitions = state.tick(input(cumulative, 0, 0, 6));
        assert_eq!(state.snapshot().verdict, HealthVerdict::Critical);
        assert!(transitions
            .iter()
            .any(|t| t.rule == "overall" && t.to == HealthVerdict::Critical));
        // Clean traffic again: recovery waits out the windows *and*
        // recover_after (3) cleaner ticks, then lands back at Ok.
        let mut all = Vec::new();
        for hb in 7..22u64 {
            cumulative[0] += 10_000;
            cumulative[1] += 10_000;
            all.extend(state.tick(input(cumulative, 0, 0, hb)));
        }
        let end = state.snapshot();
        assert_eq!(end.verdict, HealthVerdict::Ok, "recovered: {end:?}");
        // Recovery is a single journaled downgrade per scope — no
        // flapping back up on the way down.
        let rule_downs: Vec<_> = all
            .iter()
            .filter(|t| t.rule == "drop_rate" && t.to < t.from)
            .collect();
        assert!(!rule_downs.is_empty());
        let ups = all
            .iter()
            .filter(|t| t.rule == "drop_rate" && t.to > t.from);
        assert_eq!(ups.count(), 0, "no re-upgrades during recovery: {all:?}");
    }

    #[test]
    fn oscillating_load_does_not_flap_the_verdict() {
        // A drop burst every third tick: the fast window breaches on
        // two of three phases and reads clean on the third, while the
        // slow window hovers around the ceiling. Without hysteresis the
        // rule verdict would bounce every phase; recover_after = 3
        // (longer than any clean phase) must pin it Degraded-or-worse
        // for the whole oscillation — upgrades only, zero downgrades.
        let state = HealthState::new(config(vec![SloRule::DropRate { max_per_10k: 100 }]), 1);
        state.tick(input([0; 5], 0, 0, 0));
        let mut cumulative = [0u64; 5];
        let mut all = Vec::new();
        for tick in 0..12u64 {
            cumulative[0] += 10_000;
            cumulative[1] += 10_000;
            if tick % 3 == 0 {
                cumulative[2] += 300; // 300/10k this tick, 3× the ceiling
            }
            all.extend(state.tick(input(cumulative, 0, 0, tick + 1)));
        }
        let downgrades: Vec<_> = all.iter().filter(|t| t.to < t.from).collect();
        assert!(
            downgrades.is_empty(),
            "verdict flapped downward mid-oscillation: {downgrades:?}"
        );
        assert!(
            state.snapshot().verdict >= HealthVerdict::Degraded,
            "oscillating breach must hold a degraded-or-worse verdict"
        );
        // Journal and bus agree (tick() returns exactly what it journals).
        assert_eq!(state.snapshot().transitions, all);
    }

    #[test]
    fn stalled_shard_with_queued_work_goes_critical_within_the_allowance() {
        let state = HealthState::new(config(vec![SloRule::ShardStall { max_missed: 2 }]), 1);
        // Baseline: work queued, heartbeat at 7.
        state.tick(input([100, 50, 0, 0, 0], 3, 50, 7));
        // Two heartbeat-less ticks with work still queued → Critical.
        state.tick(input([100, 50, 0, 0, 0], 3, 50, 7));
        assert_eq!(
            state.snapshot().verdict,
            HealthVerdict::Ok,
            "one miss allowed"
        );
        let transitions = state.tick(input([100, 50, 0, 0, 0], 3, 50, 7));
        assert_eq!(state.snapshot().verdict, HealthVerdict::Critical);
        assert!(transitions
            .iter()
            .any(|t| t.rule == "shard_stall" && t.to == HealthVerdict::Critical));
        // The worker comes back: heartbeat advances, recovery after the
        // hysteresis runs out.
        for hb in 8..15u64 {
            state.tick(input([100, 100, 0, 0, 0], 0, 0, hb));
        }
        assert_eq!(state.snapshot().verdict, HealthVerdict::Ok);
    }

    #[test]
    fn stalled_session_goes_critical_and_names_its_id() {
        let state = HealthState::new(config(vec![SloRule::SessionStall { max_missed: 2 }]), 1);
        // Session 7 has a backlog; session 8 keeps progressing. The
        // heartbeat advances every tick — the *shard* is healthy.
        let mut ups = Vec::new();
        for hb in 1..=4u64 {
            ups.extend(state.tick(input_with_sessions(
                [200 + hb * 10, 60 + hb * 10, 0, 0, 0],
                hb,
                vec![sample(7, 100, 40, 0), sample(8, 100, 20 + hb * 10, 0)],
            )));
        }
        // Session 7's backlog never moved: the allowance (2 ticks) ran
        // out while session 8 and the shard heartbeat stayed healthy.
        assert_eq!(state.snapshot().verdict, HealthVerdict::Critical);
        assert!(
            ups.iter()
                .any(|t| t.rule == "session_stall:7" && t.to == HealthVerdict::Critical),
            "offender named in the transition: {ups:?}"
        );
        // The session drains: progress clears the watch, recovery runs
        // out the hysteresis, and the downgrade uses the plain name.
        let mut all = Vec::new();
        for hb in 5..12u64 {
            all.extend(state.tick(input_with_sessions(
                [260, 110 + hb, 0, 0, 0],
                hb,
                vec![sample(7, 100, 100, 0)],
            )));
        }
        assert_eq!(state.snapshot().verdict, HealthVerdict::Ok);
        assert!(all
            .iter()
            .any(|t| t.rule == "session_stall" && t.to == HealthVerdict::Ok));
    }

    #[test]
    fn session_discard_rate_names_the_worst_offender() {
        let state = HealthState::new(
            config(vec![SloRule::SessionDiscardRate { max_per_10k: 100 }]),
            1,
        );
        state.tick(input_with_sessions([0; 5], 0, Vec::new()));
        // Session 3 discarded 5% of its frames (500/10k, 5× the
        // ceiling); session 4 is clean. Cumulative rule: both windows
        // breach at once → Critical immediately.
        let transitions = state.tick(input_with_sessions(
            [20_000, 19_000, 0, 0, 1_000],
            1,
            vec![sample(3, 10_000, 9_000, 500), sample(4, 10_000, 10_000, 0)],
        ));
        assert_eq!(state.snapshot().verdict, HealthVerdict::Critical);
        assert!(transitions
            .iter()
            .any(|t| t.rule == "session_discard_rate:3" && t.to == HealthVerdict::Critical));
    }

    #[test]
    fn session_latency_watches_the_worst_ewma() {
        let state = HealthState::new(
            config(vec![SloRule::SessionLatency { ceiling_us: 1_000 }]),
            1,
        );
        state.tick(input_with_sessions([0; 5], 0, Vec::new()));
        let slow = SessionHealthSample {
            ewma_drain_us: 5_000,
            ..sample(9, 1_000, 900, 0)
        };
        let transitions = state.tick(input_with_sessions([1_000, 900, 0, 0, 0], 1, vec![slow]));
        assert_eq!(state.snapshot().verdict, HealthVerdict::Critical);
        assert!(transitions
            .iter()
            .any(|t| t.rule == "session_latency:9" && t.to == HealthVerdict::Critical));
        let eval = &state.snapshot().rules[0];
        assert_eq!(eval.name, "session_latency", "latest keeps the plain name");
        assert!((eval.fast_burn - 5.0).abs() < 1e-9);
    }

    #[test]
    fn idle_shard_without_work_never_counts_as_stalled() {
        let state = HealthState::new(config(vec![SloRule::ShardStall { max_missed: 1 }]), 1);
        // No queued work: a silent heartbeat is just an idle worker.
        for _ in 0..6 {
            state.tick(input([100, 100, 0, 0, 0], 0, 0, 7));
        }
        assert_eq!(state.snapshot().verdict, HealthVerdict::Ok);
    }

    #[test]
    fn series_rows_carry_the_tick_deltas() {
        let state = HealthState::new(config(SloRule::default_rules()), 1);
        state.tick(input([0; 5], 0, 0, 0));
        state.tick(input([500, 400, 10, 0, 0], 6, 100, 1));
        state.tick(input([900, 800, 25, 0, 0], 2, 100, 2));
        let series = state.snapshot().series;
        assert_eq!(series.len(), 2, "one row per post-baseline tick");
        assert_eq!(series[0].words[W_FRAMES_IN], 500);
        assert_eq!(series[0].words[W_FRAMES_DROPPED], 10);
        assert_eq!(series[0].words[W_RING_DEPTH], 6);
        assert_eq!(series[1].words[W_FRAMES_IN], 400);
        assert_eq!(series[1].words[W_FRAMES_DROPPED], 15);
        assert_eq!(series[1].words[W_RING_DEPTH], 2);
        assert_eq!(series[0].words.len(), SAMPLE_WORDS);

        // 41 ticks with the default windows: the snapshot keeps the
        // newest 32 rows, each exactly its tick's deltas. Tick `t` gains
        // 100 + t frames in and 90 + t processed, queues t % 7 chunks,
        // and records one drain span of 1000 + t µs (a new maximum, so
        // its p99 is exact); tick 10 also drops 5000 frames.
        let state = HealthState::new(HealthConfig::enabled(), 1);
        let drain = Histogram::new();
        let mut frames = [0u64; 5];
        for t in 0..41u64 {
            if t > 0 {
                frames[W_FRAMES_IN] += 100 + t;
                frames[W_FRAMES_PROCESSED] += 90 + t;
            }
            if t == 10 {
                frames[W_FRAMES_DROPPED] += 5_000;
            }
            drain.record(1_000 + t);
            state.tick(HealthInput {
                stages: StagesSnapshot::from_histograms(true, [(Stage::Drain, drain.snapshot())]),
                ..input(frames, (t % 7) as usize, 0, t)
            });
        }
        let snapshot = state.snapshot();
        let seqs: Vec<u64> = snapshot.series.iter().map(|row| row.seq).collect();
        assert_eq!(seqs, (8..=39).collect::<Vec<u64>>());
        let oldest = &snapshot.series[0];
        assert_eq!(oldest.words[..W_STAGE0], [109, 99, 0, 0, 0, 2]);
        assert_eq!(oldest.words[W_STAGE0 + Stage::Drain as usize], 1_009);
        assert_eq!(snapshot.series[1].words[W_FRAMES_DROPPED], 5_000);
        // The burst is still in the series but older than the slow
        // window (24 ticks), so neither burn window reads it.
        let drop_rate = snapshot
            .rules
            .iter()
            .find(|rule| rule.name == "drop_rate")
            .expect("default rules include drop_rate");
        assert_eq!((drop_rate.fast_burn, drop_rate.slow_burn), (0.0, 0.0));
    }

    #[test]
    fn transitions_are_counted_past_the_journal_capacity() {
        let state = HealthState::new(
            HealthConfig {
                journal_capacity: 2,
                ..config(vec![SloRule::ShardStall { max_missed: 1 }])
            },
            1,
        );
        // Stall (one heartbeat-less tick with work queued → Critical),
        // recover (recover_after clean ticks → Ok), stall again: every
        // swing moves the rule and the overall verdict.
        let mut all = state.tick(input([100, 50, 0, 0, 0], 3, 50, 7));
        let mut heartbeat = 7;
        for _ in 0..2 {
            all.extend(state.tick(input([100, 50, 0, 0, 0], 3, 50, heartbeat)));
            for _ in 0..3 {
                heartbeat += 1;
                all.extend(state.tick(input([100, 100, 0, 0, 0], 0, 0, heartbeat)));
            }
        }
        assert!(all.len() >= 5, "enough transitions to overflow: {all:?}");
        let snapshot = state.snapshot();
        assert_eq!(snapshot.transitions_total, all.len() as u64);
        assert_eq!(snapshot.transitions, all[all.len() - 2..]);
    }

    #[test]
    fn sample_labels_cover_every_word() {
        for index in 0..SAMPLE_WORDS {
            assert!(sample_label(index).is_some(), "unlabeled word {index}");
        }
        assert_eq!(
            sample_label(W_RING_DEPTH).as_deref(),
            Some("ring_depth_chunks")
        );
        assert_eq!(
            sample_label(W_STAGE0).as_deref(),
            Some("p99_wire_decode_us")
        );
        assert_eq!(sample_label(SAMPLE_WORDS), None);
    }

    #[test]
    fn disabled_default_config_and_snapshot() {
        let config = HealthConfig::default();
        assert!(!config.enabled);
        assert!(HealthConfig::enabled().enabled);
        let snapshot = HealthSnapshot::default();
        assert!(!snapshot.enabled);
        assert_eq!(snapshot.verdict, HealthVerdict::Ok);
    }

    #[test]
    fn verdicts_order_and_roundtrip() {
        assert!(HealthVerdict::Ok < HealthVerdict::Degraded);
        assert!(HealthVerdict::Degraded < HealthVerdict::Critical);
        for verdict in [
            HealthVerdict::Ok,
            HealthVerdict::Degraded,
            HealthVerdict::Critical,
        ] {
            assert_eq!(HealthVerdict::from_raw(verdict as u8), Some(verdict));
        }
        assert_eq!(HealthVerdict::from_raw(9), None);
    }
}
