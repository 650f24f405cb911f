//! The multi-patient detection service: session registry, sharded worker
//! pool, alarm bus.

use std::collections::VecDeque;
use std::time::Duration;

use std::sync::Weak;

use laelaps_check::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use laelaps_check::sync::{Arc, Condvar, Mutex};
use laelaps_check::thread;

use laelaps_core::{Detector, DetectorEvent, PatientModel};
use laelaps_eval::parallel::{default_threads, ShardedPool};
use laelaps_telemetry::{Mark, TelemetryConfig, TraceConfig, TraceSnapshot};

use crate::error::Result;
use crate::health::SessionHealthSample;
use crate::health::{HealthConfig, HealthInput, HealthSnapshot, HealthState, HealthTransition};
use crate::persist::ModelRegistry;
use crate::ready::{ReadyFlag, ReadyQueue};
use crate::ring;
use crate::session::{SessionCore, SessionHandle, SessionId, WorkerState};
use crate::stats::{
    RetiredStats, ServiceStats, ServiceTelemetry, SessionObsConfig, SessionObsRow,
    SessionObsSnapshot, SessionScores, SessionStats, SessionStatsEntry, ShardGauges,
};

/// An alarm surfaced on the service-wide bus.
#[derive(Debug, Clone)]
pub struct AlarmRecord {
    /// Session that raised the alarm.
    pub session: SessionId,
    /// Patient the session serves.
    pub patient: String,
    /// The full classification event (`event.alarm` is `Some`).
    pub event: DetectorEvent,
}

impl AlarmRecord {
    /// Stream time of the alarm in seconds.
    pub fn time_secs(&self) -> f64 {
        self.event.time_secs
    }
}

/// One record on the service-wide event bus: alarms, plus lifecycle
/// events such as model hot-swaps.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum ServiceEvent {
    /// A session's postprocessor raised a seizure alarm.
    Alarm(AlarmRecord),
    /// A session's detector was hot-swapped to a newer model generation
    /// at a frame boundary (see [`DetectionService::swap_session_model`]).
    ModelSwapped {
        /// Session whose detector was replaced.
        session: SessionId,
        /// Patient the session serves.
        patient: String,
        /// Generation of the model now running.
        generation: u64,
        /// Stream position (frames processed) at which the swap took
        /// effect; every earlier frame was classified by the previous
        /// model, every later one by the new model.
        at_frame: u64,
    },
    /// The health evaluator recorded a verdict transition: a rule (or
    /// the folded `"overall"` verdict) moved between `Ok`, `Degraded`,
    /// and `Critical`. Only emitted when [`ServeConfig::health`] is
    /// enabled.
    Health(HealthTransition),
}

/// Tuning knobs for a [`DetectionService`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (= shards). Each session is pinned to one shard, so
    /// its frames are always processed in order by a single worker. A
    /// worker drains only the sessions on its shard's ready queue and
    /// sleeps while that queue is empty; pushing to a session wakes its
    /// own shard's worker and no other.
    pub workers: usize,
    /// Per-session queue capacity, in chunks. With the example chunking
    /// of 256 frames (0.5 s at 512 Hz) the default buffers ~32 s of
    /// signal before backpressure.
    pub ring_chunks: usize,
    /// Stage timing and rate metering (enabled by default — recording is
    /// allocation-free and lock-free). [`TelemetryConfig::disabled`]
    /// strips the hot path down to a handful of untimed counters: no
    /// clock reads, empty histograms, zero
    /// [`crate::TelemetrySnapshot::recent_frames_per_sec`].
    pub telemetry: TelemetryConfig,
    /// Per-chunk causal tracing into the flight recorder (default
    /// **off**: zero clock reads and zero extra hot-path work, the same
    /// discipline as disabled stage timing). Enable to mint a trace id
    /// per accepted chunk, record its wire-decode → ring-wait → drain →
    /// publish spans, and pin anomalous traces (alarms, drops, discards,
    /// slow stages, model swaps) for export via
    /// [`DetectionService::trace_snapshot`] or the wire `TraceDump`.
    pub trace: TraceConfig,
    /// Continuous health evaluation (default **off**: no evaluator
    /// thread, no heartbeat bumps, zero extra clock reads). When
    /// enabled, a dedicated thread samples the telemetry every
    /// [`HealthConfig::interval`], evaluates the configured
    /// [`crate::SloRule`]s over fast and slow burn windows, watches
    /// per-shard worker heartbeats for stalls, and emits
    /// [`ServiceEvent::Health`] transitions; query the result with
    /// [`DetectionService::health_snapshot`] or the wire
    /// `HealthRequest`.
    pub health: HealthConfig,
    /// Per-session observability (default **off**). When enabled, shard
    /// workers feed fixed-capacity heavy-hitter sketches — memory
    /// `O(shards × top_k)`, never `O(sessions)` — ranking the worst
    /// sessions by drain latency, ring saturation, and discards; query
    /// with [`DetectionService::session_obs_snapshot`], the wire
    /// `SessionStatsRequest`, or `laelapsctl sessions` / `top`.
    pub sessions: SessionObsConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: default_threads().clamp(1, 16),
            ring_chunks: 64,
            telemetry: TelemetryConfig::default(),
            trace: TraceConfig::default(),
            health: HealthConfig::default(),
            sessions: SessionObsConfig::default(),
        }
    }
}

/// Per-shard progress signal: a generation counter bumped by the shard's
/// worker whenever a drain pass did anything, with a condvar for waiters.
///
/// This is what lets [`DetectionService::flush`] (and the network layer's
/// per-connection event pumps) *sleep* until the workers advance instead
/// of burning a core polling counters. One instance exists **per shard**:
/// a session's waiters sleep on its own shard's condvar, so a busy shard's
/// drain batches never wake event pumps of sessions pinned elsewhere
/// (previously every drain caused O(connections) spurious wakeups).
pub(crate) struct Progress {
    generation: Mutex<u64>,
    moved: Condvar,
}

impl Progress {
    fn new() -> Self {
        Progress {
            generation: Mutex::new(0),
            moved: Condvar::new(),
        }
    }

    /// Records that work happened and wakes every waiter.
    pub(crate) fn bump(&self) {
        let mut generation = self.generation.lock().expect("progress lock poisoned");
        *generation = generation.wrapping_add(1);
        self.moved.notify_all();
    }

    /// Current generation; pass to [`Progress::wait_past`].
    pub(crate) fn generation(&self) -> u64 {
        *self.generation.lock().expect("progress lock poisoned")
    }

    /// Blocks until the generation moves past `seen` or `timeout`
    /// elapses (the timeout guards waiters whose condition became true
    /// without a bump, e.g. a push that was observed before its worker's
    /// signal). Returns the generation at wakeup.
    pub(crate) fn wait_past(&self, seen: u64, timeout: Duration) -> u64 {
        let mut generation = self.generation.lock().expect("progress lock poisoned");
        while *generation == seen {
            let (guard, wait) = self
                .moved
                .wait_timeout(generation, timeout)
                .expect("progress lock poisoned");
            generation = guard;
            if wait.timed_out() {
                break;
            }
        }
        *generation
    }
}

impl std::fmt::Debug for Progress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Progress")
            .field("generation", &self.generation())
            .finish()
    }
}

struct ServiceInner {
    /// Every registered session, per shard: for stats, lookup and
    /// retirement. Workers drain from `ready`, not from here.
    shards: Vec<Mutex<Vec<Arc<SessionCore>>>>,
    /// One ready queue per shard (same indexing as `shards`): the
    /// sessions that have been given work since their last drain.
    ready: Vec<Arc<ReadyQueue<SessionCore>>>,
    bus: Mutex<VecDeque<ServiceEvent>>,
    retired: Mutex<RetiredStats>,
    next_id: AtomicU64,
    ring_chunks: usize,
    /// One progress signal per shard (same indexing as `shards`).
    progress: Vec<Arc<Progress>>,
    /// Stage histograms + frame-rate meter, shared with every session.
    telemetry: Arc<ServiceTelemetry>,
    /// Health evaluator state (heartbeats, series, rule verdicts);
    /// `None` when [`ServeConfig::health`] is off.
    health: Option<Arc<HealthState>>,
    /// Test-only wedge flags, one per shard: a wedged shard's worker
    /// skips its drain pass entirely (no work, no heartbeat), simulating
    /// a stalled or deadlocked worker for the health watchdog tests. One
    /// `Relaxed` load per drain pass whether health is on or not.
    wedged: Box<[AtomicBool]>,
}

impl ServiceInner {
    /// One pass over a shard's ready queue: drain each scheduled session
    /// through [`SessionCore::drain`], then retire the ones that finished
    /// in this pass. Returns `true` if any session had work.
    fn drain_shard(&self, shard: usize) -> bool {
        if self.wedged[shard].load(Ordering::Relaxed) {
            // Wedged by the test hook: pretend the worker is stuck —
            // no drain, no progress bump, no heartbeat. Scheduled
            // sessions stay queued until the unwedge wakes the worker.
            return false;
        }
        // The shared pass counter: the tick domain sessions stamp into
        // `last_drain_tick` on a productive drain. One Relaxed
        // fetch_add per pass; never a clock read.
        self.telemetry.drain_ticks.inc();
        let mut any_done = false;
        let worked = self.ready[shard].pass(|session| {
            let drained = session.drain(&self.bus);
            any_done |= session.done.load(Ordering::Acquire);
            drained
        });
        if any_done {
            // Lock order retired → shard, same as stats(), so a session is
            // always either in its shard list or in the retired totals —
            // never both, never neither — from stats()'s point of view.
            let mut retired = self.retired.lock().expect("retired poisoned");
            self.shards[shard]
                .lock()
                .expect("shard lock poisoned")
                .retain(|s| {
                    let done = s.done.load(Ordering::Acquire);
                    if done {
                        retired.sessions += 1;
                        retired.totals.absorb(&s.counters.snapshot());
                    }
                    !done
                });
        }
        if worked || any_done {
            // Only this shard's waiters wake: progress is per shard.
            self.progress[shard].bump();
            // A productive pass is also the liveness heartbeat the
            // health watchdog watches; one Relaxed fetch_add when
            // health is on, a skipped Option when off.
            if let Some(health) = &self.health {
                health.bump_heartbeat(shard);
            }
        }
        worked
    }

    /// The shard with the fewest registered sessions (ties go to the
    /// lowest index). Counting live sessions per shard is an adequate
    /// load proxy until per-shard frame-rate accounting exists.
    fn least_loaded_shard(&self) -> usize {
        self.shards
            .iter()
            .enumerate()
            .min_by_key(|(_, shard)| shard.lock().expect("shard lock poisoned").len())
            .map(|(index, _)| index)
            .unwrap_or(0)
    }

    fn all_sessions(&self) -> Vec<Arc<SessionCore>> {
        self.shards
            .iter()
            .flat_map(|shard| shard.lock().expect("shard lock poisoned").clone())
            .collect()
    }

    fn find_session(&self, session: SessionId) -> Option<Arc<SessionCore>> {
        self.shards.iter().find_map(|shard| {
            shard
                .lock()
                .expect("shard lock poisoned")
                .iter()
                .find(|s| s.id == session)
                .cloned()
        })
    }

    /// Saturation gauges, per shard: ring depths are racy-but-clamped
    /// reads of each session's ring; in-flight frames derive from the
    /// monotonic counters (saturating — the counters are Relaxed and
    /// may be mid-update).
    fn shard_gauges(&self) -> Vec<ShardGauges> {
        self.shards
            .iter()
            .enumerate()
            .map(|(shard, sessions)| {
                let sessions = sessions.lock().expect("shard lock poisoned");
                let mut gauges = ShardGauges {
                    shard,
                    sessions: sessions.len(),
                    ..Default::default()
                };
                for core in sessions.iter() {
                    gauges.ring_depth_chunks += core.ring_depth.get();
                    let s = core.counters.snapshot();
                    gauges.in_flight_frames += s
                        .frames_in
                        .saturating_sub(s.frames_processed)
                        .saturating_sub(s.frames_discarded);
                }
                gauges
            })
            .collect()
    }

    /// Totals over every session the service ever ran, and the retired
    /// count, read under the lock order retirement takes (retired →
    /// shard): a session retiring mid-walk is counted exactly once, in
    /// its shard or in the retired totals. `visit` sees each live session
    /// with the snapshot that went into the totals.
    fn walk_sessions(
        &self,
        mut visit: impl FnMut(&SessionCore, &SessionStats),
    ) -> (SessionStats, usize) {
        let retired = self.retired.lock().expect("retired poisoned");
        let mut totals = retired.totals;
        for core in self.all_sessions() {
            let stats = core.counters.snapshot();
            totals.absorb(&stats);
            visit(&core, &stats);
        }
        // A closed handle can refuse frames after its session retired;
        // refusals are counted service-wide.
        totals.frames_refused = self.telemetry.frames_refused.get();
        (totals, retired.sessions)
    }

    /// One health-evaluation observation: cumulative frame counters
    /// (live sessions + everything retired), cumulative stage
    /// histograms, per-shard gauges, the heartbeat counters, and a
    /// bounded set of per-session samples for the session-level rules.
    fn health_input(&self, health: &HealthState) -> HealthInput {
        let mut samples: Vec<SessionHealthSample> = Vec::new();
        let (totals, _) = self.walk_sessions(|core, s| {
            samples.push(SessionHealthSample {
                session: core.id,
                shard: core.shard,
                frames_in: s.frames_in,
                frames_processed: s.frames_processed,
                frames_discarded: s.frames_discarded,
                in_flight: s
                    .frames_in
                    .saturating_sub(s.frames_processed)
                    .saturating_sub(s.frames_discarded),
                ewma_drain_us: s.ewma_drain_us,
            });
        });
        // Bound the evaluator's per-tick state: keep the worst-looking
        // sessions only (most in-flight, then most discarded, then
        // slowest). A stalled session's backlog grows, so it always
        // climbs into the sample set within a tick or two.
        samples.sort_by(|a, b| {
            b.in_flight
                .cmp(&a.in_flight)
                .then(b.frames_discarded.cmp(&a.frames_discarded))
                .then(b.ewma_drain_us.cmp(&a.ewma_drain_us))
                .then(a.session.cmp(&b.session))
        });
        samples.truncate(crate::health::SESSION_SAMPLE_CAP);
        HealthInput {
            frames: [
                totals.frames_in,
                totals.frames_processed,
                totals.frames_dropped,
                totals.frames_refused,
                totals.frames_discarded,
            ],
            stages: self.telemetry.clock.stages.snapshot(),
            shards: self.shard_gauges(),
            heartbeats: health.heartbeat_counts(),
            sessions: samples,
        }
    }
}

/// The health evaluator loop: tick once per interval until shutdown (or
/// until the service itself is gone — the `Weak` keeps the evaluator
/// from holding the service alive).
fn run_health_evaluator(health: Arc<HealthState>, inner: Weak<ServiceInner>) {
    loop {
        if health.wait_interval() {
            return;
        }
        let Some(inner) = inner.upgrade() else { return };
        let transitions = health.tick(inner.health_input(&health));
        if !transitions.is_empty() {
            let mut bus = inner.bus.lock().expect("service bus poisoned");
            bus.extend(transitions.into_iter().map(ServiceEvent::Health));
        }
    }
}

/// A fleet of concurrent per-patient streaming detectors.
///
/// Each opened session gets a bounded frame queue and is pinned to one
/// worker shard. Whatever gives a session work (a push, a close, a
/// hot-swap request) puts it on its shard's ready queue and wakes that
/// shard's worker, which drains only the queued sessions, emitting
/// [`laelaps_core::DetectorEvent`]s into per-session outboxes and alarms
/// onto a service-wide bus, and sleeps when its queue is empty. Within a
/// session, output order and content are **identical** to running a bare
/// [`Detector`] over the same frames — concurrency never changes results,
/// only wall time.
///
/// # Examples
///
/// ```
/// use laelaps_core::{LaelapsConfig, Trainer, TrainingData};
/// use laelaps_serve::{DetectionService, ServeConfig};
///
/// // Train a toy model.
/// let fs = 512;
/// let signal: Vec<Vec<f32>> = (0..2)
///     .map(|j| (0..fs * 40)
///         .map(|t| if (fs * 20..fs * 30).contains(&t) {
///             ((t % 120) as f32 / 120.0).powi(2)
///         } else {
///             ((t * (j + 2)) as f32 * 0.31).sin()
///         })
///         .collect())
///     .collect();
/// let config = LaelapsConfig::builder().dim(256).seed(7).build()?;
/// let data = TrainingData::new(&signal)
///     .ictal(fs * 20..fs * 30)
///     .interictal(fs * 2..fs * 18);
/// let model = Trainer::new(config).train(&data)?;
///
/// // Serve it.
/// let service = DetectionService::new(ServeConfig {
///     workers: 2,
///     ..ServeConfig::default()
/// });
/// let mut session = service.open_session("P1", &model)?;
/// let chunk: Vec<f32> = signal[0]
///     .iter()
///     .zip(&signal[1])
///     .flat_map(|(&a, &b)| [a, b])
///     .collect();
/// session.try_push_chunk(chunk.into()).expect("queue has room");
/// session.close();
/// service.flush();
/// let events = session.take_events();
/// assert!(!events.is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct DetectionService {
    inner: Arc<ServiceInner>,
    pool: ShardedPool,
    /// The health evaluator thread; `Some` iff health is enabled.
    monitor: Option<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for DetectionService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DetectionService")
            .field("workers", &self.inner.shards.len())
            .field("sessions", &self.session_count())
            .finish_non_exhaustive()
    }
}

impl DetectionService {
    /// Starts a service with its worker pool (and, when
    /// [`ServeConfig::health`] is enabled, the health evaluator thread).
    pub fn new(config: ServeConfig) -> Self {
        let workers = config.workers.max(1);
        let health = config
            .health
            .enabled
            .then(|| Arc::new(HealthState::new(config.health.clone(), workers)));
        let inner = Arc::new(ServiceInner {
            shards: (0..workers).map(|_| Mutex::new(Vec::new())).collect(),
            ready: (0..workers).map(|_| Arc::new(ReadyQueue::new())).collect(),
            bus: Mutex::new(VecDeque::new()),
            retired: Mutex::new(RetiredStats::default()),
            next_id: AtomicU64::new(0),
            ring_chunks: config.ring_chunks.max(1),
            progress: (0..workers).map(|_| Arc::new(Progress::new())).collect(),
            telemetry: Arc::new(ServiceTelemetry::new(
                &config.telemetry,
                &config.trace,
                &config.sessions,
                workers,
            )),
            health: health.clone(),
            wedged: (0..workers).map(|_| AtomicBool::new(false)).collect(),
        });
        let pool = {
            let inner = Arc::clone(&inner);
            ShardedPool::new(workers, move |shard| inner.drain_shard(shard))
        };
        let monitor = health.map(|health| {
            let weak = Arc::downgrade(&inner);
            thread::Builder::new()
                .name("laelaps-health".to_string())
                .spawn(move || run_health_evaluator(health, weak))
                .expect("failed to spawn health evaluator")
        });
        DetectionService {
            inner,
            pool,
            monitor,
        }
    }

    /// Starts a service with default configuration.
    pub fn with_defaults() -> Self {
        Self::new(ServeConfig::default())
    }

    /// Opens a streaming session for `patient` running `model`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ServeError::Core`] if the model fails validation.
    pub fn open_session(&self, patient: &str, model: &PatientModel) -> Result<SessionHandle> {
        let detector = Detector::new(model)?;
        let electrodes = detector.electrodes();
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = ring::ring(self.inner.ring_chunks);
        // Place the session on the currently least-loaded shard: `id %
        // shards` skews badly once sessions retire unevenly (every
        // retirement on one shard leaves its round-robin slot idle while
        // a crowded shard keeps its pile).
        let shard = self.inner.least_loaded_shard();
        let core = Arc::new(SessionCore {
            id,
            patient: patient.to_string(),
            electrodes,
            shard,
            config: model.config().clone(),
            ring_depth: tx.depth_gauge(),
            worker: Mutex::new(WorkerState {
                detector,
                rx,
                failed: None,
            }),
            outbox: Mutex::new(VecDeque::new()),
            counters: Default::default(),
            telemetry: Arc::clone(&self.inner.telemetry),
            pending_swap: crate::swapgate::SwapGate::new(),
            generation: AtomicU64::new(model.generation()),
            failed_flag: Default::default(),
            done: Default::default(),
            wedged: Default::default(),
            scheduled: ReadyFlag::new(),
        });
        // A new session has no work yet, so no worker needs waking.
        self.inner.shards[shard]
            .lock()
            .expect("shard lock poisoned")
            .push(Arc::clone(&core));
        Ok(SessionHandle {
            core,
            tx,
            closed: false,
            ready: Arc::clone(&self.inner.ready[shard]),
            waker: self.pool.waker(),
            progress: Arc::clone(&self.inner.progress[shard]),
        })
    }

    /// Opens a session for `patient` using its model from `registry`.
    ///
    /// # Errors
    ///
    /// The registry load errors, plus those of
    /// [`DetectionService::open_session`].
    pub fn open_from_registry(
        &self,
        registry: &ModelRegistry,
        patient: &str,
    ) -> Result<SessionHandle> {
        let model = registry.load(patient)?;
        self.open_session(patient, &model)
    }

    /// Number of registered sessions (live or still draining).
    pub fn session_count(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.lock().expect("shard lock poisoned").len())
            .sum()
    }

    /// Blocks until every accepted frame in every session has been
    /// processed and its events published, **and** every staged model
    /// hot-swap has been applied (its `ModelSwapped` marker is in the
    /// outbox) — so `engine.flush()` followed by `service.flush()` is
    /// sufficient to observe a feedback-driven swap everywhere.
    ///
    /// Only frames pushed (and swaps requested) *before* the call are
    /// guaranteed; concurrent pushers extend the wait. Waits shard by
    /// shard on that shard's own progress condvar, so flushing never
    /// subscribes to (or causes) wakeups on unrelated shards. It wakes no
    /// worker either: every push and swap request already scheduled its
    /// session.
    pub fn flush(&self) {
        for shard in 0..self.inner.shards.len() {
            loop {
                // Snapshot the progress generation *before* checking, so
                // a worker that advances between the check and the wait
                // moves the generation and the wait returns immediately —
                // the condvar equivalent of the pool's epoch discipline.
                // The timeout is a safety net only; the wait is normally
                // ended by the shard worker's bump.
                let seen = self.inner.progress[shard].generation();
                // A done session retires on its worker's next pass; any
                // swap it still holds can never apply, so don't wait on
                // it (failed sessions drop theirs in drain()).
                let settled = self.inner.shards[shard]
                    .lock()
                    .expect("shard lock poisoned")
                    .iter()
                    .all(|s| {
                        s.done.load(Ordering::Acquire) || (s.is_caught_up() && !s.swap_pending())
                    });
                if settled {
                    break;
                }
                self.inner.progress[shard].wait_past(seen, Duration::from_millis(100));
            }
        }
    }

    /// Drains the alarms from the service-wide bus (oldest first),
    /// leaving other [`ServiceEvent`]s (model swaps) queued for
    /// [`DetectionService::take_service_events`].
    pub fn take_alarms(&self) -> Vec<AlarmRecord> {
        let mut bus = self.inner.bus.lock().expect("service bus poisoned");
        let mut alarms = Vec::new();
        bus.retain(|event| match event {
            ServiceEvent::Alarm(record) => {
                alarms.push(record.clone());
                false
            }
            _ => true,
        });
        alarms
    }

    /// Drains the model-swap events from the service-wide bus (oldest
    /// first), leaving alarms queued for
    /// [`DetectionService::take_alarms`].
    pub fn take_swap_events(&self) -> Vec<ServiceEvent> {
        let mut bus = self.inner.bus.lock().expect("service bus poisoned");
        let mut swaps = Vec::new();
        bus.retain(|event| match event {
            ServiceEvent::ModelSwapped { .. } => {
                swaps.push(event.clone());
                false
            }
            _ => true,
        });
        swaps
    }

    /// Drains the service-wide event bus (oldest first): alarms
    /// interleaved with lifecycle events such as
    /// [`ServiceEvent::ModelSwapped`].
    pub fn take_service_events(&self) -> Vec<ServiceEvent> {
        self.inner
            .bus
            .lock()
            .expect("service bus poisoned")
            .drain(..)
            .collect()
    }

    /// Requests a model hot-swap for one live session: the session's
    /// worker replaces its detector's prototypes **at a frame boundary**
    /// once every frame accepted before this call has been processed.
    /// In-flight ring frames are drained by the old model, later frames
    /// by the new one; no frame is dropped or reprocessed, and the
    /// postprocessor's label window carries across. The applied swap
    /// surfaces as [`ServiceEvent::ModelSwapped`] on the bus, as an
    /// ordered [`crate::session::SessionOutput::ModelSwapped`] marker in
    /// the session's output stream, and as `generation` in
    /// [`SessionStatsEntry`].
    ///
    /// A swap requested before a previous one was applied replaces it
    /// (latest model wins; only the applied swap emits events).
    ///
    /// # Errors
    ///
    /// * [`crate::ServeError::UnknownSession`] — no live session has this
    ///   id (it may have retired), or it already finished or failed, so a
    ///   staged swap could never apply;
    /// * [`crate::ServeError::Core`] — the model is not hot-swappable
    ///   into this session (different electrode count, or any
    ///   configuration field other than `tr` differs).
    pub fn swap_session_model(&self, session: SessionId, model: &Arc<PatientModel>) -> Result<()> {
        let core = self
            .inner
            .find_session(session)
            .ok_or(crate::ServeError::UnknownSession { session })?;
        core.request_swap(model)?;
        // A caught-up session has no chunk to carry the swap in: the
        // request itself is the work.
        self.schedule(&core);
        Ok(())
    }

    /// Requests a model hot-swap (see
    /// [`DetectionService::swap_session_model`]) for **every** live
    /// session serving `patient`; returns how many sessions accepted the
    /// request. Sessions the model cannot swap into (opened with a
    /// different configuration, already finished, or failed) are
    /// skipped, not failed.
    pub fn swap_patient_model(&self, patient: &str, model: &Arc<PatientModel>) -> usize {
        self.swap_patient_model_from(patient, model, self.inner.telemetry.clock.begin())
    }

    /// [`DetectionService::swap_patient_model`] with an explicit
    /// propagation mark (carrying the feedback's trace), so the adaptation
    /// engine can charge the whole feedback→swap span to
    /// [`laelaps_telemetry::Stage::AdaptPropagate`] and keep the causal
    /// trace intact.
    pub(crate) fn swap_patient_model_from(
        &self,
        patient: &str,
        model: &Arc<PatientModel>,
        mark: Mark,
    ) -> usize {
        let mut swapped = 0;
        for core in self.inner.all_sessions() {
            if core.patient == patient && core.request_swap_from(model, mark).is_ok() {
                self.schedule(&core);
                swapped += 1;
            }
        }
        swapped
    }

    /// Puts `core` on its shard's ready queue and, if it was not queued
    /// already, wakes that shard's worker. Call after making new work
    /// visible.
    fn schedule(&self, core: &Arc<SessionCore>) {
        if self.inner.ready[core.shard].schedule(core) {
            self.pool.notify_shard(core.shard);
        }
    }

    /// The service's shared telemetry state (stage histograms + rate
    /// meter), for in-crate instrumentation points outside the workers
    /// (network reader threads, the adaptation engine).
    pub(crate) fn telemetry(&self) -> &Arc<ServiceTelemetry> {
        &self.inner.telemetry
    }

    /// Point-in-time view of the causal tracer: every stable span in the
    /// flight recorder plus the pinned anomalous traces. Empty (with
    /// `enabled: false`) unless [`ServeConfig::trace`] turned tracing on.
    /// Feed the spans to a Chrome-trace exporter to view the per-chunk
    /// timeline in Perfetto.
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        self.inner.telemetry.clock.tracer.snapshot()
    }

    /// Point-in-time health view: the folded service verdict, every
    /// [`crate::SloRule`]'s latest burn rates, the recent transition
    /// journal, and the tail of the metric time-series. Returns the
    /// disabled default (with `enabled: false`) unless
    /// [`ServeConfig::health`] turned evaluation on.
    pub fn health_snapshot(&self) -> HealthSnapshot {
        match &self.inner.health {
            Some(health) => health.snapshot(),
            None => HealthSnapshot::default(),
        }
    }

    /// Point-in-time per-session observability view: the worst live
    /// sessions by heavy-hitter score (bounded by `shards × 3 × top_k`
    /// rows) plus an optional any-session lookup by id. With
    /// [`ServeConfig::sessions`] disabled, `enabled` is `false` and
    /// `top` is empty — but the lookup still answers, because every
    /// session carries its accounting cell regardless.
    pub fn session_obs_snapshot(&self, lookup: Option<SessionId>) -> SessionObsSnapshot {
        let ticks = self.inner.telemetry.drain_ticks.get();
        let scored: Vec<(u64, SessionScores)> = self
            .inner
            .telemetry
            .session_obs
            .as_ref()
            .map(|obs| obs.merged())
            .unwrap_or_default();
        let top = scored
            .iter()
            // Retired sessions drop out of the view (their slots age out
            // of the sketches as live sessions outweigh them).
            .filter_map(|(id, scores)| {
                self.inner
                    .find_session(*id)
                    .map(|core| session_obs_row(&core, *scores))
            })
            .collect();
        let lookup = lookup.and_then(|id| {
            self.inner.find_session(id).map(|core| {
                let scores = scored
                    .iter()
                    .find(|(s, _)| *s == id)
                    .map(|(_, scores)| *scores)
                    .unwrap_or_default();
                session_obs_row(&core, scores)
            })
        });
        SessionObsSnapshot {
            enabled: self.inner.telemetry.session_obs.is_some(),
            ticks,
            top,
            lookup,
        }
    }

    /// Test-only hook: wedges (or un-wedges) one shard's worker. While
    /// wedged, the worker's drain pass returns immediately — no
    /// draining, no progress, **no heartbeat** — exactly what a stalled
    /// or deadlocked worker looks like to the health watchdog. Not part
    /// of the stable API; exists so integration tests can prove stall
    /// detection end-to-end.
    #[doc(hidden)]
    pub fn debug_wedge_shard(&self, shard: usize, wedged: bool) {
        self.inner.wedged[shard].store(wedged, Ordering::Relaxed);
        if !wedged {
            // Sessions scheduled during the wedge are still on the
            // shard's ready queue, and their pushes woke a worker that
            // skipped its pass; wake it so recovery starts immediately.
            self.pool.notify_shard(shard);
        }
    }

    /// Test-only hook: wedges (or un-wedges) **one session**, not its
    /// shard. While wedged, the drain skips this session — its
    /// frames stay queued (zero loss) while the shard keeps draining
    /// its other sessions and heart-beating, so only the session-level
    /// stall rule can fire, never the shard watchdog. Not part of the
    /// stable API; exists so integration tests can prove per-session
    /// stall detection end-to-end.
    #[doc(hidden)]
    pub fn debug_wedge_session(&self, session: SessionId, wedged: bool) {
        if let Some(core) = self.inner.find_session(session) {
            core.wedged.store(wedged, Ordering::Release);
            if !wedged {
                // Passes over the wedged session left its backlog queued
                // without re-queueing it: the unwedge is its work.
                self.schedule(&core);
            }
        }
    }

    /// Counter snapshot: live sessions individually, plus totals that
    /// include every session the service ever retired.
    pub fn stats(&self) -> ServiceStats {
        let mut per_session = Vec::new();
        let (totals, retired_sessions) = self.inner.walk_sessions(|core, stats| {
            per_session.push(SessionStatsEntry {
                session: core.id,
                patient: core.patient.clone(),
                shard: core.shard,
                generation: core.generation.load(Ordering::Acquire),
                stats: *stats,
            });
        });
        per_session.sort_by_key(|e| e.session);
        let mut telemetry = self.inner.telemetry.snapshot();
        telemetry.shards = self.inner.shard_gauges();
        ServiceStats {
            sessions: per_session.len(),
            retired_sessions,
            totals,
            per_session,
            telemetry,
        }
    }
}

/// Builds one [`SessionObsRow`] for a live session.
fn session_obs_row(core: &SessionCore, scores: SessionScores) -> SessionObsRow {
    SessionObsRow {
        session: core.id,
        patient: core.patient.clone(),
        shard: core.shard,
        generation: core.generation.load(Ordering::Acquire),
        stats: core.counters.snapshot(),
        scores,
    }
}

impl Drop for DetectionService {
    fn drop(&mut self) {
        // Stop the health evaluator before the worker pool winds down so
        // no evaluation tick observes a half-dropped service. The thread
        // also exits on its own when the `Weak<ServiceInner>` dies, but
        // shutting down explicitly avoids waiting out a full interval.
        if let Some(health) = &self.inner.health {
            health.shutdown();
        }
        if let Some(monitor) = self.monitor.take() {
            if monitor.join().is_err() && !std::thread::panicking() {
                panic!("health evaluator thread panicked");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laelaps_core::hv::Hypervector;
    use laelaps_core::{AssociativeMemory, LaelapsConfig};
    use std::time::Instant;

    use laelaps_telemetry::{PinReason, TraceStats};

    fn tiny_model() -> PatientModel {
        let config = LaelapsConfig::with_dim(64, 2).unwrap();
        let am = AssociativeMemory::from_prototypes(Hypervector::zero(64), Hypervector::ones(64))
            .unwrap();
        PatientModel::new(config, 2, am).unwrap()
    }

    /// Streams `chunks` chunks of 256 two-electrode frames through one
    /// session, retiring some sessions first, and leaves it open.
    fn stream(service: &DetectionService, chunks: usize) -> SessionHandle {
        let model = tiny_model();
        for i in 0..3 {
            let mut retiring = service.open_session(&format!("R{i}"), &model).unwrap();
            retiring.try_push_chunk(vec![0.5; 2 * 256].into()).unwrap();
        }
        let mut handle = service.open_session("live", &model).unwrap();
        for _ in 0..chunks {
            handle.try_push_chunk(vec![0.25; 2 * 256].into()).unwrap();
            service.flush();
        }
        service.flush();
        while service.session_count() > 1 {
            std::thread::yield_now();
        }
        handle
    }

    /// `stats()` reads the trace counters off the tracer; they agree with
    /// what a full snapshot of the flight recorder derives.
    #[test]
    fn trace_stats_are_the_counts_of_the_trace_snapshot() {
        let service = DetectionService::new(ServeConfig {
            workers: 2,
            trace: TraceConfig {
                pin_threshold_us: 0,
                ..TraceConfig::sampled()
            },
            ..ServeConfig::default()
        });
        let handle = stream(&service, 6);
        let pinned = handle.core.telemetry.clock.begin().trace().unwrap();
        service
            .inner
            .telemetry
            .clock
            .tracer
            .pin(pinned, PinReason::Alarm);
        service
            .inner
            .telemetry
            .clock
            .tracer
            .pin(pinned, PinReason::Alarm);
        let trace = service.trace_snapshot();
        assert!(trace.recorded > 0);
        assert_eq!(
            service.stats().telemetry.trace,
            TraceStats {
                enabled: true,
                minted: trace.minted,
                recorded: trace.recorded,
                dropped: trace.dropped,
                pinned: trace.pinned.len() as u64,
            }
        );
        assert_eq!(service.stats().telemetry.trace.pinned, 1, "pins dedupe");
    }

    /// `stats()` lists live sessions by id whatever order the shard walk
    /// meets them in, counts them and the retired ones, and folds the
    /// retired totals into the service totals.
    #[test]
    fn stats_lists_live_sessions_by_id_and_counts_the_retired() {
        let model = tiny_model();
        let service = DetectionService::new(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        // Least-loaded placement, ties to the lowest shard: ids 0 and 2
        // share shard 0, so the walk meets them as 0, 2, 1.
        let mut live: Vec<SessionHandle> = ["A", "B", "C"]
            .iter()
            .map(|patient| service.open_session(patient, &model).unwrap())
            .collect();
        let placed: Vec<_> = live.iter().map(|h| (h.id(), h.core.shard)).collect();
        assert_eq!(placed, [(0, 0), (1, 1), (2, 0)]);
        for (frames, handle) in [8, 16, 24].into_iter().zip(&mut live) {
            handle.try_push_chunk(vec![0.5; 2 * frames].into()).unwrap();
        }
        let mut gone = service.open_session("gone", &model).unwrap();
        gone.try_push_chunk(vec![0.5; 2 * 100].into()).unwrap();
        drop(gone);
        service.flush();
        while service.session_count() > 3 {
            std::thread::yield_now();
        }
        let mut walked = Vec::new();
        service.inner.walk_sessions(|core, _| walked.push(core.id));
        assert_eq!(walked, [0, 2, 1], "the walk goes shard by shard");

        let stats = service.stats();
        let ids: Vec<_> = stats.per_session.iter().map(|e| e.session).collect();
        assert_eq!(ids, [0, 1, 2], "ordered by session id");
        assert_eq!(stats.sessions, stats.per_session.len());
        assert_eq!(stats.sessions, 3);
        assert_eq!(stats.retired_sessions, 1);
        let frames: Vec<_> = stats
            .per_session
            .iter()
            .map(|e| e.stats.frames_in)
            .collect();
        assert_eq!(frames, [8, 16, 24]);
        assert_eq!(stats.totals.frames_in, 148, "retired totals included");
        drop(live);
    }

    /// On a quiesced service the health evaluator and `stats()` see the
    /// same totals: one walk feeds both.
    #[test]
    fn health_input_totals_are_the_stats_totals() {
        let service = DetectionService::new(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let _live = stream(&service, 4);
        let health = HealthState::new(HealthConfig::default(), 2);
        let totals = service.stats().totals;
        assert_eq!(totals.frames_in, (3 + 4) * 256, "retired sessions count");
        assert_eq!(
            service.inner.health_input(&health).frames,
            [
                totals.frames_in,
                totals.frames_processed,
                totals.frames_dropped,
                totals.frames_refused,
                totals.frames_discarded,
            ]
        );
    }

    /// A session that retires while the health evaluator walks the
    /// service is counted exactly once: live or retired, never neither.
    /// Holding shard 0 parks the walk before it reaches shard 1, where a
    /// session retires meanwhile.
    #[test]
    fn health_input_counts_a_session_retiring_mid_walk() {
        let model = tiny_model();
        let service = DetectionService::new(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let health = HealthState::new(HealthConfig::default(), 2);
        // Least-loaded placement: the first session lands on shard 0,
        // the second on shard 1.
        let idle = service.open_session("idle", &model).unwrap();
        let mut retiring = service.open_session("retiring", &model).unwrap();
        assert_eq!((idle.core.shard, retiring.core.shard), (0, 1));
        retiring.try_push_chunk(vec![0.0; 2 * 8].into()).unwrap();
        service.flush();

        let shard0 = service.inner.shards[0].lock().unwrap();
        std::thread::scope(|scope| {
            let walk = scope.spawn(|| service.inner.health_input(&health).frames);
            // Give the walk time to reach shard 0 and park there. The
            // sleep decides only whether the retirement below lands
            // mid-walk, never what a correct walk counts.
            std::thread::sleep(Duration::from_millis(20));
            // Closing lets shard 1's worker retire the session. Wait for
            // it, but only briefly: a walk that holds the retired lock
            // makes the retirement wait for the walk instead.
            drop(retiring);
            let deadline = Instant::now() + Duration::from_millis(200);
            while Instant::now() < deadline
                && !service
                    .inner
                    .retired
                    .try_lock()
                    .is_ok_and(|retired| retired.sessions == 1)
            {
                std::thread::sleep(Duration::from_millis(1));
            }
            drop(shard0);
            let frames = walk.join().unwrap();
            assert_eq!(frames[..2], [8, 8], "in and processed, counted once");
        });
        drop(idle);
    }
}
