//! One patient's streaming detection session.

use std::collections::VecDeque;
use std::time::Duration;

use laelaps_check::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use laelaps_check::sync::{Arc, Mutex};

use laelaps_core::{Detector, DetectorEvent, LaelapsConfig, PatientModel};
use laelaps_eval::parallel::PoolWaker;
use laelaps_telemetry::{Clock, Mark, PinReason, SpanContext, Stage, TraceId};

use crate::ready::{Drained, ReadyFlag, ReadyQueue, Schedulable};
use crate::ring::{Consumer, DepthGauge, Full, Producer};
use crate::service::{AlarmRecord, Progress, ServiceEvent};
use crate::stats::{ServiceTelemetry, SessionCounters, SessionStats};
use crate::swapgate::SwapGate;

/// Identifies a session within one [`crate::DetectionService`].
pub type SessionId = u64;

/// One entry of a session's ordered output stream: classification events
/// interleaved, at the exact stream position it took effect, with model
/// hot-swap markers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SessionOutput {
    /// A classification event (identical to a bare
    /// [`laelaps_core::Detector`]'s).
    Event(DetectorEvent),
    /// The session's detector switched to a newer model generation;
    /// every earlier entry came from the previous model, every later one
    /// from the new model.
    ModelSwapped {
        /// Generation of the model now running.
        generation: u64,
        /// Frames processed when the swap took effect (a frame
        /// boundary).
        at_frame: u64,
    },
}

/// A hot-swap staged for a session's worker; held in the session's
/// [`SwapGate`], whose barrier ensures every frame accepted before the
/// request drains under the old model.
pub(crate) struct SwapRequest {
    pub model: Arc<PatientModel>,
    /// Opened when the triggering feedback or request entered the
    /// system: the applied swap closes it as [`Stage::AdaptPropagate`]
    /// and pins its trace ([`PinReason::ModelSwap`]).
    pub mark: Mark,
}

/// A chunk of interleaved frame-major samples (`frames × electrodes`)
/// queued in a session's ring.
#[derive(Debug)]
pub(crate) struct Chunk {
    pub samples: Box<[f32]>,
    /// Opened as the chunk entered the ring; the popping worker closes
    /// it as [`Stage::RingWait`]. Its trace (none with tracing off or
    /// sampled out) rides along so the drain, publish, and discard paths
    /// attribute their spans to this chunk.
    pub mark: Mark,
}

/// Upper bound on chunks one `drain` call processes before yielding the
/// shard worker to the session's neighbors (fairness under overload). A
/// session that hits the cap goes back on its shard's ready queue.
const MAX_CHUNKS_PER_DRAIN: usize = 16;

/// Why a push was rejected.
#[derive(Debug)]
pub enum PushError {
    /// The session's queue is full; the chunk comes back so the caller
    /// can retry, throttle, or drop it (explicit backpressure).
    Full(Box<[f32]>),
    /// The chunk does not divide into whole frames of the session's
    /// electrode count.
    FrameWidth {
        /// Samples per frame the session expects.
        expected: usize,
        /// Offending chunk length.
        got: usize,
    },
    /// The handle was already closed; the stream accepts no more frames.
    Closed,
}

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushError::Full(chunk) => {
                write!(f, "session queue full ({} samples rejected)", chunk.len())
            }
            PushError::FrameWidth { expected, got } => write!(
                f,
                "chunk of {got} samples does not divide into {expected}-electrode \
                 frames"
            ),
            PushError::Closed => write!(f, "session input stream already closed"),
        }
    }
}

/// Worker-side mutable state; locked only by the owning shard worker.
pub(crate) struct WorkerState {
    pub detector: Detector,
    pub rx: Consumer<Chunk>,
    pub failed: Option<String>,
}

/// Shared state of one session (handle side + worker side).
pub(crate) struct SessionCore {
    pub id: SessionId,
    pub patient: String,
    pub electrodes: usize,
    /// Worker shard the session is pinned to (for observability).
    pub shard: usize,
    /// Configuration the session's detector runs, kept here so swap
    /// requests can be validated without locking the worker state.
    pub config: LaelapsConfig,
    pub worker: Mutex<WorkerState>,
    pub outbox: Mutex<VecDeque<SessionOutput>>,
    pub counters: SessionCounters,
    /// The service-wide stage histograms + rate meter this session
    /// reports into (shared by every session of one service).
    pub telemetry: Arc<ServiceTelemetry>,
    /// A staged model hot-swap, applied by the shard worker at the first
    /// chunk boundary past its barrier.
    pub pending_swap: SwapGate<SwapRequest>,
    /// Generation of the model currently running (updated when a swap is
    /// applied).
    pub generation: AtomicU64,
    /// Set by the worker when the detector failed; pushes then report
    /// [`PushError::Closed`] instead of an endlessly retryable `Full`.
    pub failed_flag: AtomicBool,
    /// Set by the worker once the stream is closed and fully drained;
    /// the shard then retires the session.
    pub done: AtomicBool,
    /// Debug-only wedge ([`crate::DetectionService::debug_wedge_session`]):
    /// while set, [`SessionCore::drain`] returns without touching this
    /// session's ring — frames stay queued (zero loss), the shard keeps
    /// serving its other sessions and heart-beating, so only the
    /// *session*-level stall rule can fire.
    pub wedged: AtomicBool,
    /// Read-only occupancy view of this session's ring, for the
    /// per-shard saturation gauges in the telemetry snapshot.
    pub ring_depth: DepthGauge,
    /// Set while the session waits on its shard's ready queue (see
    /// [`crate::ready`]).
    pub scheduled: ReadyFlag,
}

impl Schedulable for SessionCore {
    fn ready_flag(&self) -> &ReadyFlag {
        &self.scheduled
    }
}

impl std::fmt::Debug for SessionCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionCore")
            .field("id", &self.id)
            .field("patient", &self.patient)
            .field("electrodes", &self.electrodes)
            .field("done", &self.done.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl SessionCore {
    /// Span attribution for this session's trace records: session id,
    /// shard, and the (truncated) generation currently running.
    pub(crate) fn span_ctx(&self) -> SpanContext {
        SpanContext {
            session: self.id,
            shard: self.shard as u16,
            generation: self.generation.load(Ordering::Relaxed) as u32,
        }
    }

    /// Validates `model` against this session's pipeline and stages it
    /// for the worker to hot-swap at the first chunk boundary once every
    /// frame accepted so far has been processed. A not-yet-applied
    /// earlier request is replaced (latest model wins).
    ///
    /// # Errors
    ///
    /// [`crate::ServeError::Core`] if the model cannot run this session's
    /// stream (different electrode count, or any configuration field
    /// other than `tr` differs) — validated here so an incompatible swap
    /// fails the *request*, never the live session — or
    /// [`crate::ServeError::UnknownSession`] if the session already
    /// finished or failed (a swap staged there could never apply).
    pub fn request_swap(&self, model: &Arc<PatientModel>) -> crate::error::Result<()> {
        self.request_swap_from(model, self.telemetry.clock.begin())
    }

    /// [`SessionCore::request_swap`] with an explicit propagation mark:
    /// the adaptation engine passes the mark it opened when the
    /// triggering feedback was submitted (with the feedback's trace), so
    /// [`Stage::AdaptPropagate`] spans feedback → applied swap rather
    /// than just request → applied swap.
    pub(crate) fn request_swap_from(
        &self,
        model: &Arc<PatientModel>,
        mark: Mark,
    ) -> crate::error::Result<()> {
        if self.done.load(Ordering::Acquire) || self.failed_flag.load(Ordering::Acquire) {
            return Err(crate::ServeError::UnknownSession { session: self.id });
        }
        if model.electrodes() != self.electrodes {
            return Err(laelaps_core::LaelapsError::ElectrodeMismatch {
                expected: self.electrodes,
                got: model.electrodes(),
            }
            .into());
        }
        if !model.config().same_pipeline(&self.config) {
            return Err(laelaps_core::LaelapsError::InvalidConfig {
                field: "config",
                reason: "hot-swap requires an identical configuration \
                         (only `tr` may differ)"
                    .into(),
            }
            .into());
        }
        // Barrier: every frame whose acceptance was *recorded* before
        // this request drains under the old model. frames_in is bumped
        // per whole chunk, so the barrier always lands on a chunk (hence
        // frame) boundary. A chunk whose push races its own accounting
        // may land on the new-model side; the single-swap-point and
        // zero-drop guarantees are unaffected.
        let barrier = self.counters.cell.accepted();
        self.pending_swap.stage(
            SwapRequest {
                model: Arc::clone(model),
                mark,
            },
            barrier,
        );
        Ok(())
    }

    /// Whether a requested hot-swap is not yet published: still staged,
    /// or applied by the shard worker in a pass that has not yet put its
    /// `ModelSwapped` marker in the outbox.
    pub fn swap_pending(&self) -> bool {
        self.pending_swap.is_pending()
    }

    /// Applies the staged hot-swap if its barrier has been reached:
    /// swaps the request's model into `detector` at stream position
    /// `at_frame` and records the ordered marker. Returns whether a swap
    /// was applied (the gate then stays pending until the pass settles
    /// it), or `Err(reason)` if the (pre-validated) swap still failed.
    fn try_apply_swap(
        &self,
        detector: &mut Detector,
        at_frame: u64,
        out: &mut Vec<SessionOutput>,
    ) -> Result<bool, String> {
        let Some(request) = self.pending_swap.take_due(at_frame) else {
            return Ok(false);
        };
        let model = &request.model;
        detector
            .hot_swap(model)
            .map_err(|e| format!("model hot-swap failed: {e}"))?;
        let generation = model.generation();
        self.generation.store(generation, Ordering::Release);
        let clock = &self.telemetry.clock;
        clock.close(Stage::AdaptPropagate, request.mark, self.span_ctx());
        if let Some(id) = request.mark.trace() {
            clock.tracer.pin(id, PinReason::ModelSwap);
        }
        out.push(SessionOutput::ModelSwapped {
            generation,
            at_frame,
        });
        Ok(true)
    }

    /// Drains queued chunks through the detector, at most
    /// `MAX_CHUNKS_PER_DRAIN` of them; [`Drained::Backlog`] means the cap
    /// stopped the pass. Called only by the session's shard worker.
    pub fn drain(&self, bus: &Mutex<VecDeque<ServiceEvent>>) -> Drained {
        if self.wedged.load(Ordering::Acquire) {
            return Drained::Idle;
        }
        let mut state = self.worker.lock().expect("session worker lock poisoned");
        if self.done.load(Ordering::Relaxed) {
            return Drained::Idle;
        }
        // Closed only if the pass did work, so idle polls never pollute
        // the drain histogram; empty (no clock read) when timing is off.
        let clock = &self.telemetry.clock;
        let pass = clock.mark(None);
        let mut frames_done: u64 = 0;
        let mut out: Vec<SessionOutput> = Vec::new();
        // Trace ids of chunks drained this pass; the publish span below
        // is attributed to each of them.
        let mut traced: Vec<TraceId> = Vec::new();
        // Stream position before this pass; only this worker advances the
        // counter, so base + frames_done is exact within the pass.
        let base_processed = self.counters.cell.processed();
        // The chunk in the detector: the detector's `samples_seen` when it
        // went in, and its frames. Set until the chunk is done, so an
        // error or panic leaves it behind.
        let mut in_flight: Option<(u64, u64)> = None;
        // Frames of the aborted chunk the detector did not finish.
        let mut aborted_tail: u64 = 0;
        let mut popped = 0;
        // Whether this pass applied a swap, whose gate it must settle
        // once the marker is published.
        let mut swapped = false;
        let newly_failed = if state.failed.is_none() {
            let electrodes = self.electrodes;
            let WorkerState { detector, rx, .. } = &mut *state;
            // Panics inside the detector are contained *before* they can
            // unwind through (and poison) the worker mutex or kill the
            // shard thread; they fail this session only.
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| -> Option<String> {
                    // Bounded batch: a producer that outruns its detector
                    // must not monopolize the shard worker — co-sharded
                    // sessions get their turn every MAX_CHUNKS_PER_DRAIN
                    // chunks.
                    for _ in 0..MAX_CHUNKS_PER_DRAIN {
                        // A staged hot-swap takes effect here, between
                        // chunks: frames already drained stay with the
                        // old model, everything after runs the new one.
                        match self.try_apply_swap(detector, base_processed + frames_done, &mut out)
                        {
                            Ok(applied) => swapped |= applied,
                            Err(reason) => return Some(reason),
                        }
                        let Some(chunk) = rx.pop() else { break };
                        popped += 1;
                        let trace = chunk.mark.trace();
                        let ctx = self.span_ctx();
                        // The pop instant closes the ring wait and opens
                        // the chunk's drain span (the drain histogram
                        // samples the whole pass).
                        let drain = clock.close(Stage::RingWait, chunk.mark, ctx).span_only();
                        let chunk_frames = (chunk.samples.len() / electrodes) as u64;
                        in_flight = Some((detector.samples_seen(), chunk_frames));
                        // The handle checked the chunk against the
                        // session's width; the detector must share it.
                        if detector.electrodes() != electrodes {
                            let mismatch = laelaps_core::LaelapsError::ElectrodeMismatch {
                                expected: detector.electrodes(),
                                got: electrodes,
                            };
                            return Some(mismatch.to_string());
                        }
                        let pushed = detector.push_frames(&chunk.samples, |event| {
                            if let (Some(_), Some(id)) = (event.alarm, trace) {
                                clock.tracer.pin(id, PinReason::Alarm);
                            }
                            out.push(SessionOutput::Event(event));
                        });
                        if let Err(e) = pushed {
                            return Some(e.to_string());
                        }
                        in_flight = None;
                        frames_done += chunk_frames;
                        clock.close(Stage::Drain, drain, ctx);
                        traced.extend(trace);
                    }
                    None
                }));
            // An aborted chunk's frames that the detector finished count
            // as processed, the rest as discarded, so frames_in ==
            // processed + discarded holds.
            if let Some((start, frames)) = in_flight {
                let done = detector.samples_seen() - start;
                frames_done += done;
                aborted_tail = frames - done;
            }
            record_failure(&mut state, outcome)
        } else {
            false
        };
        let discarded = if state.failed.is_some() {
            self.discard_after_failure(&mut state, aborted_tail)
        } else {
            0
        };
        let worked = frames_done > 0 || newly_failed || discarded > 0 || !out.is_empty();
        let published = self.publish_outputs(out, bus, &traced);
        if swapped {
            // The marker is in the outbox: only now may a flush that
            // waits on `swap_pending` stop waiting.
            self.pending_swap.settle();
        }
        if worked {
            // The publish close, when it read the clock, also ends the pass.
            let end = clock.close_at(Stage::Drain, pass, published, SpanContext::default());
            self.counters
                .record_drain(end.micros_since(pass), self.telemetry.drain_ticks.get());
            self.telemetry.record_frames(frames_done, end);
            // Publish progress only after events reached the outbox, so a
            // flush() that observes frames_processed == frames_in also
            // observes every resulting event.
            self.counters.cell.record_processed(frames_done);
            self.feed_session_obs(discarded);
        }
        // Retire only once the producer side is closed and the ring is
        // empty — a failed session keeps discarding (and counting) frames
        // until its handle observes the failure, so no chunk is ever
        // stranded uncounted in a retired session's ring.
        if state.rx.is_finished() {
            self.done.store(true, Ordering::Release);
        }
        if !worked {
            Drained::Idle
        } else if popped == MAX_CHUNKS_PER_DRAIN && state.failed.is_none() {
            Drained::Backlog
        } else {
            Drained::Worked
        }
    }

    /// Failure cleanup after a detector error or panic: surfaces the failure
    /// to producers, drops any staged swap (a failed session can never
    /// apply it), and discards everything still queued (and whatever
    /// arrives until the producer observes the failure) so a caller
    /// retrying on `Full` is unblocked instead of livelocking against a
    /// ring that will never drain; every lost frame is counted. Returns
    /// the frames discarded.
    fn discard_after_failure(&self, state: &mut WorkerState, aborted_tail: u64) -> u64 {
        self.failed_flag.store(true, Ordering::Release);
        self.pending_swap.clear();
        let mut discarded = aborted_tail;
        while let Some(chunk) = state.rx.pop() {
            // Tail retention: a discarded chunk is exactly the anomaly
            // the flight recorder exists for.
            if let Some(id) = chunk.mark.trace() {
                self.telemetry.clock.tracer.pin(id, PinReason::Discard);
            }
            discarded += (chunk.samples.len() / self.electrodes) as u64;
        }
        if discarded > 0 {
            self.counters.cell.record_discarded(discarded);
        }
        discarded
    }

    /// Feeds the per-session heavy-hitter sketches after a productive
    /// drain pass — a no-op unless [`crate::ServeConfig::sessions`]
    /// enabled the layer. Runs on the shard worker, which knows this
    /// pass's deltas: the just-updated latency EWMA, the ring depth the
    /// pass left behind, and the frames it discarded. Wait-free.
    #[inline]
    fn feed_session_obs(&self, discarded: u64) {
        if let Some(obs) = &self.telemetry.session_obs {
            obs.record(
                self.shard,
                self.id,
                self.counters.cell.ewma_drain_us(),
                self.ring_depth.get() as u64,
                discarded,
            );
        }
    }

    /// Publishes one pass's ordered outputs: bumps event/alarm counters,
    /// fans alarms and swap markers onto the service bus, and appends
    /// everything to the session outbox.
    ///
    /// Timed once: a [`Stage::Publish`] sample when there was output, and
    /// a span for each chunk drained this pass (`traced`), since the pass
    /// batches their outputs. Returns the close mark, which holds an
    /// instant only when something was recorded.
    fn publish_outputs(
        &self,
        out: Vec<SessionOutput>,
        bus: &Mutex<VecDeque<ServiceEvent>>,
        traced: &[TraceId],
    ) -> Mark {
        let publishing = !out.is_empty();
        if !publishing && traced.is_empty() {
            return Mark::default();
        }
        let clock = &self.telemetry.clock;
        let start = clock.mark(traced.first().copied());
        let mut bus_events: Vec<ServiceEvent> = Vec::new();
        let mut events_out: u64 = 0;
        for entry in &out {
            match entry {
                SessionOutput::Event(event) => {
                    events_out += 1;
                    if event.alarm.is_some() {
                        bus_events.push(ServiceEvent::Alarm(AlarmRecord {
                            session: self.id,
                            patient: self.patient.clone(),
                            event: *event,
                        }));
                    }
                }
                SessionOutput::ModelSwapped {
                    generation,
                    at_frame,
                } => bus_events.push(ServiceEvent::ModelSwapped {
                    session: self.id,
                    patient: self.patient.clone(),
                    generation: *generation,
                    at_frame: *at_frame,
                }),
            }
        }
        self.counters
            .events_out
            .fetch_add(events_out, Ordering::Relaxed);
        let alarms = bus_events
            .iter()
            .filter(|e| matches!(e, ServiceEvent::Alarm(_)))
            .count() as u64;
        if alarms > 0 {
            self.counters
                .alarms_out
                .fetch_add(alarms, Ordering::Relaxed);
        }
        if !bus_events.is_empty() {
            bus.lock().expect("service bus poisoned").extend(bus_events);
        }
        self.outbox
            .lock()
            .expect("session outbox poisoned")
            .extend(out);
        let start = if publishing { start } else { start.span_only() };
        let ctx = self.span_ctx();
        let end = clock.close(Stage::Publish, start, ctx);
        for &id in traced.iter().skip(1) {
            clock.close_at(Stage::Publish, start.span_of(id), end, ctx);
        }
        end
    }

    /// Whether every accepted frame has been run through the detector
    /// (or charged to `frames_discarded` by a failed session's discard).
    pub fn is_caught_up(&self) -> bool {
        let stats = self.counters.snapshot();
        stats.frames_processed + stats.frames_discarded >= stats.frames_in
    }
}

/// The caller's half of a session: push frames, collect events.
///
/// Dropping the handle closes the input stream, like
/// [`SessionHandle::close`]: it wakes the session's worker, which
/// finishes draining what was queued and then retires the session.
#[derive(Debug)]
pub struct SessionHandle {
    pub(crate) core: Arc<SessionCore>,
    pub(crate) tx: Producer<Chunk>,
    pub(crate) closed: bool,
    /// The ready queue of the session's shard, and the waker of the
    /// pool whose worker drains it.
    pub(crate) ready: Arc<ReadyQueue<SessionCore>>,
    pub(crate) waker: PoolWaker,
    pub(crate) progress: Arc<Progress>,
}

impl SessionHandle {
    /// Session id within its service.
    pub fn id(&self) -> SessionId {
        self.core.id
    }

    /// Patient id this session serves.
    pub fn patient(&self) -> &str {
        &self.core.patient
    }

    /// Samples per frame.
    pub fn electrodes(&self) -> usize {
        self.core.electrodes
    }

    fn check_width(&self, samples: usize) -> Result<usize, PushError> {
        // `failed_flag` surfaces detector failure: the worker discards
        // the queue, so pushes must stop erroring out as `Full` (which
        // callers retry) and report a terminal condition instead; the
        // reason stays available via [`SessionHandle::error`].
        if self.closed || self.core.failed_flag.load(Ordering::Acquire) {
            return Err(PushError::Closed);
        }
        if samples == 0 || !samples.is_multiple_of(self.core.electrodes) {
            return Err(PushError::FrameWidth {
                expected: self.core.electrodes,
                got: samples,
            });
        }
        Ok(samples / self.core.electrodes)
    }

    /// Queues a chunk of interleaved frames. On a full queue the chunk is
    /// returned in [`PushError::Full`] — nothing is dropped silently.
    pub fn try_push_chunk(&mut self, chunk: Box<[f32]>) -> Result<(), PushError> {
        self.enqueue(chunk, Clock::begin, false)
    }

    /// [`SessionHandle::try_push_chunk`] for a chunk whose trace the
    /// network read loop minted at its [`Stage::WireDecode`]; a push
    /// retried on `Full` keeps it.
    pub(crate) fn try_push_traced(
        &mut self,
        chunk: Box<[f32]>,
        trace: Option<TraceId>,
    ) -> Result<(), PushError> {
        self.enqueue(chunk, |clock| clock.mark(trace), false)
    }

    /// Queues a chunk, dropping it (and counting the drop) if the queue
    /// is full. Returns whether the chunk was accepted; a closed or
    /// failed session refuses (returns `false`) and counts the refusal
    /// in [`SessionStats::frames_refused`], so offered load never
    /// disappears from the accounting.
    ///
    /// # Panics
    ///
    /// Panics if the chunk does not divide into whole frames; width bugs
    /// are programming errors, unlike transient overload.
    pub fn push_chunk_lossy(&mut self, samples: &[f32]) -> bool {
        match self.enqueue(samples, Clock::begin, true) {
            Ok(()) => true,
            Err(PushError::Full(_)) => false,
            Err(PushError::Closed) => {
                // Closed/failed sessions skip width validation, so round
                // down: partial-frame tails of a misshapen chunk are not
                // whole frames to account for.
                let refused = (samples.len() / self.core.electrodes) as u64;
                self.core
                    .counters
                    .frames_refused
                    .fetch_add(refused, Ordering::Relaxed);
                self.core.telemetry.frames_refused.add(refused);
                false
            }
            Err(e) => panic!("{e}"),
        }
    }

    /// The one enqueue: checks the width, marks the chunk (opening its
    /// [`Stage::RingWait`]), pushes it, accounts its frames and schedules
    /// the session. On a full ring the chunk comes back in
    /// [`PushError::Full`]; a `lossy` push also sheds it, counting the
    /// drop and pinning its trace behind a zero-length
    /// [`Stage::RingEnqueue`] span.
    fn enqueue(
        &mut self,
        samples: impl AsRef<[f32]> + Into<Box<[f32]>>,
        mark: impl FnOnce(&Clock) -> Mark,
        lossy: bool,
    ) -> Result<(), PushError> {
        let frames = self.check_width(samples.as_ref().len())? as u64;
        let clock = &self.core.telemetry.clock;
        let mark = mark(clock);
        match self.tx.try_push(Chunk {
            samples: samples.into(),
            mark,
        }) {
            Ok(()) => {
                self.core.counters.cell.record_in(frames);
                self.schedule();
                Ok(())
            }
            Err(Full(chunk)) => {
                if lossy {
                    let shed = mark.span_only();
                    clock.close_at(Stage::RingEnqueue, shed, mark, self.core.span_ctx());
                    if let Some(id) = mark.trace() {
                        clock.tracer.pin(id, PinReason::Drop);
                    }
                    self.core.counters.cell.record_dropped(frames);
                }
                Err(PushError::Full(chunk.samples))
            }
        }
    }

    /// Puts the session on its shard's ready queue and, if it was not
    /// queued already, wakes that shard's worker. Call after making new
    /// work visible: a pushed chunk, a closed stream.
    fn schedule(&self) {
        if self.ready.schedule(&self.core) {
            self.waker.notify_shard(self.core.shard);
        }
    }

    /// Convenience: queues one frame.
    pub fn try_push_frame(&mut self, frame: &[f32]) -> Result<(), PushError> {
        self.try_push_chunk(frame.into())
    }

    /// Chunks currently waiting in the queue.
    pub fn queued_chunks(&self) -> usize {
        self.tx.len()
    }

    /// Queue capacity in chunks.
    pub fn queue_capacity(&self) -> usize {
        self.tx.capacity()
    }

    /// Takes every classification event produced so far, in stream order.
    /// Model-swap markers encountered in the stream are dropped; use
    /// [`SessionHandle::take_outputs`] to observe them in order.
    pub fn take_events(&self) -> Vec<DetectorEvent> {
        take_events(&self.core)
    }

    /// Takes the session's full ordered output stream: classification
    /// events interleaved with [`SessionOutput::ModelSwapped`] markers at
    /// the exact position each hot-swap took effect.
    pub fn take_outputs(&self) -> Vec<SessionOutput> {
        take_outputs(&self.core)
    }

    /// Generation of the model this session is currently running.
    pub fn generation(&self) -> u64 {
        self.core.generation.load(Ordering::Acquire)
    }

    /// Point-in-time counter snapshot.
    pub fn stats(&self) -> SessionStats {
        self.core.counters.snapshot()
    }

    /// The detector error that killed this session, if any.
    pub fn error(&self) -> Option<String> {
        self.core
            .worker
            .lock()
            .expect("session worker lock poisoned")
            .failed
            .clone()
    }

    /// Closes the input stream; further pushes fail with
    /// [`PushError::Closed`]. Queued frames are still processed; call
    /// [`crate::DetectionService::flush`] then [`SessionHandle::take_events`]
    /// to collect the tail.
    pub fn close(&mut self) {
        self.closed = true;
        self.tx.close();
        // The closed stream is work too: the worker retires the session
        // once its ring is empty, and only a scheduled session is drained.
        self.schedule();
    }

    /// Whether every accepted frame has been processed.
    pub fn is_caught_up(&self) -> bool {
        self.core.is_caught_up()
    }

    /// A cloneable, read-only subscription to this session's output
    /// stream, shareable across threads while the handle keeps pushing.
    ///
    /// This is the plumbing the network layer runs on: a connection's
    /// reader thread owns the [`SessionHandle`] (pushes frames) while its
    /// event pump owns an [`EventTap`] (takes events, waits on worker
    /// progress) — both sides of one session, no lock juggling.
    pub fn tap(&self) -> EventTap {
        EventTap {
            core: Arc::clone(&self.core),
            progress: Arc::clone(&self.progress),
        }
    }
}

impl Drop for SessionHandle {
    fn drop(&mut self) {
        if !self.closed {
            self.close();
        }
    }
}

/// Normalizes a contained detector outcome into `state.failed`: an error
/// reason or a panic payload becomes the session's terminal failure.
/// Returns whether the session failed on this pass.
fn record_failure(state: &mut WorkerState, outcome: std::thread::Result<Option<String>>) -> bool {
    match outcome {
        Ok(None) => false,
        Ok(Some(reason)) => {
            state.failed = Some(reason);
            true
        }
        Err(panic) => {
            let message = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic".into());
            state.failed = Some(format!("detector panicked: {message}"));
            true
        }
    }
}

/// Drains a session's outbox, keeping classification events only.
fn take_events(core: &SessionCore) -> Vec<DetectorEvent> {
    take_outputs(core)
        .into_iter()
        .filter_map(|output| match output {
            SessionOutput::Event(event) => Some(event),
            SessionOutput::ModelSwapped { .. } => None,
        })
        .collect()
}

/// Drains a session's full ordered outbox.
fn take_outputs(core: &SessionCore) -> Vec<SessionOutput> {
    core.outbox
        .lock()
        .expect("session outbox poisoned")
        .drain(..)
        .collect()
}

/// A read-only view of one session's output: events, stats, progress.
///
/// Created by [`SessionHandle::tap`]; cloneable and independent of the
/// handle's lifetime (events of a retired session stay takeable). Taking
/// events from the tap and from the handle drains the same outbox — use
/// one or the other per session.
///
/// The tap's progress signal is the session's **shard** signal: waiting
/// on it sleeps until this session's own worker advances, never waking on
/// other shards' drains.
#[derive(Clone)]
pub struct EventTap {
    core: Arc<SessionCore>,
    progress: Arc<Progress>,
}

impl EventTap {
    /// Session id within its service.
    pub fn session(&self) -> SessionId {
        self.core.id
    }

    /// Patient id this session serves.
    pub fn patient(&self) -> &str {
        &self.core.patient
    }

    /// Takes every classification event produced so far, in stream order.
    /// Model-swap markers encountered in the stream are dropped; use
    /// [`EventTap::take_outputs`] to observe them in order.
    pub fn take_events(&self) -> Vec<DetectorEvent> {
        take_events(&self.core)
    }

    /// Takes the session's full ordered output stream: classification
    /// events interleaved with [`SessionOutput::ModelSwapped`] markers at
    /// the exact position each hot-swap took effect.
    pub fn take_outputs(&self) -> Vec<SessionOutput> {
        take_outputs(&self.core)
    }

    /// Generation of the model this session is currently running.
    pub fn generation(&self) -> u64 {
        self.core.generation.load(Ordering::Acquire)
    }

    /// Whether a requested hot-swap is not yet published: staged, or
    /// applied by the session's worker but without its `ModelSwapped`
    /// marker in the outbox yet. Useful for draining loops that must not
    /// close a stream between a swap being staged and its marker
    /// reaching the outbox.
    pub fn has_pending_swap(&self) -> bool {
        self.core.swap_pending()
    }

    /// Point-in-time counter snapshot.
    pub fn stats(&self) -> SessionStats {
        self.core.counters.snapshot()
    }

    /// Whether every accepted frame has been processed (or charged to
    /// the discard counter by a failed session).
    pub fn is_caught_up(&self) -> bool {
        self.core.is_caught_up()
    }

    /// Whether the session finished: input closed and fully drained.
    pub fn is_done(&self) -> bool {
        self.core.done.load(Ordering::Acquire)
    }

    /// The detector error that killed this session, if any.
    pub fn error(&self) -> Option<String> {
        self.core
            .worker
            .lock()
            .expect("session worker lock poisoned")
            .failed
            .clone()
    }

    /// This session's shard progress generation; pass to
    /// [`EventTap::wait_progress`].
    pub fn progress_generation(&self) -> u64 {
        self.progress.generation()
    }

    /// Sleeps until this session's shard worker makes progress past
    /// generation `seen` or `timeout` elapses, whichever is first;
    /// returns the generation at wakeup. The non-spinning way to wait
    /// for new events — drains on *other* shards never wake this.
    pub fn wait_progress(&self, seen: u64, timeout: Duration) -> u64 {
        self.progress.wait_past(seen, timeout)
    }

    /// Blocks (without spinning) until every frame accepted so far has
    /// been processed. Unlike [`crate::DetectionService::flush`] this
    /// waits for *this* session only.
    pub fn wait_caught_up(&self) {
        loop {
            let seen = self.progress.generation();
            if self.core.is_caught_up() {
                return;
            }
            self.progress.wait_past(seen, Duration::from_millis(100));
        }
    }
}

impl std::fmt::Debug for EventTap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventTap")
            .field("session", &self.core.id)
            .field("patient", &self.core.patient)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laelaps_core::hv::Hypervector;
    use laelaps_core::{AssociativeMemory, LaelapsConfig, PatientModel};

    fn chunk(samples: Vec<f32>) -> Chunk {
        Chunk {
            samples: samples.into(),
            mark: Mark::default(),
        }
    }

    /// A SessionCore whose declared electrode count disagrees with its
    /// detector — the only way to reach the detector-error path, since
    /// handles validate widths up front.
    fn mismatched_core(ring_chunks: usize) -> (SessionCore, Producer<Chunk>) {
        let config = LaelapsConfig::with_dim(64, 1).unwrap();
        let am = AssociativeMemory::from_prototypes(Hypervector::zero(64), Hypervector::ones(64))
            .unwrap();
        let model = PatientModel::new(config.clone(), 2, am).unwrap();
        let detector = Detector::new(&model).unwrap();
        let (tx, rx) = crate::ring::ring(ring_chunks);
        let core = SessionCore {
            id: 0,
            patient: "P-broken".into(),
            electrodes: 4, // detector expects 2 → the drain rejects it
            shard: 0,
            config,
            ring_depth: tx.depth_gauge(),
            worker: Mutex::new(WorkerState {
                detector,
                rx,
                failed: None,
            }),
            outbox: Mutex::new(VecDeque::new()),
            counters: Default::default(),
            telemetry: Arc::new(ServiceTelemetry::new(
                &Default::default(),
                &Default::default(),
                &Default::default(),
                1,
            )),
            pending_swap: SwapGate::new(),
            generation: Default::default(),
            failed_flag: Default::default(),
            done: Default::default(),
            wedged: Default::default(),
            scheduled: ReadyFlag::new(),
        };
        (core, tx)
    }

    #[test]
    fn detector_failure_discards_queue_and_unblocks_producer() {
        let (core, mut tx) = mismatched_core(4);
        let bus = Mutex::new(VecDeque::new());
        for _ in 0..3 {
            tx.try_push(chunk(vec![0.0f32; 4 * 10])).unwrap();
            core.counters.cell.record_in(10);
        }
        assert_eq!(
            core.drain(&bus),
            Drained::Worked,
            "failing pass counts as work"
        );
        assert!(core.failed_flag.load(Ordering::Acquire));
        let stats = core.counters.snapshot();
        // Every accepted frame is accounted: none processed, all 30
        // (aborted chunk tail + queued chunks) discarded.
        assert_eq!(stats.frames_processed, 0);
        assert_eq!(stats.frames_discarded, 30);
        assert!(core.is_caught_up(), "flush() must not hang on failure");
        // Not retired until the producer side closes...
        assert!(!core.done.load(Ordering::Acquire));
        // ...and frames arriving before the caller notices are discarded
        // on the next pass instead of stranding in the ring.
        tx.try_push(chunk(vec![0.0f32; 4 * 5])).unwrap();
        core.counters.cell.record_in(5);
        assert_eq!(
            core.drain(&bus),
            Drained::Worked,
            "discarding latecomers counts as work"
        );
        assert_eq!(core.counters.snapshot().frames_discarded, 35);
        drop(tx);
        core.drain(&bus);
        assert!(core.done.load(Ordering::Acquire), "retires once closed");
    }

    #[test]
    fn healthy_drain_is_bounded_per_pass() {
        // A correct core (electrodes match) with more chunks queued than
        // MAX_CHUNKS_PER_DRAIN: one pass must leave the excess queued.
        let config = LaelapsConfig::with_dim(64, 2).unwrap();
        let am = AssociativeMemory::from_prototypes(Hypervector::zero(64), Hypervector::ones(64))
            .unwrap();
        let model = PatientModel::new(config.clone(), 2, am).unwrap();
        let detector = Detector::new(&model).unwrap();
        let (mut tx, rx) = crate::ring::ring(MAX_CHUNKS_PER_DRAIN + 8);
        let core = SessionCore {
            id: 1,
            patient: "P-busy".into(),
            electrodes: 2,
            shard: 0,
            config,
            ring_depth: tx.depth_gauge(),
            worker: Mutex::new(WorkerState {
                detector,
                rx,
                failed: None,
            }),
            outbox: Mutex::new(VecDeque::new()),
            counters: Default::default(),
            telemetry: Arc::new(ServiceTelemetry::new(
                &Default::default(),
                &Default::default(),
                &Default::default(),
                1,
            )),
            pending_swap: SwapGate::new(),
            generation: Default::default(),
            failed_flag: Default::default(),
            done: Default::default(),
            wedged: Default::default(),
            scheduled: ReadyFlag::new(),
        };
        let bus = Mutex::new(VecDeque::new());
        for _ in 0..MAX_CHUNKS_PER_DRAIN + 8 {
            tx.try_push(chunk(vec![0.0f32; 2 * 4])).unwrap();
            core.counters.cell.record_in(4);
        }
        assert_eq!(core.drain(&bus), Drained::Backlog, "the cap stops the pass");
        assert_eq!(
            core.counters.snapshot().frames_processed,
            (MAX_CHUNKS_PER_DRAIN * 4) as u64,
            "one pass processes at most the fairness cap"
        );
        assert!(!core.is_caught_up());
        assert_eq!(
            core.drain(&bus),
            Drained::Worked,
            "second pass finishes the rest"
        );
        assert!(core.is_caught_up());
        assert_eq!(core.drain(&bus), Drained::Idle, "nothing is left");
    }
}
