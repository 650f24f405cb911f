//! Online adaptation: feedback-driven retraining and zero-drop model
//! hot-swap for live sessions.
//!
//! The paper's central operational appeal is that Laelaps models are
//! *incrementally updatable*: prototypes are majority votes over mergeable
//! accumulators, so each newly confirmed seizure can sharpen a
//! patient-specific model at negligible cost
//! ([`laelaps_core::PatientModel::absorb`]). This module closes the loop
//! from clinician
//! feedback to a live, improved detector without ever dropping a frame of
//! the patient's stream:
//!
//! ```text
//!   clinician / remote producer
//!        │  FeedbackSegment { patient, label, samples }
//!        ▼
//!   [AdaptationEngine queue]          (submit: cheap, never blocks the
//!        │                             ingest hot path)
//!        ▼  engine worker thread
//!   registry.load(patient) ──► model.absorb(labeled) ──► generation + 1
//!        │
//!        ▼
//!   registry.publish()               (format-v2 file, temp + rename:
//!        │                            atomic, predecessor archived for
//!        │                            rollback)
//!        ▼
//!   service.swap_patient_model()     (staged per live session with a
//!        │                            frame barrier)
//!        ▼  session's shard worker, at the first chunk boundary past
//!        │  the barrier:
//!   detector.hot_swap(new model)
//! ```
//!
//! ## Swap semantics
//!
//! The hot-swap is **ordered, lossless, and stateful**:
//!
//! * every frame accepted into the session's ring *before* the swap
//!   request was staged is drained by the **old** model; every frame after
//!   it by the **new** model — one swap point, at a frame boundary, with
//!   no frame dropped or classified twice;
//! * the detector's streaming state (LBP histories, half-window encoder
//!   accumulators, the postprocessor's label window / armed flag /
//!   refractory hold) carries across the swap untouched, so the label
//!   cadence never hiccups — only the prototypes (and the tuned `tr`)
//!   change;
//! * the applied swap surfaces in order everywhere: as a
//!   [`crate::session::SessionOutput::ModelSwapped`] marker in the
//!   session's output stream, as
//!   [`crate::ServiceEvent::ModelSwapped`] on the service bus, as a wire
//!   `ModelUpdated` frame to a TCP client, and as `generation` in
//!   [`crate::SessionStatsEntry`].
//!
//! Retraining runs entirely **off the hot path** on the engine's worker
//! thread: shard workers keep draining rings the whole time, and the only
//! contention a swap adds is one mutex store per session.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use laelaps_core::{Label, TrainingData};
use laelaps_telemetry::{Mark, SpanContext, Stage};

use crate::error::{Result, ServeError};
use crate::persist::ModelRegistry;
use crate::service::DetectionService;
use crate::stats::ServiceStats;

/// A clinician-confirmed labeled segment for one patient, queued for the
/// adaptation engine.
#[derive(Debug, Clone)]
pub struct FeedbackSegment {
    /// Patient whose model should absorb the segment.
    pub patient: String,
    /// Confirmed brain-state label of the whole segment.
    pub label: Label,
    /// Interleaved frame-major samples (`frames × electrodes` of the
    /// patient's model).
    pub samples: Box<[f32]>,
}

/// Counters describing the engine's work so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptStats {
    /// Feedback segments accepted into the queue.
    pub feedback_in: u64,
    /// Retrainings that produced and published a new model generation.
    pub retrains: u64,
    /// Live sessions that accepted a hot-swap request (several sessions
    /// of one patient count individually).
    pub swaps_requested: u64,
    /// Feedback segments that failed to absorb (bad geometry, missing
    /// training state, …); see [`AdaptationEngine::last_error`].
    pub failures: u64,
}

/// One queued feedback item: the segment and the mark opened at its
/// submission. The applied swap closes that mark as the full
/// feedback→hot-swap propagation, and its trace (none with tracing off)
/// puts the retrain and the applied swap on one timeline with the chunk
/// traces.
type QueuedFeedback = (FeedbackSegment, Mark);

struct EngineInner {
    service: Arc<DetectionService>,
    registry: Arc<ModelRegistry>,
    /// Feedback waiting for the engine worker, in submission order.
    queue: Mutex<VecDeque<QueuedFeedback>>,
    /// Signals the worker (new feedback / shutdown) and waiters in
    /// [`AdaptationEngine::flush`] (an item finished processing).
    wake: Condvar,
    /// Set while the worker is absorbing an item it already popped, so
    /// `flush` does not return between pop and publish.
    busy: AtomicBool,
    shutdown: AtomicBool,
    feedback_in: AtomicU64,
    retrains: AtomicU64,
    swaps_requested: AtomicU64,
    failures: AtomicU64,
    last_error: Mutex<Option<String>>,
}

impl EngineInner {
    /// Absorb → publish → stage swaps, for one feedback segment.
    /// `submitted` is the segment's submission mark; swaps staged here
    /// carry it so [`Stage::AdaptPropagate`] spans submit → applied.
    fn process(&self, feedback: FeedbackSegment, submitted: Mark) -> Result<()> {
        let model = self.registry.load(&feedback.patient)?;
        let electrodes = model.electrodes();
        if feedback.samples.is_empty() || !feedback.samples.len().is_multiple_of(electrodes) {
            return Err(ServeError::Protocol {
                reason: format!(
                    "feedback of {} samples does not divide into \
                     {electrodes}-electrode frames",
                    feedback.samples.len()
                ),
            });
        }
        // De-interleave into the channel-major layout training expects.
        // (vec![Vec::with_capacity(..); n] would clone away the capacity.)
        let frames = feedback.samples.len() / electrodes;
        let mut signal: Vec<Vec<f32>> = (0..electrodes)
            .map(|_| Vec::with_capacity(frames))
            .collect();
        for frame in feedback.samples.chunks_exact(electrodes) {
            for (channel, &sample) in signal.iter_mut().zip(frame) {
                channel.push(sample);
            }
        }
        let data = TrainingData::new(&signal);
        let data = match feedback.label {
            Label::Ictal => data.ictal(0..frames),
            Label::Interictal => data.interictal(0..frames),
        };
        let updated = model.absorb(&data)?;
        // A segment too short to complete even one analysis window leaves
        // the accumulators untouched; publishing it would churn the
        // registry (and evict real rollback targets) for a model
        // byte-identical to the old one. Refuse instead.
        let old_state = model.train_state().expect("absorb succeeded");
        let new_state = updated.train_state().expect("absorb keeps state");
        if new_state.interictal_accumulator().len() == old_state.interictal_accumulator().len()
            && new_state.ictal_accumulator().len() == old_state.ictal_accumulator().len()
        {
            return Err(ServeError::Protocol {
                reason: format!(
                    "feedback segment of {frames} frames is too short to \
                     produce any training window"
                ),
            });
        }
        self.registry.publish(&feedback.patient, &updated)?;
        let swapped =
            self.service
                .swap_patient_model_from(&feedback.patient, &Arc::new(updated), submitted);
        self.retrains.fetch_add(1, Ordering::Relaxed);
        self.swaps_requested
            .fetch_add(swapped as u64, Ordering::Relaxed);
        Ok(())
    }

    fn worker_loop(&self) {
        loop {
            let item = {
                let mut queue = self.queue.lock().expect("adapt queue poisoned");
                loop {
                    if let Some(item) = queue.pop_front() {
                        // Mark busy *under the queue lock* so flush never
                        // observes "queue empty + not busy" mid-item.
                        self.busy.store(true, Ordering::Release);
                        break Some(item);
                    }
                    if self.shutdown.load(Ordering::Acquire) {
                        break None;
                    }
                    let (guard, _) = self
                        .wake
                        .wait_timeout(queue, Duration::from_millis(100))
                        .expect("adapt queue poisoned");
                    queue = guard;
                }
            };
            let Some((item, submitted)) = item else {
                return;
            };
            let clock = &self.service.telemetry().clock;
            // Retrain span: feedback has no session/shard attribution yet
            // (it may stage into many sessions), so the context is zero;
            // the applied swap's AdaptPropagate span carries the session.
            let retrain = clock.mark(submitted.trace());
            let outcome = self.process(item, submitted);
            clock.close(Stage::AdaptRetrain, retrain, SpanContext::default());
            if let Err(e) = outcome {
                self.failures.fetch_add(1, Ordering::Relaxed);
                *self.last_error.lock().expect("last error poisoned") = Some(e.to_string());
            }
            // Clear busy under the lock (pairs with flush's check), then
            // wake any flusher.
            let _guard = self.queue.lock().expect("adapt queue poisoned");
            self.busy.store(false, Ordering::Release);
            self.wake.notify_all();
        }
    }
}

/// The feedback-driven retraining worker: consumes
/// [`FeedbackSegment`]s, folds them into the patient's persisted model
/// (*off* the serving hot path), publishes the new generation to the
/// registry, and hot-swaps every live session of that patient at a frame
/// boundary. See the [module docs](self) for the full loop and the swap
/// semantics.
///
/// Dropping the engine stops the worker after the item in flight (queued
/// items are discarded).
///
/// # Examples
///
/// ```no_run
/// use std::sync::Arc;
/// use laelaps_core::Label;
/// use laelaps_serve::adapt::{AdaptationEngine, FeedbackSegment};
/// use laelaps_serve::{DetectionService, ModelRegistry, ServeConfig};
///
/// let service = Arc::new(DetectionService::new(ServeConfig::default()));
/// let registry = Arc::new(ModelRegistry::open("/var/lib/laelaps/models")?);
/// let engine = AdaptationEngine::new(Arc::clone(&service), Arc::clone(&registry));
///
/// // A clinician confirmed a seizure in P14's stream:
/// engine.submit(FeedbackSegment {
///     patient: "P14".into(),
///     label: Label::Ictal,
///     samples: vec![0.0; 4 * 512 * 20].into(),
/// })?;
/// engine.flush(); // wait for retrain + publish + swap staging
/// # Ok::<(), laelaps_serve::ServeError>(())
/// ```
pub struct AdaptationEngine {
    inner: Arc<EngineInner>,
    worker: Option<JoinHandle<()>>,
}

impl AdaptationEngine {
    /// Starts the engine's worker thread over `service` + `registry`.
    pub fn new(service: Arc<DetectionService>, registry: Arc<ModelRegistry>) -> Self {
        let inner = Arc::new(EngineInner {
            service,
            registry,
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            busy: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            feedback_in: AtomicU64::new(0),
            retrains: AtomicU64::new(0),
            swaps_requested: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            last_error: Mutex::new(None),
        });
        let worker = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("laelaps-adapt".into())
                .spawn(move || inner.worker_loop())
                .expect("failed to spawn adaptation worker")
        };
        AdaptationEngine {
            inner,
            worker: Some(worker),
        }
    }

    /// The service this engine swaps models into.
    pub fn service(&self) -> &Arc<DetectionService> {
        &self.inner.service
    }

    /// The registry this engine retrains from and publishes to.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.inner.registry
    }

    /// Queues a labeled segment for absorption. Cheap and non-blocking:
    /// the retraining happens on the engine's worker thread.
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] if the segment is empty (geometry against
    /// the patient's model is validated later, on the worker).
    pub fn submit(&self, feedback: FeedbackSegment) -> Result<()> {
        if feedback.samples.is_empty() {
            return Err(ServeError::Protocol {
                reason: "feedback segment carries no samples".into(),
            });
        }
        // Mark at submission, so the propagation span includes the queue
        // wait and retraining, not just the swap staging. The trace (when
        // tracing is on) follows the same life: queue → retrain → staged
        // swap → applied swap.
        let submitted = self.inner.service.telemetry().clock.begin();
        let mut queue = self.inner.queue.lock().expect("adapt queue poisoned");
        queue.push_back((feedback, submitted));
        // Counted under the queue lock, after the push: a caller that
        // sees the count and then calls `flush` finds the segment queued
        // or in flight, so the flush waits for it.
        self.inner.feedback_in.fetch_add(1, Ordering::Relaxed);
        drop(queue);
        self.inner.wake.notify_all();
        Ok(())
    }

    /// Blocks until every segment submitted before the call has been
    /// processed (retrained + published + swaps staged, or counted as a
    /// failure). Live sessions apply their staged swaps on their own
    /// shard workers; [`DetectionService::flush`] waits for staged swaps
    /// to be applied, so `engine.flush()` followed by `service.flush()`
    /// observes the whole loop.
    pub fn flush(&self) {
        let mut queue = self.inner.queue.lock().expect("adapt queue poisoned");
        while !queue.is_empty() || self.inner.busy.load(Ordering::Acquire) {
            let (guard, _) = self
                .inner
                .wake
                .wait_timeout(queue, Duration::from_millis(100))
                .expect("adapt queue poisoned");
            queue = guard;
        }
    }

    /// Point-in-time engine counters.
    pub fn stats(&self) -> AdaptStats {
        AdaptStats {
            feedback_in: self.inner.feedback_in.load(Ordering::Relaxed),
            retrains: self.inner.retrains.load(Ordering::Relaxed),
            swaps_requested: self.inner.swaps_requested.load(Ordering::Relaxed),
            failures: self.inner.failures.load(Ordering::Relaxed),
        }
    }

    /// Service counters with the registry's cache counters and this
    /// engine's counters attached — the full observability surface of an
    /// adapting deployment in one [`ServiceStats`].
    pub fn service_stats(&self) -> ServiceStats {
        self.inner
            .service
            .stats()
            .with_registry(self.inner.registry.stats())
            .with_adapt(self.stats())
    }

    /// The most recent failure's description, if any feedback segment
    /// could not be absorbed.
    pub fn last_error(&self) -> Option<String> {
        self.inner
            .last_error
            .lock()
            .expect("last error poisoned")
            .clone()
    }
}

impl Drop for AdaptationEngine {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.wake.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl std::fmt::Debug for AdaptationEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptationEngine")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}
