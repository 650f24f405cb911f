//! TCP ingest front-end: remote producers stream frames into a
//! [`DetectionService`] over the [`crate::wire`] protocol.
//!
//! One [`IngestServer`] fronts one service + model registry. Each
//! accepted connection authenticates to a patient model with a `Hello`,
//! gets a live session, and then runs two directions concurrently:
//!
//! * the **reader** bridges `Frames` messages into
//!   [`SessionHandle::try_push_chunk`]; when the session ring is full it
//!   sends one `Throttle` and *stops reading* until the worker catches up
//!   — backpressure propagates to the producer through the TCP window,
//!   and no frame is ever dropped silently;
//! * the **event pump** sleeps on the service's progress signal and
//!   streams every classification as an `Event`/`Alarm` frame back on
//!   the same socket.
//!
//! After a `Close` (or client EOF) the server drains the session, flushes
//! the remaining events, and closes the socket; the client treats the EOF
//! as end-of-results. [`IngestClient`] wraps the client half for tests,
//! examples, and bedside producers.
//!
//! # Examples
//!
//! ```no_run
//! use std::sync::Arc;
//! use laelaps_serve::net::{IngestClient, IngestServer};
//! use laelaps_serve::{DetectionService, ModelRegistry, ServeConfig};
//!
//! let service = Arc::new(DetectionService::new(ServeConfig::default()));
//! let registry = Arc::new(ModelRegistry::open("/var/lib/laelaps/models")?);
//! let server = IngestServer::bind("0.0.0.0:7071", service, registry)?;
//!
//! // Elsewhere (possibly another machine):
//! let mut client = IngestClient::connect(server.local_addr(), "P14", 4)?;
//! client.send_chunk(&[0.0; 4 * 256])?;
//! let events = client.finish()?;
//! println!("{} events", events.len());
//! # Ok::<(), laelaps_serve::ServeError>(())
//! ```

mod event_log;

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use laelaps_core::{DetectorEvent, Label};
use laelaps_telemetry::{Clock, SpanContext, Stage};

use crate::adapt::{AdaptationEngine, FeedbackSegment};
use crate::error::{Result, ServeError};
use crate::metrics::scrape;
use crate::persist::ModelRegistry;
use crate::service::DetectionService;
use crate::session::{EventTap, PushError, SessionHandle, SessionOutput};
use crate::wire::{
    event_message, read_message, read_message_spanned, trace_dump_message, write_message, Message,
    MAX_PAYLOAD,
};
use event_log::EventLog;

/// How often a blocked socket read wakes to check for server shutdown.
const READ_POLL: Duration = Duration::from_millis(100);

/// How long the accept loop naps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// How long the event pump and the throttle loop wait for worker
/// progress before re-checking (safety net; progress normally wakes
/// them).
const PROGRESS_WAIT: Duration = Duration::from_millis(20);

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// A `Read` wrapper that turns a socket's read timeouts into retries, so
/// `read_exact`-style framing stays intact, while honoring server
/// shutdown by reporting end-of-stream.
struct ShutdownRead {
    stream: TcpStream,
    shutdown: Arc<AtomicBool>,
}

impl Read for ShutdownRead {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return Ok(0);
            }
            match self.stream.read(buf) {
                Err(e) if is_timeout(&e) => {}
                other => return other,
            }
        }
    }
}

/// The `Write` counterpart: retries socket write timeouts until server
/// shutdown, so a client that stops reading (full send buffer) cannot
/// pin the event pump — and through the shared writer mutex the whole
/// connection — forever. Each retry resumes with the bytes the previous
/// `write` call did not take, so framing stays intact.
struct ShutdownWrite {
    stream: TcpStream,
    shutdown: Arc<AtomicBool>,
}

impl std::io::Write for ShutdownWrite {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "server shutting down",
                ));
            }
            match self.stream.write(buf) {
                Err(e) if is_timeout(&e) => {}
                other => return other,
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// Serializes wire writes from the reader (throttles, errors) and the
/// event pump onto one socket.
type SharedWriter = Arc<Mutex<ShutdownWrite>>;

fn send(writer: &SharedWriter, message: &Message) -> Result<()> {
    let mut stream = writer.lock().expect("wire writer poisoned");
    write_message(&mut *stream, message)
}

/// The TCP ingest front-end for one [`DetectionService`].
///
/// Accepts connections on a background thread; each connection gets its
/// own reader + event-pump pair. Dropping the server stops accepting,
/// unblocks every connection, and joins all of its threads.
pub struct IngestServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    throttles_sent: Arc<AtomicU64>,
}

impl IngestServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections, resolving each `Hello` against `registry`
    /// and opening sessions on `service`. Without an adaptation engine,
    /// client `Feedback` messages are rejected as protocol errors; use
    /// [`IngestServer::bind_with_engine`] to enable the full loop.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] if the listener cannot bind.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<DetectionService>,
        registry: Arc<ModelRegistry>,
    ) -> Result<IngestServer> {
        Self::bind_inner(addr, service, registry, None)
    }

    /// Like [`IngestServer::bind`], with an [`AdaptationEngine`]
    /// attached: client `Feedback` messages feed the engine, and applied
    /// hot-swaps stream back to the session's client as `ModelUpdated`
    /// frames, in order with its events.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] if the listener cannot bind.
    pub fn bind_with_engine(
        addr: impl ToSocketAddrs,
        service: Arc<DetectionService>,
        registry: Arc<ModelRegistry>,
        engine: Arc<AdaptationEngine>,
    ) -> Result<IngestServer> {
        Self::bind_inner(addr, service, registry, Some(engine))
    }

    fn bind_inner(
        addr: impl ToSocketAddrs,
        service: Arc<DetectionService>,
        registry: Arc<ModelRegistry>,
        engine: Option<Arc<AdaptationEngine>>,
    ) -> Result<IngestServer> {
        let listener = TcpListener::bind(addr)?;
        // Non-blocking accept + nap: the loop observes `shutdown` without
        // needing a self-connection to unblock it.
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let throttles_sent = Arc::new(AtomicU64::new(0));
        let accept_thread = {
            let shutdown = Arc::clone(&shutdown);
            let throttles = Arc::clone(&throttles_sent);
            std::thread::Builder::new()
                .name("laelaps-ingest-accept".into())
                .spawn(move || {
                    let mut connections: Vec<JoinHandle<()>> = Vec::new();
                    while !shutdown.load(Ordering::Acquire) {
                        match listener.accept() {
                            Ok((stream, _peer)) => {
                                let service = Arc::clone(&service);
                                let registry = Arc::clone(&registry);
                                let engine = engine.clone();
                                let shutdown = Arc::clone(&shutdown);
                                let throttles = Arc::clone(&throttles);
                                let handle = std::thread::Builder::new()
                                    .name("laelaps-ingest-conn".into())
                                    .spawn(move || {
                                        // Connection errors already went to
                                        // the peer as wire Error frames.
                                        let _ = serve_connection(
                                            stream,
                                            &service,
                                            &registry,
                                            engine.as_deref(),
                                            &shutdown,
                                            &throttles,
                                        );
                                    })
                                    .expect("failed to spawn connection thread");
                                connections.push(handle);
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                std::thread::sleep(ACCEPT_POLL);
                            }
                            Err(_) => std::thread::sleep(ACCEPT_POLL),
                        }
                        // Prune on every iteration (not just idle ones):
                        // under back-to-back accepts the idle branch may
                        // never run, and finished handles would pile up.
                        connections.retain(|c| !c.is_finished());
                    }
                    for connection in connections {
                        let _ = connection.join();
                    }
                })
                .expect("failed to spawn accept thread")
        };
        Ok(IngestServer {
            local_addr,
            shutdown,
            accept_thread: Some(accept_thread),
            throttles_sent,
        })
    }

    /// The address the server is listening on (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Total `Throttle` messages sent across all connections — how often
    /// remote producers outran their sessions' queues.
    pub fn throttles_sent(&self) -> u64 {
        self.throttles_sent.load(Ordering::Relaxed)
    }
}

impl Drop for IngestServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
    }
}

impl std::fmt::Debug for IngestServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestServer")
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

/// Reads the `Hello`, opens the session, then runs the reader loop with
/// an event pump alongside. Any terminal condition is reported to the
/// peer as a wire `Error` where possible.
fn serve_connection(
    stream: TcpStream,
    service: &DetectionService,
    registry: &ModelRegistry,
    engine: Option<&AdaptationEngine>,
    shutdown: &Arc<AtomicBool>,
    throttles: &AtomicU64,
) -> Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_POLL))?;
    stream.set_write_timeout(Some(READ_POLL))?;
    let writer: SharedWriter = Arc::new(Mutex::new(ShutdownWrite {
        stream: stream.try_clone()?,
        shutdown: Arc::clone(shutdown),
    }));
    let mut reader = ShutdownRead {
        stream,
        shutdown: Arc::clone(shutdown),
    };

    // Stage timing for this connection's reads: wire decode (header →
    // parsed message) and ring enqueue (including throttle stalls).
    let clock = &service.telemetry().clock;

    // The first message decides what this connection is: a Hello opens a
    // streaming session; an introspection request turns it into a
    // read-only stats/trace exchange that never touches the session or
    // model layers. No session exists yet to attribute its decode to.
    let first = read_message_spanned(&mut reader, Some(clock)).map(|first| {
        first.map(|(message, decode)| {
            clock.close(Stage::WireDecode, decode, SpanContext::default());
            message
        })
    });
    if let Ok(Some(
        request @ (Message::StatsRequest
        | Message::TraceDumpRequest { .. }
        | Message::HealthRequest
        | Message::SessionStatsRequest { .. }),
    )) = first
    {
        return serve_introspection(request, &mut reader, &writer, service, registry, engine);
    }
    let mut handle = match open_from_hello(first, service, registry) {
        Ok(handle) => handle,
        Err(e) => {
            let _ = send(
                &writer,
                &Message::Error {
                    reason: e.to_string(),
                },
            );
            return Err(e);
        }
    };
    send(
        &writer,
        &Message::Accepted {
            session: handle.id(),
            electrodes: handle.electrodes() as u32,
        },
    )?;

    let tap = handle.tap();
    let pump_stop = Arc::new(AtomicBool::new(false));
    let pump = {
        let tap = tap.clone();
        let writer = Arc::clone(&writer);
        let pump_stop = Arc::clone(&pump_stop);
        let shutdown = Arc::clone(shutdown);
        std::thread::Builder::new()
            .name("laelaps-ingest-pump".into())
            .spawn(move || pump_events(&tap, &writer, &pump_stop, &shutdown))
            .expect("failed to spawn event pump")
    };

    let outcome = read_loop(
        &mut reader,
        &mut handle,
        &tap,
        &writer,
        engine,
        shutdown,
        throttles,
        clock,
    );
    handle.close();
    if outcome.is_ok() {
        // Wait (on the progress condvar, not a spin) until every accepted
        // frame has produced its events — and any staged hot-swap has
        // been applied, so its ModelUpdated frame is not lost — before
        // the pump's final drain sends the stream tail and the socket
        // closes. A session that retired with a swap still staged can
        // never apply it; stop waiting then.
        let settled = || (tap.is_caught_up() && !tap.has_pending_swap()) || tap.is_done();
        while !shutdown.load(Ordering::Acquire) && !settled() {
            let seen = tap.progress_generation();
            if settled() {
                break;
            }
            tap.wait_progress(seen, PROGRESS_WAIT);
        }
    }
    pump_stop.store(true, Ordering::Release);
    let _ = pump.join();
    if let Err(e) = &outcome {
        let _ = send(
            &writer,
            &Message::Error {
                reason: e.to_string(),
            },
        );
    }
    outcome
}

/// Turns a connection's already-read first message into a live session:
/// it must be the opening `Hello`.
fn open_from_hello(
    first: Result<Option<Message>>,
    service: &DetectionService,
    registry: &ModelRegistry,
) -> Result<SessionHandle> {
    let hello = first?.ok_or_else(|| ServeError::Protocol {
        reason: "connection closed before Hello".into(),
    })?;
    let Message::Hello {
        patient,
        electrodes,
    } = hello
    else {
        return Err(ServeError::Protocol {
            reason: "first message must be Hello".into(),
        });
    };
    let model = registry.load(&patient)?;
    if model.electrodes() != electrodes as usize {
        return Err(ServeError::Protocol {
            reason: format!(
                "patient {patient:?} expects {} electrodes, client declared {electrodes}",
                model.electrodes()
            ),
        });
    }
    service.open_session(&patient, &model)
}

/// Answers a read-only introspection exchange: the connection's first
/// message was `StatsRequest`/`TraceDumpRequest`/`HealthRequest`/
/// `SessionStatsRequest`, and every subsequent
/// message must be another request (or `Close`/EOF to end it). A stats
/// request answers with the whole metric catalogue
/// ([`crate::metrics::scrape`]) over the service stats, the health view
/// and the per-session heavy hitters. The stats come from the engine
/// when one is attached (registry + adaptation counters included) and
/// from the service + registry otherwise — the same snapshot
/// [`DetectionService::stats`] serves in process.
fn serve_introspection(
    first: Message,
    reader: &mut ShutdownRead,
    writer: &SharedWriter,
    service: &DetectionService,
    registry: &ModelRegistry,
    engine: Option<&AdaptationEngine>,
) -> Result<()> {
    let mut request = first;
    loop {
        let reply = match request {
            Message::StatsRequest => {
                let stats = match engine {
                    Some(engine) => engine.service_stats(),
                    None => service.stats().with_registry(registry.stats()),
                };
                Message::StatsSnapshot {
                    families: scrape(
                        &stats,
                        &service.health_snapshot(),
                        &service.session_obs_snapshot(None),
                    ),
                }
            }
            Message::TraceDumpRequest { limit } => {
                trace_dump_message(&service.trace_snapshot(), limit)
            }
            Message::HealthRequest => Message::HealthSnapshot {
                health: Box::new(service.health_snapshot()),
            },
            Message::SessionStatsRequest { session } => Message::SessionStatsSnapshot {
                sessions: Box::new(service.session_obs_snapshot(session)),
            },
            _ => unreachable!("serve_introspection dispatches only on requests"),
        };
        send(writer, &reply)?;
        request = match read_message(reader)? {
            None | Some(Message::Close) => return Ok(()),
            Some(
                next @ (Message::StatsRequest
                | Message::TraceDumpRequest { .. }
                | Message::HealthRequest
                | Message::SessionStatsRequest { .. }),
            ) => next,
            Some(other) => {
                let e = ServeError::Protocol {
                    reason: format!(
                        "introspection connections accept only stats/trace/health/session \
                         requests, got {other:?}"
                    ),
                };
                let _ = send(
                    writer,
                    &Message::Error {
                        reason: e.to_string(),
                    },
                );
                return Err(e);
            }
        };
    }
}

/// Bridges `Frames` into the session until `Close`/EOF, mapping ring
/// backpressure to `Throttle` + a progress wait (never a drop), and
/// `Feedback` into the adaptation engine when one is attached.
#[allow(clippy::too_many_arguments)]
fn read_loop(
    reader: &mut ShutdownRead,
    handle: &mut SessionHandle,
    tap: &EventTap,
    writer: &SharedWriter,
    engine: Option<&AdaptationEngine>,
    shutdown: &Arc<AtomicBool>,
    throttles: &AtomicU64,
    clock: &Clock,
) -> Result<()> {
    loop {
        if shutdown.load(Ordering::Acquire) {
            return Ok(());
        }
        // Client EOF without Close: treat as Close — the frames it sent
        // are still drained and their events delivered.
        let Some((message, decode)) = read_message_spanned(reader, Some(clock))? else {
            return Ok(());
        };
        let ctx = handle.core.span_ctx();
        // The decode's end opens the next interval: for a chunk, its
        // acceptance into the ring.
        let accept = clock.close(Stage::WireDecode, decode, ctx);
        match message {
            Message::Close => return Ok(()),
            Message::Frames { chunk } => {
                // Spans acceptance into the ring *including* throttle
                // stalls — the queueing delay a remote producer sees.
                // Unrecorded if the connection dies mid-push. A retried
                // push keeps the chunk's trace.
                let mut pending = chunk;
                let mut throttled = false;
                loop {
                    match handle.try_push_traced(pending, accept.trace()) {
                        Ok(()) => break,
                        Err(PushError::Full(back)) => {
                            pending = back;
                            if !throttled {
                                throttled = true;
                                throttles.fetch_add(1, Ordering::Relaxed);
                                send(
                                    writer,
                                    &Message::Throttle {
                                        queued_chunks: handle.queued_chunks() as u32,
                                        capacity_chunks: handle.queue_capacity() as u32,
                                    },
                                )?;
                            }
                            if shutdown.load(Ordering::Acquire) {
                                return Ok(());
                            }
                            // Sleep until the worker drains something.
                            let seen = tap.progress_generation();
                            if handle.queued_chunks() < handle.queue_capacity() {
                                continue;
                            }
                            tap.wait_progress(seen, PROGRESS_WAIT);
                        }
                        Err(e) => {
                            return Err(ServeError::Protocol {
                                reason: e.to_string(),
                            })
                        }
                    }
                }
                clock.close(Stage::RingEnqueue, accept.untraced(), ctx);
            }
            Message::Feedback { label, chunk } => {
                let Some(engine) = engine else {
                    return Err(ServeError::Protocol {
                        reason: "this server has no adaptation engine; \
                                 Feedback is not accepted"
                            .into(),
                    });
                };
                let electrodes = handle.electrodes();
                if chunk.is_empty() || !chunk.len().is_multiple_of(electrodes) {
                    return Err(ServeError::Protocol {
                        reason: format!(
                            "feedback of {} samples does not divide into \
                             {electrodes}-electrode frames",
                            chunk.len()
                        ),
                    });
                }
                engine.submit(FeedbackSegment {
                    patient: handle.patient().to_string(),
                    label,
                    samples: chunk,
                })?;
            }
            Message::Error { reason } => return Err(ServeError::Remote { reason }),
            other => {
                return Err(ServeError::Protocol {
                    reason: format!("unexpected client message: {other:?}"),
                })
            }
        }
    }
}

/// Maps one session output to its wire frame: events/alarms as before,
/// applied hot-swaps as `ModelUpdated` — in stream order, so the client
/// knows exactly which events came from which model generation.
fn output_message(output: SessionOutput) -> Message {
    match output {
        SessionOutput::Event(event) => event_message(event),
        SessionOutput::ModelSwapped { generation, .. } => Message::ModelUpdated { generation },
    }
}

/// Streams the session's events/alarms/model-updates to the client,
/// sleeping on the session's shard progress signal between batches. On
/// `stop`, performs one final drain after the reader confirmed the
/// session is caught up.
fn pump_events(tap: &EventTap, writer: &SharedWriter, stop: &AtomicBool, shutdown: &AtomicBool) {
    loop {
        let seen = tap.progress_generation();
        for output in tap.take_outputs() {
            if send(writer, &output_message(output)).is_err() {
                return; // client went away; reader will notice EOF
            }
        }
        if stop.load(Ordering::Acquire) {
            // The reader set `stop` only after the session caught up (or
            // on error/shutdown): one final drain empties the outbox.
            for output in tap.take_outputs() {
                if send(writer, &output_message(output)).is_err() {
                    return;
                }
            }
            return;
        }
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        tap.wait_progress(seen, PROGRESS_WAIT);
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

struct ClientShared {
    events: Mutex<EventLog>,
    throttles: AtomicU64,
    model_updates: AtomicU64,
    /// Latest generation announced by a `ModelUpdated` frame, offset by
    /// +1 so 0 means "none seen yet".
    model_generation: AtomicU64,
    remote_error: Mutex<Option<String>>,
}

/// The producer half of an ingest connection: handshake, stream chunks,
/// collect the event stream.
///
/// A background thread consumes server messages continuously, so a
/// client pushing a long recording can never deadlock against a server
/// blocked on writing events back.
pub struct IngestClient {
    stream: TcpStream,
    session: u64,
    electrodes: usize,
    reader: Option<JoinHandle<Result<()>>>,
    shared: Arc<ClientShared>,
}

impl IngestClient {
    /// Connects to an [`IngestServer`], performs the `Hello` handshake
    /// for `patient`, and starts collecting server messages.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on connection failure, [`ServeError::Remote`]
    /// if the server rejected the handshake (unknown patient, electrode
    /// mismatch), or a wire error if the reply was malformed.
    pub fn connect(
        addr: impl ToSocketAddrs,
        patient: &str,
        electrodes: u32,
    ) -> Result<IngestClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut write_half = stream.try_clone()?;
        write_message(
            &mut write_half,
            &Message::Hello {
                patient: patient.to_string(),
                electrodes,
            },
        )?;
        let mut read_half = stream.try_clone()?;
        let session = match read_message(&mut read_half)? {
            Some(Message::Accepted { session, .. }) => session,
            Some(Message::Error { reason }) => return Err(ServeError::Remote { reason }),
            Some(other) => {
                return Err(ServeError::Protocol {
                    reason: format!("expected Accepted, got {other:?}"),
                })
            }
            None => {
                return Err(ServeError::Protocol {
                    reason: "server closed during handshake".into(),
                })
            }
        };
        let shared = Arc::new(ClientShared {
            events: Mutex::new(EventLog::default()),
            throttles: AtomicU64::new(0),
            model_updates: AtomicU64::new(0),
            model_generation: AtomicU64::new(0),
            remote_error: Mutex::new(None),
        });
        let reader = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("laelaps-ingest-client".into())
                .spawn(move || client_reader(read_half, &shared))
                .expect("failed to spawn client reader")
        };
        Ok(IngestClient {
            stream,
            session,
            electrodes: electrodes.max(1) as usize,
            reader: Some(reader),
            shared,
        })
    }

    /// The server-assigned session id from the handshake.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Sends one chunk of interleaved frame-major samples. A chunk too
    /// large for one wire frame is split at frame boundaries into
    /// several (the event stream is chunking-invariant, so this is
    /// invisible to results).
    ///
    /// If the server throttled, this blocks in the TCP send buffer —
    /// that *is* the backpressure; the chunk is never dropped.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the connection failed.
    pub fn send_chunk(&mut self, samples: &[f32]) -> Result<()> {
        // Largest sample count that fits MAX_PAYLOAD, floored to a whole
        // number of frames so every piece still divides by `electrodes`.
        let max_samples = (MAX_PAYLOAD / 4 / self.electrodes).max(1) * self.electrodes;
        for piece in samples.chunks(max_samples) {
            write_message(
                &mut self.stream,
                &Message::Frames {
                    chunk: piece.into(),
                },
            )?;
        }
        Ok(())
    }

    /// `Throttle` messages received so far (the server applying
    /// backpressure).
    pub fn throttles_seen(&self) -> u64 {
        self.shared.throttles.load(Ordering::Relaxed)
    }

    /// Sends one clinician-confirmed labeled segment for this session's
    /// patient. The server's adaptation engine retrains off the hot path
    /// and hot-swaps the session's detector at a frame boundary; the
    /// applied swap arrives as a `ModelUpdated` frame, observable via
    /// [`IngestClient::model_updates_seen`].
    ///
    /// The segment must fit one wire frame (≤ [`MAX_PAYLOAD`] bytes,
    /// ~4.2 M samples): unlike [`IngestClient::send_chunk`], splitting is
    /// not transparent here — each piece would train as an independent
    /// segment with its own encoder warm-up.
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] if the segment exceeds one wire frame,
    /// [`ServeError::Io`] if the connection failed.
    pub fn send_feedback(&mut self, label: Label, samples: &[f32]) -> Result<()> {
        write_message(
            &mut self.stream,
            &Message::Feedback {
                label,
                chunk: samples.into(),
            },
        )
    }

    /// `ModelUpdated` frames received so far (hot-swaps applied to this
    /// session).
    pub fn model_updates_seen(&self) -> u64 {
        self.shared.model_updates.load(Ordering::Relaxed)
    }

    /// Events (including alarms) received so far. Lets a producer wait
    /// until the server has caught up with everything it streamed — e.g.
    /// before sending feedback meant to take effect at this exact stream
    /// position.
    pub fn events_seen(&self) -> usize {
        self.shared.events.lock().expect("poisoned").len()
    }

    /// The latest model generation announced by the server, if any
    /// hot-swap reached this session yet.
    pub fn model_generation(&self) -> Option<u64> {
        match self.shared.model_generation.load(Ordering::Acquire) {
            0 => None,
            stored => Some(stored - 1),
        }
    }

    /// Sends `Close`, waits for the server to drain the session and close
    /// the stream, and returns every received event in stream order.
    ///
    /// # Errors
    ///
    /// [`ServeError::Remote`] if the server reported an error, or the
    /// wire/transport error that broke the stream.
    pub fn finish(mut self) -> Result<Vec<DetectorEvent>> {
        write_message(&mut self.stream, &Message::Close)?;
        let reader = self.reader.take().expect("finish runs once");
        match reader.join() {
            Ok(outcome) => outcome?,
            Err(_) => {
                return Err(ServeError::Protocol {
                    reason: "client reader thread panicked".into(),
                })
            }
        }
        if let Some(reason) = self.shared.remote_error.lock().expect("poisoned").take() {
            return Err(ServeError::Remote { reason });
        }
        let events = std::mem::take(&mut *self.shared.events.lock().expect("poisoned"));
        Ok(events.into_events())
    }
}

impl Drop for IngestClient {
    fn drop(&mut self) {
        // An abandoned client (no `finish`) must not leak its reader
        // thread: shut the socket so the reader sees EOF, then join.
        if let Some(reader) = self.reader.take() {
            let _ = self.stream.shutdown(std::net::Shutdown::Both);
            let _ = reader.join();
        }
    }
}

impl std::fmt::Debug for IngestClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestClient")
            .field("session", &self.session)
            .finish_non_exhaustive()
    }
}

/// Collects server messages until EOF: events and alarms in order,
/// throttle counts, or a remote error.
fn client_reader(mut stream: TcpStream, shared: &ClientShared) -> Result<()> {
    loop {
        match read_message(&mut stream)? {
            None => return Ok(()),
            Some(Message::Event { event }) | Some(Message::Alarm { event }) => {
                shared.events.lock().expect("poisoned").push(event);
            }
            Some(Message::Throttle { .. }) => {
                shared.throttles.fetch_add(1, Ordering::Relaxed);
            }
            Some(Message::ModelUpdated { generation }) => {
                shared
                    .model_generation
                    .store(generation.saturating_add(1), Ordering::Release);
                shared.model_updates.fetch_add(1, Ordering::Relaxed);
            }
            Some(Message::Error { reason }) => {
                *shared.remote_error.lock().expect("poisoned") = Some(reason);
                return Ok(());
            }
            Some(other) => {
                return Err(ServeError::Protocol {
                    reason: format!("unexpected server message: {other:?}"),
                })
            }
        }
    }
}
