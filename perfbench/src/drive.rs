//! Opens the workload's sessions and drives chunks through them from one
//! generator thread, observing every event as it appears.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use laelaps_core::DetectorEvent;
use laelaps_serve::net::{IngestClient, IngestServer};
use laelaps_serve::{
    DetectionService, EventTap, ModelRegistry, PushError, ServeConfig, SessionHandle, SessionStats,
    TelemetryConfig,
};

use crate::cohort::Cohort;
use crate::sys;
use crate::workload::{Arrival, Spec, Transport, CHUNK_FRAMES};

/// Longest the closed-loop generator sleeps on a session's progress
/// signal before re-checking every ring (workers of other shards do not
/// wake it).
const CLOSED_WAIT: Duration = Duration::from_millis(2);
/// Poll interval while a TCP session's window is full, and while waiting
/// for the sessions to deliver their tail.
const TCP_POLL: Duration = Duration::from_micros(200);
/// Chunks a TCP session may have in flight (sent, event not yet back): as
/// deep as its ring, so kernel socket buffers, whose size the kernel
/// tunes per run, do not add a queue of their own to the latency.
const TCP_WINDOW: usize = 64;

/// A span recorded by the benchmark around a call into the service.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: u32,
    /// `session << 32 | stream position` for per-chunk spans, else 0.
    pub chunk: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store; written out when the run ends.
pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
}

/// Id of the root span every drive span hangs from.
pub const ROOT_SPAN: u32 = 1;

impl SpanLog {
    pub fn new(origin: Instant) -> Self {
        SpanLog {
            origin,
            spans: Vec::new(),
        }
    }

    /// Records a child of the root span, from `start` to now.
    pub fn record(&mut self, name: &'static str, chunk: u64, start: Instant) {
        let end = Instant::now();
        let id = ROOT_SPAN + 1 + self.spans.len() as u32;
        self.spans.push(Span {
            name,
            id,
            parent: ROOT_SPAN,
            chunk,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
        });
    }

    fn root(&mut self, start: Instant, end: Instant) {
        self.spans.push(Span {
            name: "drive",
            id: ROOT_SPAN,
            parent: 0,
            chunk: 0,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
        });
    }

    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }
}

fn chunk_id(session: usize, position: usize) -> u64 {
    ((session as u64) << 32) | position as u64
}

/// What the generator saw of one session.
#[derive(Debug, Default)]
pub struct Lane {
    /// Chunks offered to the session (accepted or not).
    pub offered: usize,
    /// Stream positions of the chunks the service accepted, in order.
    pub accepted: Vec<usize>,
    /// Per accepted chunk: when it was due (open loop) or handed over
    /// (closed loop).
    pub due: Vec<Instant>,
    /// The session's event stream, in order.
    pub events: Vec<DetectorEvent>,
    /// `(events observed so far, when)`, one entry per observation that
    /// found new events.
    pub seen: Vec<(usize, Instant)>,
    /// The session's counters once it drained.
    pub stats: SessionStats,
    outstanding: bool,
}

impl Lane {
    fn accept(&mut self, position: usize, due: Instant) {
        self.accepted.push(position);
        self.due.push(due);
    }

    fn observe(&mut self, events: Vec<DetectorEvent>) {
        if !events.is_empty() {
            self.events.extend(events);
            self.seen.push((self.events.len(), Instant::now()));
        }
    }

    fn observe_count(&mut self, count: usize) {
        if count > self.seen.last().map_or(0, |s| s.0) {
            self.seen.push((count, Instant::now()));
        }
    }
}

enum Ends {
    Local(Vec<(SessionHandle, EventTap)>),
    Tcp {
        clients: Vec<IngestClient>,
        // Dropped before the service: joins every connection thread.
        server: Option<IngestServer>,
        dir: PathBuf,
    },
}

/// A service with the workload's sessions open, ready for the first push.
pub struct Opened {
    service: Arc<DetectionService>,
    ends: Ends,
    /// Mean time to open one session (TCP: connect + handshake), us.
    pub open_session_us: f64,
    /// Mean `ModelRegistry::save` time per model, ms (TCP only).
    pub save_ms: f64,
    /// Mean cold `ModelRegistry::load` time per model, ms (TCP only).
    pub load_ms: f64,
}

/// The service configuration every run uses: defaults, stage timing off,
/// one worker per CPU.
pub fn serve_config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        telemetry: TelemetryConfig { enabled: false },
        ..ServeConfig::default()
    }
}

fn patient_id(model: usize) -> String {
    format!("M{model:02}")
}

fn mean_us(total: Duration, n: usize) -> f64 {
    total.as_secs_f64() * 1e6 / n.max(1) as f64
}

/// Starts a service and opens every session of the workload. TCP
/// workloads first save the models to a registry under `work_dir`, load
/// them back cold, and connect one client per session.
pub fn open(
    spec: &Spec,
    cohort: &Cohort,
    workers: usize,
    work_dir: &Path,
    tag: usize,
) -> Result<Opened, String> {
    let service = Arc::new(DetectionService::new(serve_config(workers)));
    match spec.transport {
        Transport::InProcess => {
            let mut ends = Vec::with_capacity(spec.sessions);
            let start = Instant::now();
            for s in 0..spec.sessions {
                let (model, _) = spec.stream_of(s);
                let handle = service
                    .open_session(&patient_id(model), &cohort.models[model])
                    .map_err(|e| format!("session {s} failed to open: {e}"))?;
                let tap = handle.tap();
                ends.push((handle, tap));
            }
            Ok(Opened {
                service,
                ends: Ends::Local(ends),
                open_session_us: mean_us(start.elapsed(), spec.sessions),
                save_ms: 0.0,
                load_ms: 0.0,
            })
        }
        Transport::Tcp => {
            let dir = work_dir.join(format!("registry-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let written = ModelRegistry::open(&dir).map_err(|e| format!("registry: {e}"))?;
            let start = Instant::now();
            for (m, model) in cohort.models.iter().enumerate() {
                written
                    .save(&patient_id(m), model)
                    .map_err(|e| format!("model {m} failed to save: {e}"))?;
            }
            let save = start.elapsed();
            // A fresh registry has an empty cache: these loads hit disk.
            let registry =
                Arc::new(ModelRegistry::open(&dir).map_err(|e| format!("registry: {e}"))?);
            let start = Instant::now();
            for m in 0..cohort.models.len() {
                registry
                    .load(&patient_id(m))
                    .map_err(|e| format!("model {m} failed to load: {e}"))?;
            }
            let load = start.elapsed();
            let server =
                IngestServer::bind("127.0.0.1:0", Arc::clone(&service), Arc::clone(&registry))
                    .map_err(|e| format!("ingest server failed to bind: {e}"))?;
            let start = Instant::now();
            let mut clients = Vec::with_capacity(spec.sessions);
            for s in 0..spec.sessions {
                let (model, _) = spec.stream_of(s);
                let client = IngestClient::connect(
                    server.local_addr(),
                    &patient_id(model),
                    cohort.electrodes as u32,
                )
                .map_err(|e| format!("client {s} failed to connect: {e}"))?;
                clients.push(client);
            }
            let models = cohort.models.len();
            Ok(Opened {
                service,
                ends: Ends::Tcp {
                    clients,
                    server: Some(server),
                    dir,
                },
                open_session_us: mean_us(start.elapsed(), spec.sessions),
                save_ms: mean_us(save, models) / 1e3,
                load_ms: mean_us(load, models) / 1e3,
            })
        }
    }
}

impl Drop for Opened {
    fn drop(&mut self) {
        match &mut self.ends {
            Ends::Local(ends) => {
                for (handle, _) in ends.iter_mut() {
                    handle.close();
                }
            }
            Ends::Tcp {
                clients,
                server,
                dir,
            } => {
                clients.clear();
                server.take();
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }
}

/// Service-wide progress sampled at a slice boundary of the measured
/// phase.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub at: Instant,
    pub frames: u64,
    pub cpu: Duration,
}

/// Rough length of one slice of the measured phase. Per-slice rates in
/// the report show how steady the machine was during the run.
const SLICE: f64 = 1.0;

/// The outcome of one drive.
pub struct Drive {
    pub lanes: Vec<Lane>,
    /// Length of the measured phase.
    pub wall: Duration,
    /// Frames processed during the measured phase.
    pub frames: u64,
    /// Process CPU time during the measured phase.
    pub cpu: Duration,
    /// Samples at the start, every slice boundary and the end of the
    /// measured phase.
    pub samples: Vec<Sample>,
    /// Resident memory at the end of the measured phase, sessions open.
    pub rss_mb: f64,
    /// Open loop: how late each arrival was pushed.
    pub lags: Vec<Duration>,
    /// Per-session interval of the open-loop schedule.
    pub session_interval: Option<Duration>,
    /// Mean time between the generator's observation sweeps in the
    /// measured phase: the resolution of the latency figures.
    pub observe_interval: Duration,
    pub push_attempts: u64,
    pub push_full: u64,
    /// Time spent in refused (`Full`) push attempts (traced drives only).
    pub push_full_ns: u64,
    pub throttles: u64,
    pub spans: Option<SpanLog>,
}

struct Gen<'a> {
    spec: &'a Spec,
    cohort: &'a Cohort,
    service: &'a DetectionService,
    /// Slice boundaries still ahead of the generator.
    boundaries: std::vec::IntoIter<Instant>,
    next_boundary: Option<Instant>,
    samples: Vec<Sample>,
    lanes: Vec<Lane>,
    spans: Option<SpanLog>,
    attempts: u64,
    full: u64,
    full_ns: u64,
    /// Observation sweeps during the measured phase.
    polls: u64,
    lags: Vec<Duration>,
}

/// Drives `opened` for `seconds`, then lets every session drain.
/// `traced` records a span around every push, send and flush.
pub fn drive(
    spec: &Spec,
    cohort: &Cohort,
    opened: &mut Opened,
    seconds: f64,
    traced: bool,
) -> Result<Drive, String> {
    let service = Arc::clone(&opened.service);
    let slices = (seconds / SLICE).round().max(1.0) as u32;
    let start = Instant::now();
    let phase = Duration::from_secs_f64(seconds);
    let deadline = start + phase;
    let mut boundaries = (1..slices)
        .map(|i| start + phase * i / slices)
        .collect::<Vec<_>>()
        .into_iter();
    let mut gen = Gen {
        spec,
        cohort,
        service: &service,
        next_boundary: boundaries.next(),
        boundaries,
        samples: Vec::with_capacity(slices as usize + 1),
        lanes: (0..spec.sessions).map(|_| Lane::default()).collect(),
        spans: traced.then(|| SpanLog::new(start)),
        attempts: 0,
        full: 0,
        full_ns: 0,
        polls: 0,
        lags: Vec::new(),
    };
    gen.sample();
    let mut session_interval = None;
    match (&mut opened.ends, spec.arrival) {
        (Ends::Local(ends), Arrival::Closed) => gen.closed_local(ends, deadline)?,
        (Ends::Local(ends), Arrival::Open { frames_per_s }) => {
            let interval = Duration::from_secs_f64(CHUNK_FRAMES as f64 / frames_per_s);
            session_interval = Some(interval * spec.sessions as u32);
            gen.open_local(ends, start, deadline, interval);
        }
        (Ends::Tcp { clients, .. }, Arrival::Closed) => gen.closed_tcp(clients, deadline)?,
        (Ends::Tcp { .. }, Arrival::Open { .. }) => {
            return Err("open-loop arrival over TCP is not supported".into())
        }
    }
    let last = gen.sample();
    let first = gen.samples[0];
    let end = last.at;
    let rss_mb = sys::rss_mb();
    if let Some(log) = gen.spans.as_mut() {
        // Traced drives time how long the service takes to catch up.
        let t = Instant::now();
        service.flush();
        log.record("serve.flush", 0, t);
    }
    let mut throttles = 0;
    match &mut opened.ends {
        Ends::Local(ends) => gen.drain_local(ends),
        Ends::Tcp {
            clients, server, ..
        } => {
            gen.drain_tcp(clients, &service)?;
            throttles = server.as_ref().map_or(0, IngestServer::throttles_sent);
        }
    }
    if let Some(log) = gen.spans.as_mut() {
        log.root(start, end);
    }
    Ok(Drive {
        lanes: gen.lanes,
        wall: end - first.at,
        frames: last.frames - first.frames,
        cpu: last.cpu - first.cpu,
        samples: gen.samples,
        rss_mb,
        lags: gen.lags,
        session_interval,
        observe_interval: (end - start) / gen.polls.max(1) as u32,
        push_attempts: gen.attempts,
        push_full: gen.full,
        push_full_ns: gen.full_ns,
        throttles,
        spans: gen.spans,
    })
}

impl Gen<'_> {
    fn sample(&mut self) -> Sample {
        let sample = Sample {
            at: Instant::now(),
            frames: self.service.stats().totals.frames_processed,
            cpu: sys::process_cpu(),
        };
        self.samples.push(sample);
        sample
    }

    /// Samples progress once the next slice boundary has passed.
    fn tick(&mut self) {
        if self.next_boundary.is_some_and(|b| Instant::now() >= b) {
            self.sample();
            self.next_boundary = self.boundaries.next();
        }
    }

    /// Closed loop in process: visit the sessions round-robin, push the
    /// next chunk where the ring takes it, and when no ring did, sleep on
    /// a full session's progress signal instead of spinning.
    fn closed_local(
        &mut self,
        ends: &mut [(SessionHandle, EventTap)],
        deadline: Instant,
    ) -> Result<(), String> {
        let mut pending: Vec<Option<Box<[f32]>>> = (0..ends.len()).map(|_| None).collect();
        while Instant::now() < deadline {
            let mut pushed = false;
            let mut blocked = None;
            self.polls += 1;
            self.tick();
            for (s, (handle, tap)) in ends.iter_mut().enumerate() {
                let lane = &mut self.lanes[s];
                lane.observe(tap.take_events());
                let position = lane.offered;
                let chunk = pending[s]
                    .take()
                    .unwrap_or_else(|| self.cohort.chunk(self.spec, s, position).as_ref().into());
                let t0 = Instant::now();
                let outcome = handle.try_push_chunk(chunk);
                self.attempts += 1;
                match outcome {
                    Ok(()) => {
                        if let Some(log) = self.spans.as_mut() {
                            log.record("serve.push", chunk_id(s, position), t0);
                        }
                        lane.accept(position, t0);
                        lane.offered += 1;
                        pushed = true;
                    }
                    Err(PushError::Full(back)) => {
                        // Refused attempts are many and cheap: summed,
                        // not logged one span each.
                        if self.spans.is_some() {
                            self.full_ns += t0.elapsed().as_nanos() as u64;
                        }
                        self.full += 1;
                        pending[s] = Some(back);
                        blocked.get_or_insert(s);
                    }
                    Err(e) => return Err(format!("push to session {s} failed: {e}")),
                }
            }
            if let (false, Some(s)) = (pushed, blocked) {
                let (handle, tap) = &ends[s];
                let seen = tap.progress_generation();
                if handle.queued_chunks() >= handle.queue_capacity() {
                    tap.wait_progress(seen, CLOSED_WAIT);
                }
            }
        }
        Ok(())
    }

    /// Open loop in process: arrival `k` is due at `start + k * interval`
    /// and goes to session `k % sessions`. Between arrivals the generator
    /// sleeps on the progress signal of the oldest session with an
    /// unobserved chunk, so events are stamped when they appear.
    fn open_local(
        &mut self,
        ends: &mut [(SessionHandle, EventTap)],
        start: Instant,
        deadline: Instant,
        interval: Duration,
    ) {
        let sessions = ends.len();
        let mut outstanding: Vec<usize> = Vec::new();
        for k in 0u32.. {
            let due = start + interval * k;
            if due >= deadline {
                break;
            }
            loop {
                let front = outstanding.first().copied();
                let seen = front.map(|s| ends[s].1.progress_generation());
                self.observe_outstanding(ends, &mut outstanding);
                let now = Instant::now();
                if now >= due {
                    break;
                }
                if outstanding.first().copied() != front {
                    continue;
                }
                match (front, seen) {
                    (Some(s), Some(seen)) => {
                        ends[s].1.wait_progress(seen, due - now);
                    }
                    _ => std::thread::sleep(due - now),
                }
            }
            self.tick();
            let s = k as usize % sessions;
            let lane = &mut self.lanes[s];
            let position = lane.offered;
            let chunk = self.cohort.chunk(self.spec, s, position);
            let t0 = Instant::now();
            self.lags.push(t0 - due);
            let accepted = ends[s].0.push_chunk_lossy(chunk);
            if let Some(log) = self.spans.as_mut() {
                log.record("serve.push", chunk_id(s, position), t0);
            }
            self.attempts += 1;
            lane.offered += 1;
            if accepted {
                lane.accept(position, due);
                if !lane.outstanding {
                    lane.outstanding = true;
                    outstanding.push(s);
                }
            } else {
                self.full += 1;
            }
        }
    }

    fn observe_outstanding(
        &mut self,
        ends: &[(SessionHandle, EventTap)],
        outstanding: &mut Vec<usize>,
    ) {
        self.polls += 1;
        outstanding.retain(|&s| {
            let tap = &ends[s].1;
            // Caught up *before* taking: the worker publishes events
            // before it counts their frames processed.
            let caught_up = tap.is_caught_up();
            let lane = &mut self.lanes[s];
            lane.observe(tap.take_events());
            lane.outstanding = !caught_up;
            !caught_up
        });
    }

    /// After the measured phase: observe until every session caught up,
    /// then record each session's counters.
    fn drain_local(&mut self, ends: &[(SessionHandle, EventTap)]) {
        loop {
            let mut behind = None;
            for (s, (_, tap)) in ends.iter().enumerate() {
                let caught_up = tap.is_caught_up();
                self.lanes[s].observe(tap.take_events());
                if !caught_up {
                    behind.get_or_insert(s);
                }
            }
            let Some(s) = behind else { break };
            let tap = &ends[s].1;
            let seen = tap.progress_generation();
            if !tap.is_caught_up() {
                tap.wait_progress(seen, CLOSED_WAIT);
            }
        }
        for (lane, (_, tap)) in self.lanes.iter_mut().zip(ends) {
            lane.stats = tap.stats();
        }
    }

    /// Closed loop over TCP: send round-robin, each session at most
    /// [`TCP_WINDOW`] chunks ahead of the events it has received back.
    fn closed_tcp(
        &mut self,
        clients: &mut [IngestClient],
        deadline: Instant,
    ) -> Result<(), String> {
        while Instant::now() < deadline {
            self.tick();
            let mut sent = false;
            for s in 0..clients.len() {
                let lane = &mut self.lanes[s];
                if lane.accepted.len() >= lane.seen.last().map_or(0, |o| o.0) + TCP_WINDOW {
                    continue;
                }
                sent = true;
                let position = lane.offered;
                let chunk = self.cohort.chunk(self.spec, s, position);
                let t0 = Instant::now();
                clients[s]
                    .send_chunk(chunk)
                    .map_err(|e| format!("send to session {s} failed: {e}"))?;
                if let Some(log) = self.spans.as_mut() {
                    log.record("net.send", chunk_id(s, position), t0);
                }
                self.attempts += 1;
                lane.offered += 1;
                lane.accept(position, Instant::now());
                self.polls += 1;
                for (lane, client) in self.lanes.iter_mut().zip(clients.iter()) {
                    lane.observe_count(client.events_seen());
                }
            }
            if !sent {
                // Every session is a full window ahead: the client readers
                // offer no signal to sleep on, so poll.
                std::thread::sleep(TCP_POLL);
                self.polls += 1;
                for (lane, client) in self.lanes.iter_mut().zip(clients.iter()) {
                    lane.observe_count(client.events_seen());
                }
            }
        }
        Ok(())
    }

    /// After the measured phase: wait until the service processed every
    /// frame sent and every event reached its client, then close the
    /// connections and collect the streams.
    fn drain_tcp(
        &mut self,
        clients: &mut Vec<IngestClient>,
        service: &DetectionService,
    ) -> Result<(), String> {
        let sent: u64 = self
            .lanes
            .iter()
            .map(|l| (l.accepted.len() * CHUNK_FRAMES) as u64)
            .sum();
        let per_session = loop {
            for (lane, client) in self.lanes.iter_mut().zip(clients.iter()) {
                lane.observe_count(client.events_seen());
            }
            let stats = service.stats();
            let seen: u64 = self
                .lanes
                .iter()
                .map(|l| l.seen.last().map_or(0, |s| s.0) as u64)
                .sum();
            let t = &stats.totals;
            if t.frames_processed + t.frames_discarded >= sent && seen >= t.events_out {
                break stats.per_session;
            }
            std::thread::sleep(TCP_POLL);
        };
        for (s, client) in clients.drain(..).enumerate() {
            let id = client.session();
            let lane = &mut self.lanes[s];
            lane.stats = per_session
                .iter()
                .find(|e| e.session == id)
                .map(|e| e.stats)
                .ok_or_else(|| format!("session {s} missing from the service stats"))?;
            lane.events = client
                .finish()
                .map_err(|e| format!("session {s} failed to finish: {e}"))?;
        }
        Ok(())
    }
}
