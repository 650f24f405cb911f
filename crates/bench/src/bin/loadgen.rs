//! Cohort load harness for the streaming detection service.
//!
//! Trains [`MODELS`] Laelaps models on [`laelaps_ieeg::synth`] patients,
//! fans them out across hundreds of in-process sessions and drives
//! pre-generated iEEG chunks through the service, closed-loop (as fast
//! as backpressure allows) or open-loop (paced at twice real time,
//! overload drops counted). It asserts the frame accounting and prints
//! the run's throughput. The repository benchmark (`perfbench/`,
//! `BENCHMARK.json`) measures performance; loadgen keeps what nothing
//! else produces:
//!
//! ```text
//! cargo run --release -p laelaps-bench --bin loadgen -- \
//!     [--sessions 256] [--seconds 10] [--arrival closed|open]
//!     [--health] [--per-session] [--prom-out health.prom]
//!     [--trace-out trace.json] [--overhead-check]
//! ```
//!
//! - `--prom-out PATH` writes the closing stats, health and per-session
//!   view as a Prometheus scrape ([`prom`], from the one catalogue
//!   [`laelaps_serve::metrics::scrape`]); `--health` and `--per-session`
//!   turn those layers on for the run.
//! - `--trace-out PATH` turns per-chunk causal tracing on and exports
//!   the retained spans as Chrome trace-event JSON, for Perfetto.
//! - `--overhead-check` re-runs the closed-loop workload in five
//!   interleaved arms (telemetry off; telemetry on, alone or with
//!   tracing, health or the per-session layer) over [`REPEATS`] rounds,
//!   and asserts on each arm's median throughput: telemetry within 2%
//!   of off, and each added layer within a further 3% of telemetry-only.

use std::sync::Arc;
use std::time::{Duration, Instant};

use laelaps_bench::{args_or_exit, prom};
use laelaps_core::PatientModel;
use laelaps_eval::parallel::{default_threads, parallel_map};
use laelaps_eval::runner::{train_laelaps, PreparedPatient};
use laelaps_ieeg::synth::demo_patient;
use laelaps_ieeg::Recording;
use laelaps_serve::metrics::scrape;
use laelaps_serve::{
    DetectionService, HealthConfig, HealthSnapshot, PushError, ServeConfig, ServiceStats,
    SessionObsConfig, SessionObsSnapshot, TelemetryConfig, TraceConfig, TraceSnapshot,
};

const FS: usize = 512;
const CHUNK_FRAMES: usize = 256; // 0.5 s of signal per push
/// Trained models the sessions share.
const MODELS: usize = 2;
/// Hypervector dimension: the paper's TX2 deployment point.
const DIM: usize = 1000;
/// Synthetic recording length multiplier for the training patients.
const SCALE: f64 = 8.0;
/// Open-loop arrival rate, in multiples of real time.
const OPEN_RATE: f64 = 2.0;
/// Interleaved rounds of the overhead check; each arm's median decides.
const REPEATS: usize = 3;

const USAGE: &str = "loadgen [--sessions N] [--seconds S] [--arrival closed|open] \
                     [--health] [--per-session] [--prom-out PATH] [--trace-out PATH] \
                     [--overhead-check]";

/// The workload: a pool of trained models and, per model, the held-out
/// test signal pre-cut into ring-sized chunks. Sessions share these
/// read-only across threads, so a 1000-session run still trains (and
/// synthesizes) only [`MODELS`] patients.
struct Workload {
    models: Vec<Arc<PatientModel>>,
    chunks: Vec<Vec<Arc<[f32]>>>,
}

impl Workload {
    fn prepare(pool: usize, threads: usize) -> Workload {
        let indices: Vec<usize> = (0..pool).collect();
        let trained: Vec<(PatientModel, Vec<Vec<f32>>)> = parallel_map(&indices, threads, |&i| {
            let mut profile = demo_patient(9000 + i as u64);
            profile.time_scale = SCALE;
            let prep = PreparedPatient::new(&profile).expect("synthesis succeeds");
            let (model, replay) = train_laelaps(&prep, DIM).expect("training succeeds");
            let tr = laelaps_core::tuning::tune_tr(&replay, laelaps_core::tuning::DEFAULT_ALPHA);
            (
                model.with_tr(tr).expect("tuned tr is valid"),
                prep.test_signal().to_vec(),
            )
        });
        let mut models = Vec::with_capacity(pool);
        let mut chunks = Vec::with_capacity(pool);
        for (model, signal) in trained {
            let recording = Recording::from_channels(FS as u32, signal).expect("valid recording");
            let mut cursor = recording.frames();
            let mut list = Vec::new();
            let mut staging = Vec::new();
            loop {
                staging.clear();
                if cursor.read_chunk(CHUNK_FRAMES, &mut staging) < CHUNK_FRAMES {
                    break; // drop the ragged tail so every push is uniform
                }
                list.push(Arc::<[f32]>::from(staging.as_slice()));
            }
            assert!(!list.is_empty(), "test signal shorter than one chunk");
            models.push(Arc::new(model));
            chunks.push(list);
        }
        Workload { models, chunks }
    }

    /// Chunk for session `session` at stream position `tick` — sessions
    /// of one model start at staggered offsets so a cohort tick does not
    /// classify 256 identical windows.
    fn chunk(&self, session: usize, tick: usize) -> &Arc<[f32]> {
        let pool = self.chunks[session % self.chunks.len()].as_slice();
        &pool[(session / self.chunks.len() + tick) % pool.len()]
    }

    fn model(&self, session: usize) -> &Arc<PatientModel> {
        &self.models[session % self.models.len()]
    }
}

#[derive(Clone, Copy)]
struct LoadSpec {
    sessions: usize,
    chunks_per_session: usize,
    /// `None` = closed loop; `Some(r)` = open loop at `r`× realtime.
    open_rate: Option<f64>,
    telemetry: bool,
    /// Per-chunk causal tracing (the flight recorder) on top of the
    /// stage histograms.
    trace: bool,
    /// SLO burn-rate evaluation (the health engine) with its default
    /// rule set.
    health: bool,
    /// Per-session observability (accounting cells + heavy-hitter
    /// sketches) with its default top-K.
    per_session: bool,
    threads: usize,
}

struct LoadReport {
    wall: Duration,
    stats: ServiceStats,
    trace: TraceSnapshot,
    health: HealthSnapshot,
    session_obs: SessionObsSnapshot,
}

impl LoadReport {
    fn frames_per_sec(&self) -> f64 {
        self.stats.totals.frames_processed as f64 / self.wall.as_secs_f64()
    }
}

fn serve_config(spec: &LoadSpec) -> ServeConfig {
    ServeConfig {
        workers: spec.threads,
        telemetry: TelemetryConfig {
            enabled: spec.telemetry,
        },
        trace: spec.trace.then(TraceConfig::sampled).unwrap_or_default(),
        health: spec.health.then(HealthConfig::enabled).unwrap_or_default(),
        sessions: spec
            .per_session
            .then(SessionObsConfig::enabled)
            .unwrap_or_default(),
        ..ServeConfig::default()
    }
}

/// Drives the workload through an in-process service: driver threads own
/// disjoint session slices and walk them tick by tick.
fn run_in_process(spec: &LoadSpec, workload: &Workload) -> LoadReport {
    let service = DetectionService::new(serve_config(spec));
    let handles: Vec<_> = (0..spec.sessions)
        .map(|i| {
            service
                .open_session(&format!("L{i:04}"), workload.model(i))
                .expect("session opens")
        })
        .collect();

    let drivers = spec.threads.clamp(1, spec.sessions);
    let start = Instant::now();
    let session_obs = std::thread::scope(|scope| {
        let mut slots: Vec<Vec<(usize, _)>> = (0..drivers).map(|_| Vec::new()).collect();
        for (i, handle) in handles.into_iter().enumerate() {
            slots[i % drivers].push((i, handle));
        }
        let mut workers = Vec::new();
        for mut owned in slots {
            workers.push(scope.spawn(move || {
                let interval = spec
                    .open_rate
                    .map(|r| Duration::from_secs_f64(CHUNK_FRAMES as f64 / FS as f64 / r));
                for tick in 0..spec.chunks_per_session {
                    if let Some(interval) = interval {
                        // Open loop: absolute deadlines so pacing does
                        // not drift; a slow service eats the slack and
                        // then drops, which is the point.
                        let deadline = start + interval.mul_f64(tick as f64);
                        while Instant::now() < deadline {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                    }
                    for (session, handle) in &mut owned {
                        let samples = workload.chunk(*session, tick);
                        if interval.is_some() {
                            handle.push_chunk_lossy(samples);
                        } else {
                            let mut pending: Box<[f32]> = samples.as_ref().into();
                            loop {
                                match handle.try_push_chunk(pending) {
                                    Ok(()) => break,
                                    Err(PushError::Full(back)) => {
                                        pending = back;
                                        std::thread::yield_now();
                                    }
                                    Err(e) => panic!("push failed: {e}"),
                                }
                            }
                        }
                    }
                }
                owned
            }));
        }
        // Drain, then sample the per-session view while the cohort is
        // still registered — retired sessions drop out of the merged
        // heavy-hitter ranking, so a post-close snapshot would be empty.
        let mut owned: Vec<_> = workers
            .into_iter()
            .flat_map(|w| w.join().expect("driver thread panicked"))
            .collect();
        service.flush();
        let session_obs = service.session_obs_snapshot(None);
        for (_, handle) in &mut owned {
            handle.close();
        }
        session_obs
    });
    service.flush();
    let wall = start.elapsed();
    LoadReport {
        wall,
        stats: service.stats(),
        trace: service.trace_snapshot(),
        health: service.health_snapshot(),
        session_obs,
    }
}

/// Median of an arm's [`REPEATS`] throughput samples — robust to the
/// occasional slow outlier run that best-of or mean would mis-weight.
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let args = args_or_exit(
        USAGE,
        &[
            "--sessions",
            "--seconds",
            "--arrival",
            "--prom-out",
            "--trace-out",
        ],
        &["--overhead-check", "--health", "--per-session"],
    )
    .flags_only();
    let sessions = args.parsed("--sessions", 256usize).max(1);
    let pool = MODELS.min(sessions);
    let seconds = args.parsed("--seconds", 10.0f64);
    let arrival = args.value("--arrival").unwrap_or("closed");
    let open_rate = match arrival {
        "closed" => None,
        "open" => Some(OPEN_RATE),
        other => args.usage_error(&format!("--arrival takes closed|open, got {other:?}")),
    };
    let trace_out = args.value("--trace-out");
    let chunks_per_session = ((seconds * FS as f64 / CHUNK_FRAMES as f64).ceil() as usize).max(1);
    let threads = default_threads().clamp(1, 16);

    eprintln!(
        "loadgen: {sessions} sessions over {pool} models (d = {DIM}), \
         {chunks_per_session} chunks/session, {arrival} arrival"
    );
    let workload = Workload::prepare(pool, threads);

    let spec = LoadSpec {
        sessions,
        chunks_per_session,
        open_rate,
        telemetry: true,
        trace: trace_out.is_some(),
        health: args.present("--health"),
        per_session: args.present("--per-session"),
        threads,
    };
    eprintln!("loadgen: driving the cohort ...");
    let report = run_in_process(&spec, &workload);
    let totals = &report.stats.totals;
    let signal_seconds = (totals.frames_in + totals.frames_dropped) as f64 * (1.0 / FS as f64);
    assert_eq!(
        totals.frames_in,
        totals.frames_processed + totals.frames_discarded,
        "after flush every accepted frame is processed or discarded"
    );
    eprintln!(
        "loadgen: {:.2} signal-hours in {:.2}s wall ({:.0}x realtime), \
         {:.0} frames/s sustained, {} dropped, {} events, {} alarms",
        signal_seconds / 3600.0,
        report.wall.as_secs_f64(),
        signal_seconds / report.wall.as_secs_f64(),
        report.frames_per_sec(),
        totals.frames_dropped,
        totals.events_out,
        totals.alarms_out
    );

    if args.present("--overhead-check") {
        overhead_check(&spec, &workload);
    }

    if let Some(path) = args.value("--prom-out") {
        let families = scrape(&report.stats, &report.health, &report.session_obs);
        std::fs::write(path, prom::render(&families)).expect("prom artifact writes");
        eprintln!("loadgen: wrote {path}");
    }

    if let Some(path) = trace_out {
        let spans = laelaps_bench::chrome::snapshot_spans(&report.trace);
        let trace_doc = laelaps_bench::chrome::trace_document(&spans);
        std::fs::write(path, trace_doc.render_pretty()).expect("trace artifact writes");
        eprintln!(
            "loadgen: wrote {path} ({} spans, load it in https://ui.perfetto.dev)",
            spans.len()
        );
    }
}

/// Observability overhead, closed loop: five arms, one run each per
/// round so thermal / scheduler drift hits every arm equally; the median
/// per arm keeps one slow outlier run from deciding the comparison.
fn overhead_check(spec: &LoadSpec, workload: &Workload) {
    // Closed loop; each arm is (telemetry, trace, health, per-session).
    let arm = |(telemetry, trace, health, per_session)| LoadSpec {
        open_rate: None,
        telemetry,
        trace,
        health,
        per_session,
        ..*spec
    };
    let arms = [
        (false, false, false, false),
        (true, false, false, false),
        (true, true, false, false),
        (true, false, true, false),
        (true, false, false, true),
    ]
    .map(arm);
    eprintln!("loadgen: overhead check, {REPEATS} interleaved repeats per arm ...");
    let mut runs = vec![Vec::with_capacity(REPEATS); arms.len()];
    for _ in 0..REPEATS {
        for (arm, samples) in arms.iter().zip(&mut runs) {
            samples.push(run_in_process(arm, workload).frames_per_sec());
        }
    }
    let [off, on, traced, healthy, per_session_on] =
        std::array::from_fn(|arm| median(&mut runs[arm]));
    let telemetry_pct = (off - on) / off * 100.0;
    let trace_pct = (on - traced) / on * 100.0;
    let health_pct = (on - healthy) / on * 100.0;
    let session_pct = (on - per_session_on) / on * 100.0;
    eprintln!(
        "loadgen: median frames/s — telemetry off {off:.0}, \
         on {on:.0} ({telemetry_pct:+.2}%), \
         + tracing {traced:.0} ({trace_pct:+.2}% over telemetry), \
         + health {healthy:.0} ({health_pct:+.2}% over telemetry), \
         + sessions {per_session_on:.0} ({session_pct:+.2}% over telemetry)"
    );
    for (layer, pct, budget) in [
        ("telemetry", telemetry_pct, 2.0),
        ("tracing", trace_pct, 3.0),
        ("health", health_pct, 3.0),
        ("per-session", session_pct, 3.0),
    ] {
        assert!(
            pct <= budget,
            "{layer} overhead {pct:.2}% exceeds the {budget}% budget"
        );
    }
}
