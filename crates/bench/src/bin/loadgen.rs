//! Cohort load harness for the streaming detection service.
//!
//! Trains a small pool of Laelaps models on [`laelaps_ieeg::synth`]
//! patients, fans them out across hundreds–thousands of concurrent
//! sessions, drives pre-generated iEEG chunks through the service —
//! closed-loop (push as fast as backpressure allows) or open-loop
//! (paced arrival at a realtime multiple, overload drops counted) —
//! and emits a machine-readable `BENCH_serve.json` with sustained
//! throughput, the realtime multiple, and per-stage p50/p99/p999
//! latency from the service's telemetry histograms.
//!
//! ```text
//! cargo run --release -p laelaps-bench --bin loadgen -- \
//!     [--sessions 256] [--models 4] [--dim 1000] [--seconds 10]
//!     [--arrival closed|open] [--rate 4] [--mode in-process|tcp]
//!     [--overhead-check] [--repeats 3]
//!     [--health] [--per-session] [--prom-out health.prom]
//!     [--trace-out trace.json] [--out BENCH_serve.json]
//! ```
//!
//! `--mode tcp` runs the same workload over loopback TCP through
//! [`laelaps_serve::net::IngestServer`], one [`IngestClient`] per
//! session (two OS threads each — keep the session count moderate).
//!
//! `--trace-out PATH` enables per-chunk causal tracing
//! ([`laelaps_serve::TraceConfig`]) for the main run and exports the
//! flight recorder's retained spans as Chrome trace-event JSON —
//! loadable in Perfetto — alongside the usual artifact.
//!
//! `--health` turns on the SLO burn-rate engine
//! ([`laelaps_serve::HealthConfig::enabled`]) for the main run; the
//! final health snapshot lands in the artifact's `"health"` object
//! (always present — `"enabled": false` when the flag is off).
//! `--per-session` turns on the per-session observability layer
//! ([`laelaps_serve::SessionObsConfig::enabled`]) for the main run;
//! the closing heavy-hitter view lands in the artifact's
//! `"session_obs"` object (always present — `"enabled": false` when
//! the flag is off). `--prom-out PATH` additionally writes the run's
//! closing stats + health + per-session view as a Prometheus
//! text-format scrape ([`prom`]).
//!
//! `--overhead-check` additionally re-runs the closed-loop in-process
//! workload in five interleaved arms — telemetry off, telemetry on,
//! telemetry + tracing, telemetry + health, telemetry + per-session —
//! one run per arm per `--repeats` round, and records the median
//! throughput of each arm. The harness asserts telemetry stays within
//! 2% of off, and tracing, health, and the per-session layer each
//! within a further 3% of telemetry-only.
//!
//! The emitted `BENCH_serve.json` keeps the `laelaps-bench/serve-load/v1`
//! schema; the per-shard `"shards"` gauges and the `"trace"`,
//! `"health"`, and `"session_obs"` accounting objects are additive
//! fields.

use std::sync::Arc;
use std::time::{Duration, Instant};

use laelaps_bench::json::Json;
use laelaps_bench::{arg_present, arg_value, prom, session_obs_json};
use laelaps_core::PatientModel;
use laelaps_eval::parallel::{default_threads, parallel_map};
use laelaps_eval::runner::{train_laelaps, PreparedPatient};
use laelaps_ieeg::synth::demo_patient;
use laelaps_ieeg::Recording;
use laelaps_serve::net::{IngestClient, IngestServer};
use laelaps_serve::wire::WireStats;
use laelaps_serve::{
    DetectionService, HealthConfig, HealthSnapshot, ModelRegistry, PushError, ServeConfig,
    ServiceStats, SessionObsConfig, SessionObsSnapshot, TelemetryConfig, TraceConfig,
    TraceSnapshot,
};

const FS: usize = 512;
const CHUNK_FRAMES: usize = 256; // 0.5 s of signal per push

fn usize_arg(args: &[String], flag: &str, default: usize) -> usize {
    arg_value(args, flag)
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{flag} takes a number"))
        })
        .unwrap_or(default)
}

fn f64_arg(args: &[String], flag: &str, default: f64) -> f64 {
    arg_value(args, flag)
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{flag} takes a number"))
        })
        .unwrap_or(default)
}

/// The workload: a pool of trained models and, per model, the held-out
/// test signal pre-cut into ring-sized chunks. Sessions share these
/// read-only across threads, so a 1000-session run still trains (and
/// synthesizes) only `--models` patients.
struct Workload {
    models: Vec<Arc<PatientModel>>,
    chunks: Vec<Vec<Arc<[f32]>>>,
    electrodes: usize,
}

impl Workload {
    fn prepare(pool: usize, dim: usize, scale: f64, threads: usize) -> Workload {
        let indices: Vec<usize> = (0..pool).collect();
        let trained: Vec<(PatientModel, Vec<Vec<f32>>)> = parallel_map(&indices, threads, |&i| {
            let mut profile = demo_patient(9000 + i as u64);
            profile.time_scale = scale;
            let prep = PreparedPatient::new(&profile).expect("synthesis succeeds");
            let (model, replay) = train_laelaps(&prep, dim).expect("training succeeds");
            let tr = laelaps_core::tuning::tune_tr(&replay, laelaps_core::tuning::DEFAULT_ALPHA);
            (
                model.with_tr(tr).expect("tuned tr is valid"),
                prep.test_signal().to_vec(),
            )
        });
        let mut models = Vec::with_capacity(pool);
        let mut chunks = Vec::with_capacity(pool);
        let mut electrodes = 0;
        for (model, signal) in trained {
            let recording = Recording::from_channels(FS as u32, signal).expect("valid recording");
            electrodes = recording.electrodes();
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
        Workload {
            models,
            chunks,
            electrodes,
        }
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
        trace: if spec.trace {
            TraceConfig::sampled()
        } else {
            TraceConfig::default()
        },
        health: if spec.health {
            HealthConfig::enabled()
        } else {
            HealthConfig::default()
        },
        sessions: if spec.per_session {
            SessionObsConfig::enabled()
        } else {
            SessionObsConfig::default()
        },
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

/// The same workload over loopback TCP: one `IngestClient` per session
/// against an `IngestServer` fronting the service.
fn run_tcp(spec: &LoadSpec, workload: &Workload) -> LoadReport {
    let model_dir = std::env::temp_dir().join(format!("laelaps-loadgen-{}", std::process::id()));
    let registry = Arc::new(ModelRegistry::open(&model_dir).expect("registry opens"));
    for (i, model) in workload.models.iter().enumerate() {
        registry
            .save(&format!("M{i:02}"), model)
            .expect("model persists");
    }
    let service = Arc::new(DetectionService::new(serve_config(spec)));
    let server = IngestServer::bind("127.0.0.1:0", Arc::clone(&service), Arc::clone(&registry))
        .expect("ingest server binds");
    let addr = server.local_addr();

    let start = Instant::now();
    // Two rendezvous points bracket the per-session snapshot: all
    // clients done streaming → sample while every session is still
    // registered → clients close (retired sessions leave the ranking).
    let streamed = std::sync::Barrier::new(spec.sessions + 1);
    let sampled = std::sync::Barrier::new(spec.sessions + 1);
    let mut session_obs = None;
    std::thread::scope(|scope| {
        for session in 0..spec.sessions {
            let (streamed, sampled) = (&streamed, &sampled);
            scope.spawn(move || {
                let patient = format!("M{:02}", session % workload.models.len());
                let mut client = IngestClient::connect(addr, &patient, workload.electrodes as u32)
                    .expect("client connects");
                let interval = spec
                    .open_rate
                    .map(|r| Duration::from_secs_f64(CHUNK_FRAMES as f64 / FS as f64 / r));
                for tick in 0..spec.chunks_per_session {
                    if let Some(interval) = interval {
                        let deadline = start + interval.mul_f64(tick as f64);
                        while Instant::now() < deadline {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                    }
                    client
                        .send_chunk(workload.chunk(session, tick))
                        .expect("chunk sends");
                }
                streamed.wait();
                sampled.wait();
                client.finish().expect("clean close");
            });
        }
        streamed.wait();
        service.flush();
        session_obs = Some(service.session_obs_snapshot(None));
        sampled.wait();
    });
    service.flush();
    let wall = start.elapsed();
    let _ = std::fs::remove_dir_all(&model_dir);
    LoadReport {
        wall,
        stats: service.stats(),
        trace: service.trace_snapshot(),
        health: service.health_snapshot(),
        session_obs: session_obs.expect("sampled inside the scope"),
    }
}

fn run(spec: &LoadSpec, workload: &Workload, tcp: bool) -> LoadReport {
    if tcp {
        run_tcp(spec, workload)
    } else {
        run_in_process(spec, workload)
    }
}

/// Median of the collected per-arm throughput samples — robust to the
/// occasional slow outlier run that best-of or mean would mis-weight.
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("throughput is finite"));
    let mid = samples.len() / 2;
    if samples.len().is_multiple_of(2) {
        (samples[mid - 1] + samples[mid]) / 2.0
    } else {
        samples[mid]
    }
}

fn stage_rows(stats: &ServiceStats) -> Json {
    Json::Arr(
        stats
            .telemetry
            .stages
            .iter()
            .map(|(stage, hist)| {
                Json::obj([
                    ("stage", Json::Str(stage.name().to_string())),
                    ("count", Json::num_u64(hist.count)),
                    ("mean_us", Json::Num((hist.mean() * 100.0).round() / 100.0)),
                    ("p50_us", Json::num_u64(hist.p50())),
                    ("p99_us", Json::num_u64(hist.p99())),
                    ("p999_us", Json::num_u64(hist.p999())),
                    ("max_us", Json::num_u64(hist.max)),
                ])
            })
            .collect(),
    )
}

fn shard_rows(stats: &ServiceStats) -> Json {
    Json::Arr(
        stats
            .telemetry
            .shards
            .iter()
            .map(|shard| {
                Json::obj([
                    ("shard", Json::num_u64(shard.shard as u64)),
                    ("sessions", Json::num_u64(shard.sessions as u64)),
                    (
                        "ring_depth_chunks",
                        Json::num_u64(shard.ring_depth_chunks as u64),
                    ),
                    ("in_flight_frames", Json::num_u64(shard.in_flight_frames)),
                ])
            })
            .collect(),
    )
}

fn trace_obj(stats: &ServiceStats) -> Json {
    let trace = &stats.telemetry.trace;
    Json::obj([
        ("enabled", Json::Bool(trace.enabled)),
        ("minted", Json::num_u64(trace.minted)),
        ("recorded", Json::num_u64(trace.recorded)),
        ("dropped", Json::num_u64(trace.dropped)),
        ("pinned", Json::num_u64(trace.pinned)),
    ])
}

fn round2(v: f64) -> Json {
    Json::Num((v * 100.0).round() / 100.0)
}

/// The run's closing health view. Always emitted — a disabled engine
/// yields `"enabled": false` with an empty rule list — so downstream
/// tooling keys on content, not key presence.
fn health_obj(health: &HealthSnapshot) -> Json {
    let worst_fast = health.rules.iter().map(|r| r.fast_burn).fold(0.0, f64::max);
    let worst_slow = health.rules.iter().map(|r| r.slow_burn).fold(0.0, f64::max);
    Json::obj([
        ("enabled", Json::Bool(health.enabled)),
        ("verdict", Json::Str(health.verdict.name().to_string())),
        ("ticks", Json::num_u64(health.ticks)),
        (
            "rules",
            Json::Arr(
                health
                    .rules
                    .iter()
                    .map(|rule| {
                        Json::obj([
                            ("rule", Json::Str(rule.name.clone())),
                            ("verdict", Json::Str(rule.verdict.name().to_string())),
                            ("fast_burn", round2(rule.fast_burn)),
                            ("slow_burn", round2(rule.slow_burn)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("worst_fast_burn", round2(worst_fast)),
        ("worst_slow_burn", round2(worst_slow)),
        ("transitions", Json::num_u64(health.transitions_total)),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sessions = usize_arg(&args, "--sessions", 256).max(1);
    let pool = usize_arg(&args, "--models", 4).clamp(1, sessions);
    let dim = usize_arg(&args, "--dim", 1000);
    let seconds = f64_arg(&args, "--seconds", 10.0);
    let scale = f64_arg(&args, "--scale", 8.0);
    let rate = f64_arg(&args, "--rate", 4.0);
    let repeats = usize_arg(&args, "--repeats", 3).max(1);
    let arrival = arg_value(&args, "--arrival").unwrap_or_else(|| "closed".to_string());
    let mode = arg_value(&args, "--mode").unwrap_or_else(|| "in-process".to_string());
    let overhead_check = arg_present(&args, "--overhead-check");
    let health = arg_present(&args, "--health");
    let per_session = arg_present(&args, "--per-session");
    let trace_out = arg_value(&args, "--trace-out");
    let prom_out = arg_value(&args, "--prom-out");
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_serve.json".to_string());
    let tcp = match mode.as_str() {
        "in-process" => false,
        "tcp" => true,
        other => panic!("--mode takes in-process|tcp, got {other}"),
    };
    let open_rate = match arrival.as_str() {
        "closed" => None,
        "open" => Some(rate),
        other => panic!("--arrival takes closed|open, got {other}"),
    };
    let chunks_per_session = ((seconds * FS as f64 / CHUNK_FRAMES as f64).ceil() as usize).max(1);
    let threads = default_threads().clamp(1, 16);

    eprintln!(
        "loadgen: {sessions} sessions over {pool} models (d = {dim}), \
         {chunks_per_session} chunks/session, {arrival} arrival, {mode} mode"
    );
    let workload = Workload::prepare(pool, dim, scale, threads);

    let spec = LoadSpec {
        sessions,
        chunks_per_session,
        open_rate,
        telemetry: true,
        trace: trace_out.is_some(),
        health,
        per_session,
        threads,
    };
    eprintln!("loadgen: driving the cohort ...");
    let report = run(&spec, &workload, tcp);
    let totals = &report.stats.totals;
    let signal_seconds = (totals.frames_in + totals.frames_dropped) as f64 * (1.0 / FS as f64);
    let realtime_multiple = signal_seconds / report.wall.as_secs_f64();
    let offered = totals.frames_in + totals.frames_dropped + totals.frames_refused;
    assert!(
        totals.frames_in >= totals.frames_processed + totals.frames_discarded,
        "accepted frames are accounted for"
    );
    eprintln!(
        "loadgen: {:.2} signal-hours in {:.2}s wall ({:.0}x realtime), \
         {:.0} frames/s sustained, {} dropped, {} events, {} alarms",
        signal_seconds / 3600.0,
        report.wall.as_secs_f64(),
        realtime_multiple,
        report.frames_per_sec(),
        totals.frames_dropped,
        totals.events_out,
        totals.alarms_out
    );

    // ---- Optional observability-overhead comparison (closed loop, in process) ----
    let overhead = if overhead_check {
        let base = LoadSpec {
            open_rate: None,
            telemetry: true,
            trace: false,
            health: false,
            per_session: false,
            ..spec
        };
        eprintln!("loadgen: overhead check, {repeats} interleaved repeats per arm ...");
        // Five arms, one run each per round so thermal / scheduler drift
        // hits every arm equally; the median per arm keeps one slow
        // outlier run from deciding the comparison.
        let mut off_runs = Vec::with_capacity(repeats);
        let mut on_runs = Vec::with_capacity(repeats);
        let mut trace_runs = Vec::with_capacity(repeats);
        let mut health_runs = Vec::with_capacity(repeats);
        let mut session_runs = Vec::with_capacity(repeats);
        for _ in 0..repeats {
            off_runs.push(
                run(
                    &LoadSpec {
                        telemetry: false,
                        ..base
                    },
                    &workload,
                    false,
                )
                .frames_per_sec(),
            );
            on_runs.push(run(&base, &workload, false).frames_per_sec());
            trace_runs.push(
                run(
                    &LoadSpec {
                        trace: true,
                        ..base
                    },
                    &workload,
                    false,
                )
                .frames_per_sec(),
            );
            health_runs.push(
                run(
                    &LoadSpec {
                        health: true,
                        ..base
                    },
                    &workload,
                    false,
                )
                .frames_per_sec(),
            );
            session_runs.push(
                run(
                    &LoadSpec {
                        per_session: true,
                        ..base
                    },
                    &workload,
                    false,
                )
                .frames_per_sec(),
            );
        }
        let off = median(&mut off_runs);
        let on = median(&mut on_runs);
        let traced = median(&mut trace_runs);
        let healthy = median(&mut health_runs);
        let per_session_on = median(&mut session_runs);
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
        assert!(
            telemetry_pct <= 2.0,
            "telemetry overhead {telemetry_pct:.2}% exceeds the 2% budget"
        );
        assert!(
            trace_pct <= 3.0,
            "tracing overhead {trace_pct:.2}% exceeds the 3% budget"
        );
        assert!(
            health_pct <= 3.0,
            "health overhead {health_pct:.2}% exceeds the 3% budget"
        );
        assert!(
            session_pct <= 3.0,
            "per-session overhead {session_pct:.2}% exceeds the 3% budget"
        );
        Json::obj([
            ("enabled_frames_per_sec", Json::Num(on.round())),
            ("disabled_frames_per_sec", Json::Num(off.round())),
            ("trace_frames_per_sec", Json::Num(traced.round())),
            ("health_frames_per_sec", Json::Num(healthy.round())),
            ("session_frames_per_sec", Json::Num(per_session_on.round())),
            ("overhead_pct", round2(telemetry_pct)),
            ("trace_overhead_pct", round2(trace_pct)),
            ("health_overhead_pct", round2(health_pct)),
            ("session_overhead_pct", round2(session_pct)),
            ("within_2pct", Json::Bool(true)),
            ("trace_within_3pct", Json::Bool(true)),
            ("health_within_3pct", Json::Bool(true)),
            ("session_within_3pct", Json::Bool(true)),
        ])
    } else {
        Json::Null
    };

    let doc = Json::obj([
        ("schema", Json::Str("laelaps-bench/serve-load/v1".into())),
        ("mode", Json::Str(mode.clone())),
        ("arrival", Json::Str(arrival.clone())),
        (
            "open_loop_rate",
            open_rate.map(Json::Num).unwrap_or(Json::Null),
        ),
        ("sessions", Json::num_u64(sessions as u64)),
        ("model_pool", Json::num_u64(pool as u64)),
        ("dim", Json::num_u64(dim as u64)),
        ("electrodes", Json::num_u64(workload.electrodes as u64)),
        (
            "chunks_per_session",
            Json::num_u64(chunks_per_session as u64),
        ),
        ("wall_seconds", Json::Num(report.wall.as_secs_f64())),
        ("signal_seconds", Json::Num(signal_seconds.round())),
        ("realtime_multiple", Json::Num(realtime_multiple.round())),
        (
            "sustained_frames_per_sec",
            Json::Num(report.frames_per_sec().round()),
        ),
        ("frames_offered", Json::num_u64(offered)),
        ("frames_in", Json::num_u64(totals.frames_in)),
        ("frames_processed", Json::num_u64(totals.frames_processed)),
        ("frames_dropped", Json::num_u64(totals.frames_dropped)),
        ("frames_refused", Json::num_u64(totals.frames_refused)),
        ("events_out", Json::num_u64(totals.events_out)),
        ("alarms_out", Json::num_u64(totals.alarms_out)),
        ("max_drain_micros", Json::num_u64(totals.max_drain_micros)),
        (
            "recent_frames_per_sec",
            Json::Num(report.stats.telemetry.recent_frames_per_sec.round()),
        ),
        (
            "telemetry_enabled",
            Json::Bool(report.stats.telemetry.enabled),
        ),
        ("stages", stage_rows(&report.stats)),
        ("shards", shard_rows(&report.stats)),
        ("trace", trace_obj(&report.stats)),
        ("health", health_obj(&report.health)),
        ("session_obs", session_obs_json(&report.session_obs)),
        ("overhead_check", overhead),
    ]);
    std::fs::write(&out_path, doc.render_pretty()).expect("artifact writes");
    eprintln!("loadgen: wrote {out_path}");

    if let Some(path) = prom_out {
        let scrape = prom::render(
            &WireStats::from_stats(&report.stats),
            &report.health,
            &report.session_obs,
        );
        std::fs::write(&path, scrape).expect("prom artifact writes");
        eprintln!("loadgen: wrote {path}");
    }

    if let Some(path) = trace_out {
        let spans = laelaps_bench::chrome::snapshot_spans(&report.trace);
        let trace_doc = laelaps_bench::chrome::trace_document(&spans);
        std::fs::write(&path, trace_doc.render_pretty()).expect("trace artifact writes");
        eprintln!(
            "loadgen: wrote {path} ({} spans, load it in https://ui.perfetto.dev)",
            spans.len()
        );
    }
}
