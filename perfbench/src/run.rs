//! One benchmark run: set up, drive, check, and turn it all into the
//! metrics of the run's kind (untraced: end to end; traced: per layer).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::check::{self, median, Check};
use crate::cohort::{self, Cohort};
use crate::drive::{self, Drive, Opened, Span, SpanLog};
use crate::json::Json;
use crate::layers::{self, Layers};
use crate::sys;
use crate::workload::{Arrival, Spec, Transport, CHUNK_FRAMES, PER_LAYER, SAMPLE_RATE};

/// What to run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub nproc: usize,
    /// Where registries, span logs and ledgers go.
    pub out_dir: PathBuf,
}

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in catalogue order; units come from the catalogue.
    pub metrics: Vec<(&'static str, f64)>,
    /// Everything else worth keeping: stamp, sample counts, ledger.
    pub report: Json,
    pub problems: Vec<String>,
}

fn per_s(frames: u64, wall: Duration) -> f64 {
    frames as f64 / wall.as_secs_f64()
}

/// Per slice of the measured phase: frames processed per second, and
/// process CPU microseconds per processed frame.
fn slice_rates(d: &Drive) -> (Vec<f64>, Vec<f64>) {
    d.samples
        .windows(2)
        .map(|w| {
            let frames = w[1].frames - w[0].frames;
            (
                per_s(frames, w[1].at - w[0].at),
                (w[1].cpu - w[0].cpu).as_secs_f64() * 1e6 / frames.max(1) as f64,
            )
        })
        .unzip()
}

/// Synthesis, training, registry round trip (TCP) and session opening:
/// everything up to the first timed push.
fn set_up(spec: &Spec, opts: &Opts, tag: usize) -> Result<(Cohort, Opened, Duration), String> {
    let start = Instant::now();
    let cohort = cohort::build(spec, opts.seed, opts.nproc)?;
    let opened = drive::open(spec, &cohort, opts.nproc, &opts.out_dir, tag)?;
    Ok((cohort, opened, start.elapsed()))
}

/// The generator must keep its schedule for latency to mean anything.
fn lag_problem(d: &Drive) -> Option<String> {
    let interval = d.session_interval?.as_secs_f64() * 1e3;
    let p99 = check::quantile_ms(&d.lags, 0.99);
    (p99 > interval / 2.0).then(|| {
        format!(
            "invalid run: generator lag p99 {p99:.3} ms approaches the per-session \
             interval {interval:.3} ms"
        )
    })
}

fn stamp(spec: &Spec, opts: &Opts) -> Json {
    let arrival = match spec.arrival {
        Arrival::Closed => Json::str("closed"),
        Arrival::Open { frames_per_s } => Json::obj([
            ("open_frames_per_s", Json::Num(frames_per_s)),
            (
                "session_realtime_multiple",
                Json::Num(frames_per_s / (spec.sessions * SAMPLE_RATE) as f64),
            ),
        ]),
    };
    let transport = match spec.transport {
        Transport::InProcess => "in-process",
        Transport::Tcp => "tcp",
    };
    Json::obj([
        ("workload", Json::str(spec.name)),
        ("seed", Json::Int(opts.seed)),
        ("run_seconds", Json::Num(opts.seconds)),
        ("traced", Json::Bool(opts.traced)),
        ("nproc", Json::Int(opts.nproc as u64)),
        ("workers", Json::Int(opts.nproc as u64)),
        ("cpu_model", Json::str(sys::cpu_model())),
        ("rustc", Json::str(env!("PERFBENCH_RUSTC"))),
        ("commit", Json::str(env!("PERFBENCH_COMMIT"))),
        ("dim", Json::Int(spec.dim as u64)),
        ("sessions", Json::Int(spec.sessions as u64)),
        ("models", Json::Int(spec.models as u64)),
        ("transport", Json::str(transport)),
        ("arrival", arrival),
    ])
}

fn drive_json(d: &Drive, c: &Check) -> Json {
    Json::obj([
        ("wall_s", Json::Num(d.wall.as_secs_f64())),
        ("frames_processed", Json::Int(d.frames)),
        ("frames_per_s", Json::Num(per_s(d.frames, d.wall))),
        (
            "cpu_us_per_frame",
            Json::Num(d.cpu.as_secs_f64() * 1e6 / d.frames.max(1) as f64),
        ),
        (
            "slice_frames_per_s",
            Json::Arr(slice_rates(d).0.into_iter().map(Json::Num).collect()),
        ),
        (
            "slice_cpu_us_per_frame",
            Json::Arr(slice_rates(d).1.into_iter().map(Json::Num).collect()),
        ),
        ("frames_offered", Json::Int(c.offered_frames)),
        ("lost_frames", Json::Int(c.lost_frames)),
        ("lost_frac", Json::Num(c.lost_frac())),
        ("latency_samples", Json::Int(c.latencies_ns.len() as u64)),
        ("lost_windows", Json::Int(c.lost_windows)),
        (
            "latency_resolution_ms",
            Json::Num(d.observe_interval.as_secs_f64() * 1e3),
        ),
        ("window_latency_p50_ms", Json::Num(c.latency_ms(0.50))),
        ("window_latency_p90_ms", Json::Num(c.latency_ms(0.90))),
        ("window_latency_p99_ms", Json::Num(c.latency_ms(0.99))),
        (
            "gen_lag_p99_ms",
            Json::Num(check::quantile_ms(&d.lags, 0.99)),
        ),
        ("push_attempts", Json::Int(d.push_attempts)),
        ("push_full", Json::Int(d.push_full)),
        (
            "problems",
            Json::Arr(c.problems.iter().map(Json::str).collect()),
        ),
    ])
}

/// Runs `spec` once as `opts` says.
pub fn run(spec: &Spec, opts: &Opts) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    if opts.traced {
        traced(spec, opts)
    } else {
        untraced(spec, opts)
    }
}

fn untraced(spec: &Spec, opts: &Opts) -> Result<Outcome, String> {
    let (cohort, mut opened, first) = set_up(spec, opts, 0)?;
    let d = drive::drive(spec, &cohort, &mut opened, opts.seconds, false)?;
    drop(opened);
    let c = check::check(spec, &cohort, &d, opts.nproc);
    drop(cohort);
    // The remaining set-ups run after the measured phase, so their
    // garbage cannot inflate its resident memory.
    let mut setups = vec![first.as_secs_f64()];
    for tag in 1..spec.setup_repeats {
        let (cohort, opened, t) = set_up(spec, opts, tag)?;
        drop(opened);
        drop(cohort);
        setups.push(t.as_secs_f64());
    }
    let mut problems = c.problems.clone();
    problems.extend(lag_problem(&d));
    let metrics = vec![
        ("frames_per_s", per_s(d.frames, d.wall)),
        ("window_latency_p50_ms", c.latency_ms(0.50)),
        (
            "cpu_us_per_frame",
            d.cpu.as_secs_f64() * 1e6 / d.frames.max(1) as f64,
        ),
        ("delivered_frac", 1.0 - c.lost_frac()),
        ("rss_mb", d.rss_mb),
        ("setup_s", median(setups.clone())),
    ];
    let report = Json::obj([
        ("stamp", stamp(spec, opts)),
        ("drive", drive_json(&d, &c)),
        (
            "setup_s_runs",
            Json::Arr(setups.into_iter().map(Json::Num).collect()),
        ),
    ]);
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: c.offered_chunks,
        failed: c.lost_chunks,
        metrics,
        report,
        problems,
    })
}

/// The ledger: the per-frame cost of every layer measured, and what is
/// left of the workers' wall-clock budget (`workers × wall ÷ frames`).
fn ledger(
    spec: &Spec,
    layers: &Layers,
    d: &Drive,
    push_ns: u64,
    workers: usize,
) -> Vec<(&'static str, f64)> {
    let frames = d.frames.max(1) as f64;
    let windows = layers.windows_per_frame;
    let mut rows = vec![
        ("lbp", layers.lbp_ns_per_frame),
        ("spatial", layers.spatial_ns_per_frame),
        ("temporal", layers.temporal_ns_per_frame),
        ("classify", layers.classify_ns_per_window * windows),
        ("postprocess", layers.postprocess_ns_per_window * windows),
    ];
    match spec.transport {
        Transport::InProcess => rows.push(("serve.push", push_ns as f64 / frames)),
        Transport::Tcp => {
            let chunk = CHUNK_FRAMES as f64;
            rows.push(("wire.encode", layers.wire_encode_ns_per_chunk / chunk));
            rows.push(("wire.decode", layers.wire_decode_ns_per_chunk / chunk));
        }
    }
    let budget = workers as f64 * d.wall.as_nanos() as f64 / frames;
    let attributed: f64 = rows.iter().map(|r| r.1).sum();
    rows.push(("unattributed", budget - attributed));
    rows.push(("workers_x_wall", budget));
    rows
}

fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let events = spans
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.ns() as f64 / 1e3)),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(1)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Int(s.id as u64)),
                        ("parent", Json::Int(s.parent as u64)),
                        ("chunk", Json::Int(s.chunk)),
                    ]),
                ),
            ])
        })
        .collect();
    let doc = Json::obj([("traceEvents", Json::Arr(events))]);
    std::fs::write(path, doc.render()).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn traced(spec: &Spec, opts: &Opts) -> Result<Outcome, String> {
    let workers = opts.nproc;
    let cohort = cohort::build(spec, opts.seed, opts.nproc)?;
    // Single-threaded replay first, while no service thread allocates.
    let layers = layers::replay(spec, &cohort)?;

    // The same drive untraced, then traced: the difference in throughput
    // is the tracing overhead.
    let mut opened = drive::open(spec, &cohort, workers, &opts.out_dir, 0)?;
    let plain = drive::drive(spec, &cohort, &mut opened, opts.seconds, false)?;
    drop(opened);
    let plain_check = check::check(spec, &cohort, &plain, opts.nproc);

    let mut opened = drive::open(spec, &cohort, workers, &opts.out_dir, 1)?;
    let d = drive::drive(spec, &cohort, &mut opened, opts.seconds, true)?;
    let (open_session_us, save_ms, load_ms) =
        (opened.open_session_us, opened.save_ms, opened.load_ms);
    drop(opened);
    let c = check::check(spec, &cohort, &d, opts.nproc);

    let log: &SpanLog = d.spans.as_ref().expect("traced drives record spans");
    let pushes = log.named("serve.push").count();
    let push_ns = log.named("serve.push").map(Span::ns).sum::<u64>() + d.push_full_ns;
    let sends = log.named("net.send").count();
    let send_ns: u64 = log.named("net.send").map(Span::ns).sum();
    let flush_ms = log.named("serve.flush").map(Span::ns).sum::<u64>() as f64 / 1e6;
    let traced_fps = per_s(d.frames, d.wall);
    let plain_fps = per_s(plain.frames, plain.wall);
    let rows = ledger(spec, &layers, &d, push_ns, workers);
    let row = |name: &str| rows.iter().find(|r| r.0 == name).map_or(0.0, |r| r.1);
    let train_s = cohort.train_s.iter().sum::<f64>() / cohort.train_s.len().max(1) as f64;

    let metrics = vec![
        ("lbp.ns_per_frame", layers.lbp_ns_per_frame),
        ("spatial.ns_per_frame", layers.spatial_ns_per_frame),
        ("temporal.ns_per_frame", layers.temporal_ns_per_frame),
        ("encode.ns_per_frame", layers.encode_ns_per_frame),
        ("encode.allocs_per_frame", layers.encode_allocs_per_frame),
        ("classify.ns_per_window", layers.classify_ns_per_window),
        (
            "postprocess.ns_per_window",
            layers.postprocess_ns_per_window,
        ),
        ("detector.ns_per_frame", layers.detector_ns_per_frame),
        (
            "detector.allocs_per_frame",
            layers.detector_allocs_per_frame,
        ),
        (
            "serve.push_ns_per_chunk",
            push_ns as f64 / pushes.max(1) as f64,
        ),
        (
            "serve.push_full_frac",
            d.push_full as f64 / d.push_attempts.max(1) as f64,
        ),
        ("serve.open_session_us", open_session_us),
        ("serve.flush_ms", flush_ms),
        (
            "serve.overhead_ns_per_frame",
            row("workers_x_wall") - layers.detector_ns_per_frame,
        ),
        ("wire.encode_ns_per_chunk", layers.wire_encode_ns_per_chunk),
        ("wire.decode_ns_per_chunk", layers.wire_decode_ns_per_chunk),
        ("wire.bytes_per_frame", layers.wire_bytes_per_frame),
        (
            "net.send_ns_per_chunk",
            send_ns as f64 / sends.max(1) as f64,
        ),
        ("net.throttles", d.throttles as f64),
        ("train.s_per_model", train_s),
        ("persist.save_ms", save_ms),
        ("persist.load_ms", load_ms),
        ("gen.lag_p99_ms", check::quantile_ms(&d.lags, 0.99)),
        ("ledger.unattributed_ns_per_frame", row("unattributed")),
        ("trace.frames_per_s", traced_fps),
        ("trace.overhead_frac", (plain_fps - traced_fps) / plain_fps),
    ];

    let base = format!("{}-seed{}", spec.name, opts.seed);
    write_spans(&opts.out_dir.join(format!("{base}-spans.json")), &log.spans)?;
    let report = Json::obj([
        ("stamp", stamp(spec, opts)),
        (
            "ledger_ns_per_frame",
            Json::obj(rows.iter().map(|&(name, ns)| (name, Json::Num(ns)))),
        ),
        ("untraced_drive", drive_json(&plain, &plain_check)),
        ("traced_drive", drive_json(&d, &c)),
        ("spans", Json::Int(log.spans.len() as u64)),
        (
            "predicted_to_move",
            Json::obj(PER_LAYER.iter().map(|def| (def.name, Json::str(def.moves)))),
        ),
    ]);
    let ledger_path = opts.out_dir.join(format!("{base}-ledger.json"));
    std::fs::write(&ledger_path, report.render())
        .map_err(|e| format!("cannot write {}: {e}", ledger_path.display()))?;

    let mut problems = plain_check.problems.clone();
    problems.extend(c.problems.iter().cloned());
    problems.extend(lag_problem(&plain));
    problems.extend(lag_problem(&d));
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: plain_check.offered_chunks + c.offered_chunks,
        failed: plain_check.lost_chunks + c.lost_chunks,
        metrics,
        report,
        problems,
    })
}
