//! The telemetry contract: stage histograms populate for the stages the
//! drain path runs (and only those), disabling telemetry leaves every histogram
//! dark while detection output is untouched, swap propagation is
//! charged to its stage, and snapshots taken *during* concurrent load
//! are consistent — counters monotonic, accounting never claiming more
//! processed frames than were accepted.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use common::{interleave, trained_model, two_state_signal};
use laelaps_serve::{
    DetectionService, PushError, ServeConfig, SessionHandle, Stage, TelemetryConfig,
};

const CHUNK_FRAMES: usize = 256;

fn push_all(handle: &mut SessionHandle, interleaved: &[f32]) {
    for chunk in interleaved.chunks(CHUNK_FRAMES * 4) {
        let mut pending: Box<[f32]> = chunk.into();
        loop {
            match handle.try_push_chunk(pending) {
                Ok(()) => break,
                Err(PushError::Full(back)) => {
                    pending = back;
                    std::thread::yield_now();
                }
                Err(e) => panic!("unexpected push error: {e}"),
            }
        }
    }
}

fn config(telemetry: bool) -> ServeConfig {
    ServeConfig {
        workers: 2,
        ring_chunks: 64,
        telemetry: TelemetryConfig { enabled: telemetry },
        trace: laelaps_serve::TraceConfig::default(),
        health: laelaps_serve::HealthConfig::default(),
        sessions: laelaps_serve::SessionObsConfig::default(),
    }
}

/// One session streamed to completion; returns the service for stats.
fn stream_one(config: ServeConfig) -> DetectionService {
    let model = trained_model(41);
    let signal = two_state_signal(4, 512 * 40, 512 * 15..512 * 30, 43);
    let service = DetectionService::new(config);
    let mut handle = service.open_session("T0", &model).unwrap();
    push_all(&mut handle, &interleave(&signal));
    handle.close();
    service.flush();
    assert!(!handle.take_events().is_empty(), "detection still works");
    service
}

#[test]
fn per_frame_path_populates_its_stages() {
    let stats = stream_one(config(true)).stats();
    let telemetry = &stats.telemetry;
    assert!(telemetry.enabled);

    let stages = &telemetry.stages;
    for stage in [Stage::RingWait, Stage::Drain, Stage::Publish] {
        assert!(
            stages.get(stage).count > 0,
            "{} records on the per-frame path",
            stage.name()
        );
    }
    // Encode, classify and scatter are never recorded (the drain span
    // covers them), and network/adaptation stages stay dark here.
    for stage in [
        Stage::WireDecode,
        Stage::RingEnqueue,
        Stage::Encode,
        Stage::Classify,
        Stage::Scatter,
        Stage::AdaptRetrain,
        Stage::AdaptPropagate,
    ] {
        assert!(
            stages.get(stage).is_empty(),
            "{} has nothing to record here",
            stage.name()
        );
    }

    // Percentiles are ordered and bounded by the exact max.
    let drain = stages.get(Stage::Drain);
    assert!(drain.p50() <= drain.p99());
    assert!(drain.p99() <= drain.p999());
    assert!(drain.p999() <= drain.max);
    assert!(drain.mean() <= drain.max as f64);
    // The legacy worst-case counter agrees with the histogram's max.
    assert_eq!(stats.totals.max_drain_micros, drain.max);
}

#[test]
fn disabled_telemetry_stays_dark_but_detection_is_untouched() {
    let stats = stream_one(config(false)).stats();
    let telemetry = &stats.telemetry;
    assert!(!telemetry.enabled);
    assert!(!telemetry.stages.enabled);
    for (stage, hist) in telemetry.stages.iter() {
        assert!(hist.is_empty(), "{} must not record", stage.name());
    }
    assert_eq!(telemetry.recent_frames_per_sec, 0.0);
    // The clock is never read, so the legacy latency bound is zero too.
    assert_eq!(stats.totals.max_drain_micros, 0);
    // Plain counters still run: they are the "off = a few atomics" tier.
    assert!(stats.totals.frames_processed > 0);
    assert!(stats.totals.events_out > 0);
}

#[test]
fn model_swap_charges_adapt_propagate() {
    let model = trained_model(47);
    // Hot-swap requires an identical pipeline configuration (only `tr`
    // may differ), so retrain from the same seed and nudge `tr`.
    let tr = model.config().tr / 2.0;
    let replacement = Arc::new(trained_model(47).with_tr(tr).unwrap().with_generation(1));
    let signal = two_state_signal(4, 512 * 30, 512 * 10..512 * 20, 49);
    let interleaved = interleave(&signal);
    let half = interleaved.len() / 2 / 4 * 4;

    let service = DetectionService::new(config(true));
    let mut handle = service.open_session("S0", &model).unwrap();
    push_all(&mut handle, &interleaved[..half]);
    service.flush();
    assert_eq!(service.swap_patient_model("S0", &replacement), 1);
    push_all(&mut handle, &interleaved[half..]);
    handle.close();
    service.flush();

    let hist_owner = service.stats();
    let propagate = hist_owner.telemetry.stages.get(Stage::AdaptPropagate);
    assert_eq!(propagate.count, 1, "exactly one swap propagation was timed");
    assert!(propagate.max < 60_000_000, "span is sane (< 60 s)");
    assert!(handle.generation() > 0, "the swap actually applied");
}

/// Snapshots taken while pushers and workers race must be internally
/// consistent: every counter monotonic run-over-run, and the frame
/// accounting never runs ahead of what was accepted (allowing the
/// in-flight window of one chunk per session, since a worker can pop a
/// chunk in the instant between ring push and counter publication).
#[test]
fn concurrent_snapshots_stay_consistent() {
    let sessions = 4;
    let models: Vec<_> = (0..sessions)
        .map(|i| trained_model(60 + i as u64))
        .collect();
    let signals: Vec<Vec<f32>> = (0..sessions)
        .map(|i| {
            interleave(&two_state_signal(
                4,
                512 * 30,
                512 * 10..512 * 25,
                70 + i as u64,
            ))
        })
        .collect();

    let service = DetectionService::new(config(true));
    let handles: Vec<_> = models
        .iter()
        .enumerate()
        .map(|(i, m)| service.open_session(&format!("C{i}"), m).unwrap())
        .collect();

    let done = AtomicBool::new(false);
    let slack = (sessions * CHUNK_FRAMES) as u64;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut prev_totals = None;
            let mut prev_stage_counts = vec![0u64; Stage::ALL.len()];
            while !done.load(Ordering::Acquire) {
                let stats = service.stats();
                let t = stats.totals;
                assert!(
                    t.frames_in + slack >= t.frames_processed + t.frames_discarded,
                    "processing never outruns accepted frames: {t:?}"
                );
                if let Some(prev) = prev_totals {
                    let prev: laelaps_serve::SessionStats = prev;
                    assert!(t.frames_in >= prev.frames_in, "frames_in monotonic");
                    assert!(
                        t.frames_processed >= prev.frames_processed,
                        "frames_processed monotonic"
                    );
                    assert!(t.events_out >= prev.events_out, "events_out monotonic");
                    assert!(t.drains >= prev.drains, "drains monotonic");
                    assert!(
                        t.max_drain_micros >= prev.max_drain_micros,
                        "latency bound monotonic"
                    );
                }
                prev_totals = Some(t);
                for (i, (stage, hist)) in stats.telemetry.stages.iter().enumerate() {
                    assert!(
                        hist.count >= prev_stage_counts[i],
                        "{} histogram count monotonic",
                        stage.name()
                    );
                    assert!(hist.p50() <= hist.p99() && hist.p99() <= hist.p999());
                    assert!(hist.p999() <= hist.max);
                    prev_stage_counts[i] = hist.count;
                }
                std::thread::yield_now();
            }
        });
        std::thread::scope(|pushers| {
            for (mut handle, signal) in handles.into_iter().zip(&signals) {
                pushers.spawn(move || {
                    push_all(&mut handle, signal);
                    handle.close();
                });
            }
        });
        done.store(true, Ordering::Release);
    });
    service.flush();

    // Quiescent: the accounting closes exactly.
    let stats = service.stats();
    let t = stats.totals;
    let pushed: u64 = signals.iter().map(|s| (s.len() / 4) as u64).sum();
    assert_eq!(t.frames_in, pushed, "every pushed frame was accepted");
    assert_eq!(
        t.frames_in,
        t.frames_processed + t.frames_discarded,
        "every accepted frame is processed or discarded at idle"
    );
    assert!(t.frames_discarded == 0 && t.frames_dropped == 0 && t.frames_refused == 0);
    assert!(stats.telemetry.recent_frames_per_sec >= 0.0);
}
