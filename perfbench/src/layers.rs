//! The traced run's single-threaded replay: the workload's own chunks
//! timed through each core layer's public function, and through the wire
//! codec for TCP workloads.

use std::hint::black_box;
use std::time::{Duration, Instant};

use laelaps_core::lbp::{LbpCode, LbpExtractor};
use laelaps_core::{Detector, Encoder, Postprocessor, SpatialEncoder};
use laelaps_serve::wire::{encode_message, read_message, Message};

use crate::alloc;
use crate::check::median;
use crate::cohort::Cohort;
use crate::workload::{Spec, Transport, CHUNK_FRAMES};

/// Per-layer costs measured on one thread. Wire fields are 0 for
/// in-process workloads.
#[derive(Debug, Default)]
pub struct Layers {
    pub lbp_ns_per_frame: f64,
    pub spatial_ns_per_frame: f64,
    pub encode_ns_per_frame: f64,
    /// `encode − lbp − spatial`: the temporal bundle and window threshold
    /// inside `Encoder::push_frame`.
    pub temporal_ns_per_frame: f64,
    pub encode_allocs_per_frame: f64,
    pub classify_ns_per_window: f64,
    pub postprocess_ns_per_window: f64,
    pub detector_ns_per_frame: f64,
    pub detector_allocs_per_frame: f64,
    /// Windows per frame of the replayed stream.
    pub windows_per_frame: f64,
    pub wire_encode_ns_per_chunk: f64,
    pub wire_decode_ns_per_chunk: f64,
    pub wire_bytes_per_frame: f64,
}

/// Timed rounds of the replay, after one warm-up round.
const ROUNDS: usize = 5;

/// Runs `pass` once to warm caches, then [`ROUNDS`] times; returns the
/// last pass's output and the median pass time.
fn warm<T>(mut pass: impl FnMut() -> T) -> (T, Duration) {
    black_box(pass());
    let mut times = Vec::with_capacity(ROUNDS);
    let mut out = None;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        out = Some(pass());
        times.push(start.elapsed());
    }
    times.sort_unstable();
    (out.expect("ROUNDS > 0"), times[ROUNDS / 2])
}

fn per(d: Duration, n: usize) -> f64 {
    d.as_nanos() as f64 / n.max(1) as f64
}

/// Runs `f` and returns its output with the time it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Replays session 0's first `spec.replay_chunks` chunks through each
/// layer. Each round times every core layer back to back, so that
/// `temporal` (encode − lbp − spatial) subtracts figures taken at the
/// same machine speed. Must run while no other thread allocates: the
/// allocation counts are process-wide.
pub fn replay(spec: &Spec, cohort: &Cohort) -> Result<Layers, String> {
    let model = &cohort.models[0];
    let config = model.config();
    let am = model.am();
    let electrodes = cohort.electrodes;
    let chunks: Vec<&[f32]> = (0..spec.replay_chunks)
        .map(|p| cohort.chunk(spec, 0, p).as_ref())
        .collect();
    let frames = chunks.len() * CHUNK_FRAMES;
    let mut spatial = SpatialEncoder::new(config, electrodes).map_err(|e| e.to_string())?;
    let frames_of = || chunks.iter().flat_map(|c| c.chunks_exact(electrodes));

    let mut rounds: Vec<[f64; 7]> = Vec::with_capacity(ROUNDS);
    let mut layers = Layers::default();
    for round in 0..=ROUNDS {
        // LBP: every electrode's extractor, frame by frame.
        let (codes, lbp) = timed(|| {
            let mut extractors: Vec<LbpExtractor> = (0..electrodes)
                .map(|_| LbpExtractor::new(config.lbp_len))
                .collect();
            let mut codes: Vec<LbpCode> = Vec::with_capacity(frames * electrodes);
            for frame in frames_of() {
                for (ex, &x) in extractors.iter_mut().zip(frame) {
                    codes.push(ex.push(x).unwrap_or(0));
                }
            }
            codes
        });
        // Spatial bind + bundle of one frame's codes.
        let ((), spatial_t) = timed(|| {
            for frame in codes.chunks_exact(electrodes) {
                black_box(spatial.encode(black_box(frame)));
            }
        });
        // The whole encoder (LBP + spatial + temporal), allocations counted.
        let mut encoder = Encoder::new(config, electrodes).map_err(|e| e.to_string())?;
        let mut windows = Vec::with_capacity(chunks.len() + 1);
        let ((encoded, encode_allocs), encode) = timed(|| {
            alloc::count_during(|| -> laelaps_core::Result<()> {
                for frame in frames_of() {
                    windows.extend(encoder.push_frame(frame)?);
                }
                Ok(())
            })
        });
        encoded.map_err(|e| e.to_string())?;
        // Classify and postprocess, per window.
        let (classes, classify) = timed(|| {
            windows
                .iter()
                .map(|w| am.classify(black_box(&w.vector)))
                .collect::<Vec<_>>()
        });
        let ((), post) = timed(|| {
            let mut post = Postprocessor::new(config);
            for c in &classes {
                black_box(post.push(black_box(c)));
            }
        });
        // The whole single-threaded detector: the same job the service
        // spreads over its workers.
        let mut detector = Detector::new(model).map_err(|e| e.to_string())?;
        let mut events = 0;
        let ((detected, detector_allocs), detect) = timed(|| {
            alloc::count_during(|| -> laelaps_core::Result<()> {
                for frame in frames_of() {
                    events += usize::from(detector.push_frame(frame)?.is_some());
                }
                Ok(())
            })
        });
        detected.map_err(|e| e.to_string())?;
        if events != windows.len() {
            return Err(format!(
                "detector emitted {events} events for {} encoded windows",
                windows.len()
            ));
        }
        if round == 0 {
            continue; // warm-up
        }
        let (lbp, spatial_t, encode) = (
            per(lbp, frames),
            per(spatial_t, frames),
            per(encode, frames),
        );
        rounds.push([
            lbp,
            spatial_t,
            encode,
            encode - lbp - spatial_t,
            per(classify, windows.len()),
            per(post, windows.len()),
            per(detect, frames),
        ]);
        layers.encode_allocs_per_frame = encode_allocs as f64 / frames as f64;
        layers.detector_allocs_per_frame = detector_allocs as f64 / frames as f64;
        layers.windows_per_frame = windows.len() as f64 / frames as f64;
    }
    // Medians over rounds: a stray scheduler hiccup does not move them.
    let column = |i: usize| median(rounds.iter().map(|r| r[i]).collect());
    layers.lbp_ns_per_frame = column(0);
    layers.spatial_ns_per_frame = column(1);
    layers.encode_ns_per_frame = column(2);
    layers.temporal_ns_per_frame = column(3);
    layers.classify_ns_per_window = column(4);
    layers.postprocess_ns_per_window = column(5);
    layers.detector_ns_per_frame = column(6);

    if spec.transport == Transport::Tcp {
        let messages: Vec<Message> = chunks
            .iter()
            .map(|c| Message::Frames { chunk: (*c).into() })
            .collect();
        let (bytes, t) = warm(|| messages.iter().map(encode_message).collect::<Vec<_>>());
        layers.wire_encode_ns_per_chunk = per(t, messages.len());
        layers.wire_bytes_per_frame =
            bytes.iter().map(Vec::len).sum::<usize>() as f64 / frames as f64;
        let (decoded, t) = warm(|| {
            bytes
                .iter()
                .map(|b| read_message(&mut b.as_slice()))
                .collect::<Vec<_>>()
        });
        layers.wire_decode_ns_per_chunk = per(t, messages.len());
        for (got, want) in decoded.into_iter().zip(&messages) {
            match got {
                Ok(Some(m)) if &m == want => {}
                other => return Err(format!("wire round trip failed: {other:?}")),
            }
        }
    }
    Ok(layers)
}
