//! The per-chunk span chain, pinned against recorded behaviour.
//!
//! One fixed workload runs in process and over loopback TCP, under all
//! four combinations of stage timing and tracing. It streams chunks one
//! at a time (each drained in its own pass), then a feedback-driven model
//! swap, then more chunks; in process it also sheds one lossy chunk
//! against a full ring. The test then checks:
//!
//! - every accepted chunk's trace: which stages it holds, that the spans
//!   follow each other in causal order, and their session, shard and
//!   model-generation attribution;
//! - the pins an integration test can reach: `Alarm` on exactly the
//!   chunks whose frames raised an alarm (an oracle detector says which),
//!   `Drop` on the shed chunk, `ModelSwap` on the feedback's trace;
//! - each stage histogram's sample count against the intervals the
//!   workload crosses.

mod common;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use common::{interleave, trained_model, two_state_signal};
use laelaps_core::{Detector, Label};
use laelaps_serve::adapt::{AdaptationEngine, FeedbackSegment};
use laelaps_serve::net::{IngestClient, IngestServer};
use laelaps_serve::{
    DetectionService, ModelRegistry, PinReason, ServeConfig, ServiceStats, SpanRecord, Stage,
    TelemetryConfig, TraceConfig, TraceSnapshot, TraceStats,
};

const ELECTRODES: usize = 4;
const CHUNK_FRAMES: usize = 256;
/// Session ring capacity: the lossy phase fills it while the session is
/// wedged, then sheds one more chunk.
const RING_CHUNKS: usize = 4;
const PATIENT: &str = "SC0";
/// Chunks streamed before the feedback-driven swap (the seizure, and so
/// the alarms, fall in this phase) and after it.
const BEFORE_SWAP: usize = 40;
const AFTER_SWAP: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Transport {
    InProcess,
    Tcp,
}

/// The four (stage timing, tracing) configurations.
const CONFIGS: [(bool, bool); 4] = [(true, true), (true, false), (false, true), (false, false)];

fn serve_config(timing: bool, trace: bool) -> ServeConfig {
    ServeConfig {
        workers: 2,
        ring_chunks: RING_CHUNKS,
        telemetry: TelemetryConfig { enabled: timing },
        trace: TraceConfig {
            enabled: trace,
            capacity: 1 << 12,
            sample_every: 1,
            // No slow-stage pins: which stage crosses a wall-clock
            // threshold depends on the host, not on the code.
            pin_threshold_us: 0,
            pinned_capacity: 256,
        },
        ..ServeConfig::default()
    }
}

/// The fixed workload and what an oracle detector makes of it.
struct Workload {
    /// `BEFORE_SWAP + AFTER_SWAP + RING_CHUNKS + 1` interleaved chunks:
    /// the two streaming phases, then the lossy phase (whose last chunk
    /// is shed).
    chunks: Vec<Vec<f32>>,
    feedback: Vec<f32>,
}

impl Workload {
    fn new() -> Self {
        let frames = (BEFORE_SWAP + AFTER_SWAP + RING_CHUNKS + 1) * CHUNK_FRAMES;
        let signal = two_state_signal(ELECTRODES, frames, 512 * 8..512 * 16, 1201);
        let chunks = interleave(&signal)
            .chunks(CHUNK_FRAMES * ELECTRODES)
            .map(<[f32]>::to_vec)
            .collect();
        let feedback = interleave(&two_state_signal(
            ELECTRODES,
            512 * 20,
            512 * 2..512 * 18,
            1202,
        ));
        Workload { chunks, feedback }
    }

    /// Chunks the service accepts, in push order.
    fn accepted(&self) -> usize {
        BEFORE_SWAP + AFTER_SWAP + RING_CHUNKS
    }
}

/// What one run observed.
struct Run {
    stats: ServiceStats,
    trace: TraceSnapshot,
    session: u64,
    shard: u16,
    /// Generation of the model the feedback produced.
    swapped_to: u64,
    /// Per accepted chunk, in push order: (events emitted, any alarm),
    /// from a bare detector swapped at the same frame.
    oracle: Vec<(usize, bool)>,
}

fn registry_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("laelaps-span-chain-{tag}-{}", std::process::id()))
}

/// Runs the workload once. In process the lossy phase runs too; over
/// TCP (which throttles instead of shedding) it is skipped.
fn run(transport: Transport, timing: bool, trace: bool, work: &Workload) -> Run {
    let tag = format!("{transport:?}-{timing}-{trace}");
    let dir = registry_dir(&tag);
    let _ = std::fs::remove_dir_all(&dir);
    let registry = Arc::new(ModelRegistry::open(&dir).unwrap());
    registry.save(PATIENT, &trained_model(1200)).unwrap();
    let service = Arc::new(DetectionService::new(serve_config(timing, trace)));
    let engine = Arc::new(AdaptationEngine::new(
        Arc::clone(&service),
        Arc::clone(&registry),
    ));
    let original = registry.load(PATIENT).unwrap();
    let mut oracle = Detector::new(&original).unwrap();
    let mut oracle_out = Vec::new();
    let mut feed_oracle = |detector: &mut Detector, chunk: &[f32]| {
        let mut events = 0;
        let mut alarm = false;
        for frame in chunk.chunks_exact(ELECTRODES) {
            if let Some(event) = detector.push_frame(frame).unwrap() {
                events += 1;
                alarm |= event.alarm.is_some();
            }
        }
        oracle_out.push((events, alarm));
    };
    let streamed = BEFORE_SWAP + AFTER_SWAP;

    let (session, shard, swapped_to) = match transport {
        Transport::InProcess => {
            let mut handle = service.open_session(PATIENT, &original).unwrap();
            let session = handle.id();
            let shard = shard_of(&service, session);
            for (i, chunk) in work.chunks[..streamed].iter().enumerate() {
                if i == BEFORE_SWAP {
                    engine
                        .submit(FeedbackSegment {
                            patient: PATIENT.into(),
                            label: Label::Ictal,
                            samples: work.feedback.clone().into(),
                        })
                        .unwrap();
                    engine.flush();
                    service.flush();
                    oracle.hot_swap(&registry.load(PATIENT).unwrap()).unwrap();
                }
                handle.try_push_chunk(chunk.clone().into()).unwrap();
                service.flush();
                feed_oracle(&mut oracle, chunk);
            }
            // Lossy phase: fill the wedged session's ring, shed one more
            // chunk, then let one pass drain the ring.
            service.debug_wedge_session(session, true);
            let lossy = &work.chunks[streamed..];
            assert_eq!(handle.queue_capacity(), RING_CHUNKS);
            for chunk in &lossy[..RING_CHUNKS] {
                assert!(handle.push_chunk_lossy(chunk), "the ring has room");
                feed_oracle(&mut oracle, chunk);
            }
            assert!(
                !handle.push_chunk_lossy(&lossy[RING_CHUNKS]),
                "full ring sheds"
            );
            service.debug_wedge_session(session, false);
            service.flush();
            handle.close();
            service.flush();
            assert_eq!(handle.stats().frames_dropped, CHUNK_FRAMES as u64);
            (session, shard, handle.generation())
        }
        Transport::Tcp => {
            let server = IngestServer::bind_with_engine(
                "127.0.0.1:0",
                Arc::clone(&service),
                Arc::clone(&registry),
                Arc::clone(&engine),
            )
            .unwrap();
            let mut client =
                IngestClient::connect(server.local_addr(), PATIENT, ELECTRODES as u32).unwrap();
            let session = client.session();
            let shard = shard_of(&service, session);
            let mut sent = 0u64;
            for (i, chunk) in work.chunks[..streamed].iter().enumerate() {
                if i == BEFORE_SWAP {
                    client.send_feedback(Label::Ictal, &work.feedback).unwrap();
                    // The reader submits the feedback on its own thread:
                    // wait until the engine retrained (and staged the
                    // swap), then until the swap applied.
                    while engine.stats().retrains + engine.stats().failures == 0 {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    service.flush();
                    oracle.hot_swap(&registry.load(PATIENT).unwrap()).unwrap();
                }
                client.send_chunk(chunk).unwrap();
                sent += CHUNK_FRAMES as u64;
                // One chunk per pass: wait until the reader accepted it,
                // then until the worker drained it.
                while frames_in(&service, session) < sent {
                    std::thread::sleep(Duration::from_micros(200));
                }
                service.flush();
                feed_oracle(&mut oracle, chunk);
            }
            client.finish().unwrap();
            service.flush();
            drop(server);
            let generation = registry.load(PATIENT).unwrap().generation();
            (session, shard, generation)
        }
    };
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    Run {
        stats: service.stats(),
        trace: service.trace_snapshot(),
        session,
        shard,
        swapped_to,
        oracle: oracle_out,
    }
}

fn shard_of(service: &DetectionService, session: u64) -> u16 {
    service
        .stats()
        .per_session
        .iter()
        .find(|e| e.session == session)
        .expect("the session is live")
        .shard as u16
}

fn frames_in(service: &DetectionService, session: u64) -> u64 {
    service
        .session_obs_snapshot(Some(session))
        .lookup
        .map_or(0, |row| row.stats.frames_in)
}

/// Pipeline order of the chunk stages, for sorting a chunk's spans.
fn chunk_stage_rank(stage: Stage) -> usize {
    [
        Stage::WireDecode,
        Stage::RingEnqueue,
        Stage::RingWait,
        Stage::Drain,
        Stage::Publish,
    ]
    .iter()
    .position(|&s| s == stage)
    .unwrap_or_else(|| panic!("{} is not a chunk stage", stage.name()))
}

fn end(span: &SpanRecord) -> u64 {
    span.start_us + span.dur_us
}

fn check_trace(transport: Transport, run: &Run, work: &Workload) {
    let trace = &run.trace;
    assert!(trace.enabled);
    assert_eq!(trace.dropped, 0, "no recorder slot collisions");
    let mut by_trace: BTreeMap<u64, Vec<SpanRecord>> = BTreeMap::new();
    for span in &trace.spans {
        by_trace.entry(span.trace_id).or_default().push(*span);
    }
    let pins: BTreeMap<u64, PinReason> = trace
        .pinned
        .iter()
        .map(|p| (p.trace_id, p.reason))
        .collect();

    let (feedback, chunks): (Vec<_>, Vec<_>) = by_trace.into_iter().partition(|(_, spans)| {
        spans
            .iter()
            .any(|s| matches!(s.stage, Stage::AdaptRetrain | Stage::AdaptPropagate))
    });
    let (accepted, shed): (Vec<_>, Vec<_>) = chunks
        .into_iter()
        .partition(|(_, spans)| spans.iter().any(|s| s.stage == Stage::RingWait));

    let streamed = BEFORE_SWAP + AFTER_SWAP;
    let expected_accepted = match transport {
        Transport::InProcess => work.accepted(),
        Transport::Tcp => streamed,
    };
    assert_eq!(
        accepted.len(),
        expected_accepted,
        "one trace per accepted chunk"
    );
    assert_eq!(run.oracle.len(), expected_accepted);

    // Trace ids are minted in push order, so ascending ids are the
    // chunks in stream order.
    for (index, (id, spans)) in accepted.iter().enumerate() {
        let mut spans = spans.clone();
        spans.sort_by_key(|s| chunk_stage_rank(s.stage));
        let stages: Vec<Stage> = spans.iter().map(|s| s.stage).collect();
        let core = [Stage::RingWait, Stage::Drain, Stage::Publish];
        match transport {
            Transport::InProcess => assert_eq!(stages, core, "chunk {index}"),
            Transport::Tcp => {
                let tail = if stages.first() == Some(&Stage::WireDecode) {
                    &stages[1..]
                } else {
                    &stages[..]
                };
                assert_eq!(tail, core, "chunk {index}: {stages:?}");
            }
        }
        // Causal order: each span starts no earlier than the one before
        // ends; the pop instant both ends the ring wait and starts the
        // drain.
        for pair in spans.windows(2) {
            assert!(
                end(&pair[0]) <= pair[1].start_us,
                "chunk {index}: {:?} ends after {:?} starts",
                pair[0],
                pair[1]
            );
        }
        let wait = spans.iter().find(|s| s.stage == Stage::RingWait).unwrap();
        let drain = spans.iter().find(|s| s.stage == Stage::Drain).unwrap();
        assert_eq!(end(wait), drain.start_us, "chunk {index}: one pop instant");
        let generation = if index < BEFORE_SWAP {
            0
        } else {
            run.swapped_to as u32
        };
        for span in &spans {
            assert_eq!(
                (span.session, span.shard, span.generation),
                (run.session, run.shard, generation),
                "chunk {index}: attribution of {span:?}"
            );
        }
        let alarmed = run.oracle[index].1;
        assert_eq!(
            pins.get(id).copied(),
            alarmed.then_some(PinReason::Alarm),
            "chunk {index}: alarm pin"
        );
    }
    assert!(
        run.oracle.iter().any(|&(_, alarm)| alarm),
        "the workload raises alarms"
    );

    // The shed chunk: one zero-length enqueue span, pinned as a drop.
    match transport {
        Transport::InProcess => {
            assert_eq!(shed.len(), 1, "one chunk was shed");
            let (id, spans) = &shed[0];
            assert_eq!(spans.len(), 1);
            let span = spans[0];
            assert_eq!(span.stage, Stage::RingEnqueue);
            assert_eq!(span.dur_us, 0);
            assert_eq!(
                (span.session, span.shard, span.generation),
                (run.session, run.shard, run.swapped_to as u32)
            );
            assert_eq!(pins.get(id), Some(&PinReason::Drop));
        }
        Transport::Tcp => assert!(shed.is_empty(), "TCP throttles, never sheds"),
    }

    // The feedback: retrained off any session, then propagated into this
    // one. The propagation spans submit → applied swap, so it starts no
    // later than the retrain (which the worker may outlast: the swap is
    // staged inside the retrain and can apply before it ends).
    assert_eq!(feedback.len(), 1, "one feedback trace");
    let (id, spans) = &feedback[0];
    assert_eq!(spans.len(), 2, "{spans:?}");
    let retrain = spans
        .iter()
        .find(|s| s.stage == Stage::AdaptRetrain)
        .unwrap();
    let propagate = spans
        .iter()
        .find(|s| s.stage == Stage::AdaptPropagate)
        .unwrap();
    assert_eq!(
        (retrain.session, retrain.shard, retrain.generation),
        (0, 0, 0)
    );
    assert_eq!(
        (propagate.session, propagate.shard, propagate.generation),
        (run.session, run.shard, run.swapped_to as u32)
    );
    assert!(propagate.start_us <= retrain.start_us);
    assert_eq!(pins.get(id), Some(&PinReason::ModelSwap));

    let alarms = run.oracle.iter().filter(|&&(_, alarm)| alarm).count();
    let shed_pins = usize::from(transport == Transport::InProcess);
    assert_eq!(
        pins.len(),
        alarms + shed_pins + 1,
        "no other pins: {pins:?}"
    );
}

/// Stage histogram sample counts: one per interval the workload crosses
/// when timing is on, none when it is off — whether or not tracing is.
fn check_histograms(transport: Transport, timing: bool, run: &Run) {
    let streamed = BEFORE_SWAP + AFTER_SWAP;
    let publishes = |outputs: &[(usize, bool)]| outputs.iter().filter(|o| o.0 > 0).count();
    // One pass per streamed chunk, one for the swap marker, and (in
    // process) one draining the lossy phase's chunks together.
    let (passes, published) = match transport {
        Transport::InProcess => {
            let lossy = &run.oracle[streamed..];
            (
                streamed + 1 + 1,
                publishes(&run.oracle[..streamed]) + 1 + usize::from(publishes(lossy) > 0),
            )
        }
        Transport::Tcp => (streamed + 1, publishes(&run.oracle) + 1),
    };
    assert_eq!(run.stats.totals.drains, passes as u64, "productive passes");
    let accepted = run.oracle.len();
    let (wire_decode, ring_enqueue) = match transport {
        Transport::InProcess => (0, 0),
        // Hello, every chunk, the feedback and Close are decoded.
        Transport::Tcp => (streamed + 3, streamed),
    };
    let expected = |stage: Stage| -> usize {
        if !timing {
            return 0;
        }
        match stage {
            Stage::WireDecode => wire_decode,
            Stage::RingEnqueue => ring_enqueue,
            Stage::RingWait => accepted,
            Stage::Drain => passes,
            Stage::Publish => published,
            Stage::AdaptRetrain | Stage::AdaptPropagate => 1,
        }
    };
    for stage in Stage::ALL {
        assert_eq!(
            run.stats.telemetry.stages.get(stage).count,
            expected(stage) as u64,
            "{} samples",
            stage.name()
        );
    }
}

fn check_all(transport: Transport) {
    let work = Workload::new();
    for (timing, trace) in CONFIGS {
        let run = run(transport, timing, trace, &work);
        assert!(run.swapped_to > 0, "the feedback produced a new generation");
        check_histograms(transport, timing, &run);
        if trace {
            check_trace(transport, &run, &work);
        } else {
            assert!(!run.trace.enabled);
            assert!(run.trace.spans.is_empty());
            assert_eq!(run.stats.telemetry.trace, TraceStats::default());
        }
    }
}

#[test]
fn in_process_chunks_keep_their_span_chain() {
    check_all(Transport::InProcess);
}

#[test]
fn tcp_chunks_keep_their_span_chain() {
    check_all(Transport::Tcp);
}
