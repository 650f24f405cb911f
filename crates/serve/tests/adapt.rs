//! Online-adaptation guarantees: format v2 round-trips the resumable
//! training state losslessly (and v1 files still load); `absorb` after a
//! load equals retraining from the union of segments; a mid-stream hot
//! swap has exactly one swap point with zero dropped frames, bit-exact
//! old-model and new-model event streams on either side, and the
//! postprocessor state carried across — also when the swap is requested
//! while chunks are still queued; the in-process `AdaptationEngine`
//! closes the whole feedback → retrain → publish → swap loop.

mod common;

use std::sync::Arc;

use common::{interleave, trained_model, two_state_signal};
use laelaps_core::{Detector, Label, PatientModel, TrainingData};
use laelaps_serve::adapt::{AdaptationEngine, FeedbackSegment};
use laelaps_serve::{
    load_model, save_model, DetectionService, ModelRegistry, PushError, ServeConfig, ServeError,
    ServiceEvent, SessionHandle, SessionOutput,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Pushes one chunk, retrying while the session's queue is full.
fn push_chunk(handle: &mut SessionHandle, chunk: &[f32]) {
    let mut pending: Box<[f32]> = chunk.into();
    loop {
        match handle.try_push_chunk(pending) {
            Ok(()) => return,
            Err(PushError::Full(back)) => {
                pending = back;
                std::thread::yield_now();
            }
            Err(e) => panic!("unexpected push error: {e}"),
        }
    }
}

fn push_all(handle: &mut SessionHandle, interleaved: &[f32]) {
    for chunk in interleaved.chunks(256 * 4) {
        push_chunk(handle, chunk);
    }
}

// ---------------------------------------------------------------------------
// Persistence: format v2
// ---------------------------------------------------------------------------

#[test]
fn v2_roundtrip_preserves_state_and_generation_losslessly() {
    let model = trained_model(81);
    assert!(model.train_state().is_some(), "training keeps its state");
    let feedback = two_state_signal(4, 512 * 20, 512 * 2..512 * 18, 82);
    let updated = model
        .absorb(&TrainingData::new(&feedback).ictal(512 * 2..512 * 18))
        .unwrap();
    assert_eq!(updated.generation(), 1);

    let mut bytes = Vec::new();
    save_model(&updated, &mut bytes).unwrap();
    let back = load_model(&mut bytes.as_slice()).unwrap();
    assert_eq!(back.config(), updated.config());
    assert_eq!(back.electrodes(), updated.electrodes());
    assert_eq!(back.am(), updated.am());
    assert_eq!(back.generation(), 1);
    // The accumulators themselves round-trip exactly — counts and
    // addition totals.
    assert_eq!(back.train_state().unwrap(), updated.train_state().unwrap());
}

#[test]
fn stateless_models_still_write_and_read_version_1() {
    let with_state = trained_model(83);
    let stateless = PatientModel::new(
        with_state.config().clone(),
        with_state.electrodes(),
        with_state.am().clone(),
    )
    .unwrap();
    let mut bytes = Vec::new();
    save_model(&stateless, &mut bytes).unwrap();
    // The header literally says version 1: previous builds read this file.
    let header_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let header = std::str::from_utf8(&bytes[12..12 + header_len]).unwrap();
    assert!(header.contains("\"format\":1"), "{header}");
    let back = load_model(&mut bytes.as_slice()).unwrap();
    assert_eq!(back.generation(), 0);
    assert!(back.train_state().is_none());
    assert!(matches!(
        back.absorb(&TrainingData::new(&two_state_signal(4, 512 * 10, 0..0, 84)).ictal(0..512 * 5)),
        Err(laelaps_core::LaelapsError::MissingTrainState)
    ));
}

#[test]
fn absorb_after_load_equals_retraining_from_the_union() {
    // Train, persist, load, absorb: must equal absorbing the in-memory
    // model (which the core tests prove equals retraining on the union).
    let model = trained_model(85);
    let mut bytes = Vec::new();
    save_model(&model, &mut bytes).unwrap();
    let loaded = load_model(&mut bytes.as_slice()).unwrap();

    let feedback = two_state_signal(4, 512 * 25, 512 * 5..512 * 20, 86);
    let data = TrainingData::new(&feedback).ictal(512 * 5..512 * 20);
    let from_loaded = loaded.absorb(&data).unwrap();
    let from_memory = model.absorb(&data).unwrap();
    assert_eq!(from_loaded.am(), from_memory.am());
    assert_eq!(
        from_loaded.train_state().unwrap(),
        from_memory.train_state().unwrap()
    );
    assert_eq!(from_loaded.generation(), from_memory.generation());
}

// ---------------------------------------------------------------------------
// Registry: generations + rollback
// ---------------------------------------------------------------------------

#[test]
fn publish_archives_generations_and_rollback_restores_the_predecessor() {
    let dir = std::env::temp_dir().join(format!("laelaps-adapt-gens-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = ModelRegistry::open(&dir).unwrap();
    let gen0 = trained_model(87);
    let feedback = two_state_signal(4, 512 * 20, 512 * 2..512 * 18, 88);
    let gen1 = gen0
        .absorb(&TrainingData::new(&feedback).ictal(512 * 2..512 * 18))
        .unwrap();

    assert_eq!(registry.publish("P", &gen0).unwrap(), 0);
    assert_eq!(registry.publish("P", &gen1).unwrap(), 1);
    assert_eq!(registry.generations("P").unwrap(), vec![0, 1]);
    assert_eq!(registry.load("P").unwrap().generation(), 1);
    // Archives do not pollute the patient listing.
    assert_eq!(registry.patient_ids().unwrap(), vec!["P".to_string()]);

    let rolled = registry.rollback("P").unwrap();
    assert_eq!(rolled.generation(), 0);
    assert_eq!(rolled.am(), gen0.am());
    assert_eq!(registry.load("P").unwrap().generation(), 0);
    // No generation older than 0 exists.
    assert!(matches!(
        registry.rollback("P"),
        Err(ServeError::NoPriorGeneration { .. })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn old_generation_archives_are_pruned_to_the_configured_depth() {
    let dir = std::env::temp_dir().join(format!("laelaps-adapt-prune-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = ModelRegistry::open_with(
        &dir,
        laelaps_serve::RegistryConfig {
            keep_generations: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let mut model = trained_model(89);
    registry.publish("P", &model).unwrap();
    for i in 0..4u64 {
        let feedback = two_state_signal(4, 512 * 12, 512 * 2..512 * 10, 90 + i);
        model = model
            .absorb(&TrainingData::new(&feedback).ictal(512 * 2..512 * 10))
            .unwrap();
        registry.publish("P", &model).unwrap();
    }
    // Generations 0..=4 were published. The newest archive (4) mirrors
    // the current model; besides it, keep_generations = 2 rollback
    // targets survive.
    assert_eq!(registry.generations("P").unwrap(), vec![2, 3, 4]);
    assert_eq!(registry.load("P").unwrap().generation(), 4);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Registry: LRU cache
// ---------------------------------------------------------------------------

#[test]
fn registry_cache_is_lru_bounded_and_counts_hits_misses_evictions() {
    let dir = std::env::temp_dir().join(format!("laelaps-adapt-lru-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = ModelRegistry::open_with(
        &dir,
        laelaps_serve::RegistryConfig {
            cache_entries: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let model = trained_model(91);
    for id in ["A", "B", "C"] {
        registry.save(id, &model).unwrap();
    }
    // save() primes the cache, so inserting 3 under a cap of 2 already
    // evicted the coldest (A).
    let stats = registry.stats();
    assert_eq!(stats.cached_entries, 2);
    assert_eq!(stats.evictions, 1);

    // B and C are warm; A must be re-read from disk.
    registry.load("B").unwrap();
    registry.load("C").unwrap();
    assert_eq!(registry.stats().hits, 2);
    assert_eq!(registry.stats().misses, 0);
    registry.load("A").unwrap(); // miss; evicts B (coldest after the hits)
    let stats = registry.stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.evictions, 2);
    assert_eq!(stats.cached_entries, 2);
    // C stayed warm through it all.
    registry.load("C").unwrap();
    assert_eq!(registry.stats().hits, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Hot swap: the parity acceptance test
// ---------------------------------------------------------------------------

/// A session that absorbs feedback mid-stream must emit, for every frame,
/// either the old-model or the new-model bit-exact event — one swap
/// point, no dropped or duplicated frames — and its post-swap output must
/// be byte-identical to a bare `Detector` built from the published v2
/// model run over the same full stream.
#[test]
fn hot_swap_has_one_swap_point_and_bit_exact_streams_on_both_sides() {
    let model_a = trained_model(93);
    let feedback = two_state_signal(4, 512 * 20, 512 * 2..512 * 18, 94);
    let model_b = model_a
        .absorb(&TrainingData::new(&feedback).ictal(512 * 2..512 * 18))
        .unwrap();

    // Round-trip the new model through persistence first: the session
    // must swap to exactly what a reader of the published v2 file runs.
    let mut bytes = Vec::new();
    save_model(&model_b, &mut bytes).unwrap();
    let model_b = Arc::new(load_model(&mut bytes.as_slice()).unwrap());

    // Phase 1: pure background. Phase 2: background with a seizure well
    // past the swap point (> postprocess_len events), so the carried
    // postprocessor window has fully aged out by the time it matters and
    // the suffix comparison below is exact including alarms.
    let phase1 = two_state_signal(4, 512 * 30, 0..0, 95);
    let phase2 = two_state_signal(4, 512 * 30, 512 * 10..512 * 22, 96);
    let full: Vec<Vec<f32>> = phase1
        .iter()
        .zip(&phase2)
        .map(|(a, b)| {
            let mut ch = a.clone();
            ch.extend_from_slice(b);
            ch
        })
        .collect();

    let service = DetectionService::new(ServeConfig {
        workers: 2,
        ring_chunks: 64,
        ..ServeConfig::default()
    });
    let mut handle = service.open_session("P", &model_a).unwrap();
    assert_eq!(handle.generation(), 0);
    push_all(&mut handle, &interleave(&phase1));
    service.flush();
    // Every phase-1 frame is processed, so the swap barrier is already
    // met: the swap applies before any phase-2 frame.
    service
        .swap_session_model(handle.id(), &model_b)
        .expect("swap request accepted");
    push_all(&mut handle, &interleave(&phase2));
    handle.close();
    service.flush();

    let outputs = handle.take_outputs();
    let old_prefix = Detector::new(&model_a).unwrap().run(&phase1).unwrap();
    let new_full = Detector::new(&model_b).unwrap().run(&full).unwrap();
    let n1 = old_prefix.len();
    assert!(!old_prefix.is_empty() && new_full.len() > n1);

    // Exactly one swap marker, exactly at the phase boundary.
    let swap_points: Vec<usize> = outputs
        .iter()
        .enumerate()
        .filter(|(_, o)| matches!(o, SessionOutput::ModelSwapped { .. }))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(swap_points, vec![n1], "single swap point at the boundary");
    assert!(matches!(
        outputs[n1],
        SessionOutput::ModelSwapped {
            generation: 1,
            at_frame,
        } if at_frame == 512 * 30
    ));

    // Prefix: bit-exact old-model events. Suffix: bit-exact new-model
    // events at the same stream indices (timestamps, distances, alarms).
    for (i, want) in old_prefix.iter().enumerate() {
        assert_eq!(outputs[i], SessionOutput::Event(*want), "prefix event {i}");
    }
    let suffix: Vec<_> = outputs[n1 + 1..]
        .iter()
        .map(|o| match o {
            SessionOutput::Event(event) => *event,
            other => panic!("unexpected second marker: {other:?}"),
        })
        .collect();
    assert_eq!(suffix, new_full[n1..], "post-swap suffix is byte-identical");
    // The post-swap stream still contains the seizure alarm.
    assert!(suffix.iter().any(|e| e.alarm.is_some()));

    // No frame lost or duplicated across the swap.
    let stats = handle.stats();
    assert_eq!(stats.frames_in, 512 * 60);
    assert_eq!(stats.frames_processed, 512 * 60);
    assert_eq!(stats.frames_dropped + stats.frames_discarded, 0);
    assert_eq!(handle.generation(), 1);

    // The swap also surfaced on the service bus, separate from alarms.
    let swaps = service.take_swap_events();
    assert_eq!(swaps.len(), 1);
    assert!(matches!(
        &swaps[0],
        ServiceEvent::ModelSwapped {
            patient,
            generation: 1,
            at_frame,
            ..
        } if patient == "P" && *at_frame == 512 * 30
    ));
    assert!(!service.take_alarms().is_empty(), "alarm stayed on the bus");
}

/// What a bare `Detector` emits over `frames` (frame-major, 4
/// electrodes) when it runs `first` for the first `at_frame` frames and
/// is then switched to `next` with [`Detector::hot_swap`], with the
/// marker the service puts at that position.
fn bare_with_swap(
    first: &PatientModel,
    next: &PatientModel,
    frames: &[f32],
    at_frame: u64,
) -> Vec<SessionOutput> {
    let mut detector = Detector::new(first).unwrap();
    let (before, after) = frames.split_at(at_frame as usize * 4);
    let mut out = Vec::new();
    for frame in before.chunks_exact(4) {
        if let Some(event) = detector.push_frame(frame).unwrap() {
            out.push(SessionOutput::Event(event));
        }
    }
    detector.hot_swap(next).unwrap();
    out.push(SessionOutput::ModelSwapped {
        generation: next.generation(),
        at_frame,
    });
    for frame in after.chunks_exact(4) {
        if let Some(event) = detector.push_frame(frame).unwrap() {
            out.push(SessionOutput::Event(event));
        }
    }
    out
}

/// A swap requested while chunks are still queued puts its barrier in
/// the middle of the backlog instead of at an idle boundary. Over
/// several seeds, random chunk sizes and 1–3 workers: the swap lands on
/// a chunk boundary no earlier than the frames accepted before the
/// request, and the stream on both sides of it is bit-exact with a bare
/// `Detector` switched at the marker's `at_frame`. A neighbour session
/// of the same patient model, never swapped, streams alongside.
#[test]
fn in_flight_swap_matches_a_bare_detector_switched_at_the_marker() {
    const MAX_CHUNKS_PER_DRAIN: usize = 16; // one drain pass's cap (session.rs)
    let model_a = trained_model(111);
    let feedback = two_state_signal(4, 512 * 20, 512 * 2..512 * 18, 112);
    let model_b = Arc::new(
        model_a
            .absorb(&TrainingData::new(&feedback).ictal(512 * 2..512 * 18))
            .unwrap(),
    );
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let workers = 1 + (seed % 3) as usize;
        let signal = two_state_signal(4, 512 * 40, 512 * 12..512 * 28, 120 + seed);
        let frames = interleave(&signal);
        let total = signal[0].len();
        // Random chunk sizes, cut once: (first frame, frame count).
        let mut chunks = Vec::new();
        let mut at = 0;
        while at < total {
            let len = rng.gen_range(1..=700usize).min(total - at);
            chunks.push((at, len));
            at += len;
        }
        let chunk = |(start, len): (usize, usize)| &frames[start * 4..(start + len) * 4];
        // More queued chunks than one drain pass takes, so some are still
        // queued when the swap is requested even if a pass that began
        // before the wedge pops a few.
        let split = rng.gen_range(MAX_CHUNKS_PER_DRAIN + 1..chunks.len());

        let service = DetectionService::new(ServeConfig {
            workers,
            ring_chunks: chunks.len(),
            ..ServeConfig::default()
        });
        let mut handle = service.open_session("P", &model_a).unwrap();
        let mut neighbour = service.open_session("P", &model_a).unwrap();
        service.debug_wedge_session(handle.id(), true);
        for &c in &chunks[..split] {
            push_chunk(&mut handle, chunk(c));
            push_chunk(&mut neighbour, chunk(c));
        }
        assert!(handle.queued_chunks() > 0, "seed {seed}: backlog queued");
        let accepted = handle.stats().frames_in;
        service
            .swap_session_model(handle.id(), &model_b)
            .expect("swap request accepted");
        service.debug_wedge_session(handle.id(), false);
        for &c in &chunks[split..] {
            push_chunk(&mut handle, chunk(c));
            push_chunk(&mut neighbour, chunk(c));
        }
        handle.close();
        neighbour.close();
        service.flush();

        let outputs = handle.take_outputs();
        let markers: Vec<u64> = outputs
            .iter()
            .filter_map(|o| match o {
                SessionOutput::ModelSwapped { at_frame, .. } => Some(*at_frame),
                SessionOutput::Event(_) => None,
            })
            .collect();
        assert_eq!(markers.len(), 1, "seed {seed}: exactly one swap marker");
        let at_frame = markers[0];
        assert!(
            at_frame >= accepted,
            "seed {seed}: swap at {at_frame} before the barrier {accepted}"
        );
        assert!(
            chunks
                .iter()
                .any(|&(start, len)| (start + len) as u64 == at_frame),
            "seed {seed}: swap at {at_frame} is not a chunk boundary"
        );
        // The wedge kept the worker short of the barrier until the swap
        // was staged, so it lands on the barrier itself, not a chunk
        // later.
        assert_eq!(at_frame, accepted, "seed {seed}: swap past the barrier");
        assert_eq!(
            outputs,
            bare_with_swap(&model_a, &model_b, &frames, at_frame),
            "seed {seed} ({workers} workers): stream differs from the bare detector"
        );
        let stats = handle.stats();
        assert_eq!(stats.frames_in, total as u64);
        assert_eq!(stats.frames_in, stats.frames_processed, "seed {seed}");

        let want: Vec<_> = Detector::new(&model_a)
            .unwrap()
            .run(&signal)
            .unwrap()
            .into_iter()
            .map(SessionOutput::Event)
            .collect();
        assert_eq!(neighbour.take_outputs(), want, "seed {seed}: neighbour");
    }
}

#[test]
fn incompatible_swaps_fail_the_request_not_the_session() {
    let model = trained_model(97);
    let other = trained_model(98); // different seed → different config hash? same config actually
    let service = DetectionService::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut handle = service.open_session("P", &model).unwrap();

    // A model with a different seed is a different pipeline: refused.
    assert!(matches!(
        service.swap_session_model(handle.id(), &Arc::new(other)),
        Err(ServeError::Core(_))
    ));
    // Unknown session ids are reported as such.
    assert!(matches!(
        service.swap_session_model(9999, &Arc::new(model.clone())),
        Err(ServeError::UnknownSession { session: 9999 })
    ));
    // The session is still perfectly healthy.
    handle.try_push_chunk(vec![0.0f32; 4 * 256].into()).unwrap();
    handle.close();
    service.flush();
    assert!(handle.error().is_none());
    assert_eq!(handle.stats().frames_processed, 256);
}

// ---------------------------------------------------------------------------
// The in-process engine loop
// ---------------------------------------------------------------------------

#[test]
fn engine_closes_the_feedback_retrain_publish_swap_loop() {
    let dir = std::env::temp_dir().join(format!("laelaps-adapt-engine-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = Arc::new(ModelRegistry::open(&dir).unwrap());
    let service = Arc::new(DetectionService::new(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }));
    let model = trained_model(99);
    registry.save("P", &model).unwrap();
    let engine = AdaptationEngine::new(Arc::clone(&service), Arc::clone(&registry));

    let mut handle = service.open_from_registry(&registry, "P").unwrap();
    push_all(
        &mut handle,
        &interleave(&two_state_signal(4, 512 * 10, 0..0, 100)),
    );
    service.flush();

    // A confirmed seizure arrives from the review workstation.
    let confirmed = two_state_signal(4, 512 * 16, 0..512 * 16, 101);
    engine
        .submit(FeedbackSegment {
            patient: "P".into(),
            label: Label::Ictal,
            samples: interleave(&confirmed).into(),
        })
        .unwrap();
    engine.flush(); // retrained + published + swap staged
    service.flush(); // swap applied at the (empty-ring) frame boundary

    let stats = engine.stats();
    assert_eq!(stats.feedback_in, 1);
    assert_eq!(stats.retrains, 1);
    assert_eq!(stats.swaps_requested, 1);
    assert_eq!(stats.failures, 0, "{:?}", engine.last_error());

    // Registry holds the new generation (and archived it).
    assert_eq!(registry.load("P").unwrap().generation(), 1);
    assert_eq!(registry.generations("P").unwrap(), vec![1]);

    // The live session applied it and said so in its stream. No waiting
    // loop: service.flush() above guarantees staged swaps are applied —
    // this is the regression test for that guarantee.
    assert_eq!(handle.generation(), 1);
    let outputs = handle.take_outputs();
    assert!(outputs
        .iter()
        .any(|o| matches!(o, SessionOutput::ModelSwapped { generation: 1, .. })));
    let entry = &engine.service_stats().per_session[0];
    assert_eq!(entry.generation, 1);
    let registry_stats = engine.service_stats().telemetry.registry;
    assert!(
        registry_stats.hits + registry_stats.misses > 0,
        "engine stats carry the registry cache counters"
    );

    // Bad feedback (wrong width) is a counted failure, not a crash.
    engine
        .submit(FeedbackSegment {
            patient: "P".into(),
            label: Label::Ictal,
            samples: vec![0.0f32; 7].into(),
        })
        .unwrap();
    engine.flush();
    assert_eq!(engine.stats().failures, 1);
    assert!(engine.last_error().unwrap().contains("divide"));
    // A well-formed but too-short segment (no full analysis window) must
    // not publish a byte-identical generation either.
    engine
        .submit(FeedbackSegment {
            patient: "P".into(),
            label: Label::Ictal,
            samples: vec![0.0f32; 4 * 32].into(),
        })
        .unwrap();
    engine.flush();
    assert_eq!(engine.stats().failures, 2);
    assert!(engine.last_error().unwrap().contains("too short"));
    assert_eq!(registry.load("P").unwrap().generation(), 1, "no churn");
    // Unknown patients fail cleanly too.
    engine
        .submit(FeedbackSegment {
            patient: "NOBODY".into(),
            label: Label::Interictal,
            samples: vec![0.0f32; 4 * 512].into(),
        })
        .unwrap();
    engine.flush();
    assert_eq!(engine.stats().failures, 3);

    handle.close();
    service.flush();
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flush_after_feedback_in_rises_waits_for_the_counted_segment() {
    // `feedback_in` must count a segment only once it is queued: a caller
    // that sees the count reach n and then flushes must find all n
    // segments processed. Each round races one submission against a
    // waiter spinning on the count; no model exists for the patient, so
    // every segment fails fast on the worker and counts as a failure.
    let dir = std::env::temp_dir().join(format!("laelaps-adapt-count-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = Arc::new(ModelRegistry::open(&dir).unwrap());
    let service = Arc::new(DetectionService::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    }));
    let engine = AdaptationEngine::new(service, registry);
    let rounds = 2_000u64;
    let start = std::sync::Barrier::new(2);
    // The first round whose flush returned early, and what it found. The
    // rounds run to the end either way, so the submitter never waits at
    // the barrier for a waiter that panicked.
    let mut early = None;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for _ in 0..rounds {
                start.wait();
                engine
                    .submit(FeedbackSegment {
                        patient: "NOBODY".into(),
                        label: Label::Ictal,
                        samples: vec![0.0f32; 4].into(),
                    })
                    .unwrap();
            }
        });
        for n in 1..=rounds {
            start.wait();
            let mut spins = 0u32;
            while engine.stats().feedback_in < n {
                spins += 1;
                if spins.is_multiple_of(64) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
            engine.flush();
            let stats = engine.stats();
            let processed = stats.retrains + stats.failures;
            if processed != n && early.is_none() {
                early = Some((n, processed));
            }
        }
    });
    assert_eq!(
        early, None,
        "(round, segments processed): flush returned before a counted segment was processed"
    );
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}
