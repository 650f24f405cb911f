//! Session-engine guarantees: the service's event stream is byte-identical
//! to a bare `Detector` under concurrent sessions; backpressure is
//! explicit; counters add up.

mod common;

use common::{interleave, trained_model, two_state_signal};
use laelaps_core::Detector;
use laelaps_eval::parallel::IDLE_POLL;
use laelaps_ieeg::Recording;
use laelaps_serve::{DetectionService, PushError, ServeConfig, SessionOutput};

/// The headline parity property: 10 concurrent sessions (mixed patients,
/// mixed chunk sizes) must each produce exactly the event sequence a bare
/// `Detector` produces for the same input.
#[test]
fn service_matches_bare_detector_under_concurrency() {
    let models = [trained_model(51), trained_model(52)];
    let service = DetectionService::new(ServeConfig {
        workers: 4,
        ring_chunks: 8, // small ring to exercise backpressure
        ..ServeConfig::default()
    });

    let sessions = 10;
    let mut handles = Vec::new();
    let mut inputs = Vec::new();
    for i in 0..sessions {
        let model = &models[i % models.len()];
        let signal = two_state_signal(4, 512 * 20, 512 * 6..512 * 14, 900 + i as u64);
        let handle = service
            .open_session(&format!("P{i}"), model)
            .expect("session opens");
        handles.push(handle);
        inputs.push(signal);
    }
    assert_eq!(service.session_count(), sessions);

    // Stream every signal, interleaving pushes across sessions with a
    // different chunk size per session, retrying on Full (backpressure).
    let interleaved: Vec<Vec<f32>> = inputs.iter().map(|s| interleave(s)).collect();
    let mut offsets = vec![0usize; sessions];
    let chunk_samples: Vec<usize> = (0..sessions).map(|i| [64, 252, 1024][i % 3] * 4).collect();
    loop {
        let mut all_done = true;
        for i in 0..sessions {
            let data = &interleaved[i];
            if offsets[i] >= data.len() {
                continue;
            }
            all_done = false;
            let end = (offsets[i] + chunk_samples[i]).min(data.len());
            match handles[i].try_push_chunk(data[offsets[i]..end].into()) {
                Ok(()) => offsets[i] = end,
                Err(PushError::Full(_)) => std::thread::yield_now(),
                Err(e) => panic!("unexpected push error: {e}"),
            }
        }
        if all_done {
            break;
        }
    }
    for handle in &mut handles {
        handle.close();
    }
    service.flush();

    for (i, handle) in handles.iter().enumerate() {
        let model = &models[i % models.len()];
        let expected = Detector::new(model).unwrap().run(&inputs[i]).unwrap();
        let got = handle.take_events();
        assert!(!expected.is_empty());
        assert_eq!(
            got, expected,
            "session {i}: service events must be identical to a bare Detector"
        );
        assert!(handle.error().is_none());
        let stats = handle.stats();
        assert_eq!(stats.frames_in, 512 * 20);
        assert_eq!(stats.frames_processed, 512 * 20);
        assert_eq!(stats.frames_dropped, 0);
        assert_eq!(stats.events_out, expected.len() as u64);
    }
}

#[test]
fn alarms_reach_both_outbox_and_bus() {
    let model = trained_model(53);
    let service = DetectionService::new(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    // Seizure-bearing stream for P-alarm, background-only for P-quiet.
    let hot = two_state_signal(4, 512 * 40, 512 * 15..512 * 30, 1001);
    let quiet = two_state_signal(4, 512 * 40, 0..0, 1002);

    let mut hot_handle = service.open_session("P-alarm", &model).unwrap();
    let mut quiet_handle = service.open_session("P-quiet", &model).unwrap();
    hot_handle.try_push_chunk(interleave(&hot).into()).unwrap();
    quiet_handle
        .try_push_chunk(interleave(&quiet).into())
        .unwrap();
    hot_handle.close();
    quiet_handle.close();
    service.flush();

    let bus = service.take_alarms();
    assert!(!bus.is_empty(), "the seizure stream must raise an alarm");
    assert!(bus.iter().all(|a| a.patient == "P-alarm"));
    assert!(bus.iter().all(|a| a.event.alarm.is_some()));
    assert!(bus[0].time_secs() > 0.0);
    assert_eq!(service.take_alarms().len(), 0, "bus drains");

    let hot_events = hot_handle.take_events();
    let alarmed = hot_events.iter().filter(|e| e.alarm.is_some()).count();
    assert_eq!(alarmed, bus.len(), "outbox and bus agree");
    assert_eq!(hot_handle.stats().alarms_out as usize, bus.len());
    assert_eq!(quiet_handle.stats().alarms_out, 0);
}

#[test]
fn backpressure_is_explicit_and_lossless_paths_count_drops() {
    let model = trained_model(54);
    // One worker, tiny ring: force Full quickly by making the worker
    // unable to keep up instantaneously.
    let service = DetectionService::new(ServeConfig {
        workers: 1,
        ring_chunks: 2,
        ..ServeConfig::default()
    });
    let mut handle = service.open_session("P", &model).unwrap();
    let chunk: Box<[f32]> = vec![0.0f32; 4 * 2048].into();

    // try_push returns the chunk back on Full — nothing lost.
    let mut saw_full = false;
    for _ in 0..50 {
        match handle.try_push_chunk(chunk.clone()) {
            Ok(()) => {}
            Err(PushError::Full(returned)) => {
                assert_eq!(returned.len(), chunk.len());
                saw_full = true;
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(saw_full, "a 2-chunk ring must report Full under a burst");

    // The lossy path drops and counts instead.
    let mut dropped_any = false;
    for _ in 0..50 {
        if !handle.push_chunk_lossy(&chunk) {
            dropped_any = true;
            break;
        }
    }
    assert!(dropped_any);
    service.flush();
    let stats = handle.stats();
    assert!(stats.frames_dropped > 0);
    assert_eq!(stats.frames_processed, stats.frames_in);

    // Width errors are rejected up front.
    assert!(matches!(
        handle.try_push_chunk(vec![0.0f32; 7].into()),
        Err(PushError::FrameWidth {
            expected: 4,
            got: 7
        })
    ));
    // And a closed handle refuses input.
    handle.close();
    assert!(matches!(
        handle.try_push_chunk(vec![0.0f32; 8].into()),
        Err(PushError::Closed)
    ));
}

#[test]
fn ieeg_frame_cursor_feeds_sessions() {
    // The streaming-source adapter: a synthetic Recording streamed
    // through the service chunk-by-chunk matches Detector::run.
    let model = trained_model(55);
    let signal = two_state_signal(4, 512 * 20, 512 * 8..512 * 16, 2024);
    let recording = Recording::from_channels(512, signal.clone()).unwrap();

    let service = DetectionService::new(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let mut handle = service.open_session("P55", &model).unwrap();
    let mut cursor = recording.frames();
    let mut chunk = Vec::new();
    while cursor.read_chunk(256, &mut chunk) > 0 {
        let mut pending: Box<[f32]> = chunk.as_slice().into();
        loop {
            match handle.try_push_chunk(pending) {
                Ok(()) => break,
                Err(PushError::Full(back)) => {
                    pending = back;
                    std::thread::yield_now();
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        chunk.clear();
    }
    handle.close();
    service.flush();

    let expected = Detector::new(&model).unwrap().run(&signal).unwrap();
    assert_eq!(handle.take_events(), expected);
}

/// Regression for the missing worker wakeup on push: a chunk pushed to a
/// fully idle service must be picked up by a notified worker immediately,
/// not on the pool's idle-poll timeout (1 s). No `flush()` here — flush
/// notifies the pool itself and would mask the bug.
#[test]
fn push_on_an_idle_service_is_processed_well_under_the_idle_poll() {
    let model = trained_model(57);
    let service = DetectionService::new(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let mut handles: Vec<_> = (0..8)
        .map(|i| service.open_session(&format!("P{i}"), &model).unwrap())
        .collect();
    // Let every worker drain the (empty) shards and park.
    std::thread::sleep(std::time::Duration::from_millis(50));

    let frames = 256u64;
    let start = std::time::Instant::now();
    handles[5]
        .try_push_chunk(vec![0.0f32; 4 * frames as usize].into())
        .unwrap();
    // Typical wakeup + 0.5 s-of-signal drain is well under 1 ms; the
    // asserted bound is loose for CI noise but still far below the 1 s
    // idle poll a lost wakeup would cost.
    let budget = std::time::Duration::from_millis(100);
    while handles[5].stats().frames_processed < frames {
        assert!(
            start.elapsed() < budget,
            "idle pool took >{budget:?} to notice a push (lost wakeup?)"
        );
        std::thread::sleep(std::time::Duration::from_micros(100));
    }
}

/// `flush()` must not spin: on an all-idle service it returns at once,
/// and while waiting for real work it sleeps on the progress condvar
/// (bounded wakeups), which this test can only observe as promptness.
#[test]
fn flush_on_an_idle_service_returns_immediately() {
    let model = trained_model(58);
    let service = DetectionService::new(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    });
    let _handles: Vec<_> = (0..32)
        .map(|i| service.open_session(&format!("P{i}"), &model).unwrap())
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(20));
    let start = std::time::Instant::now();
    for _ in 0..100 {
        service.flush();
    }
    assert!(
        start.elapsed() < std::time::Duration::from_millis(200),
        "flush on a caught-up 32-session service must not wait or spin"
    );
}

/// Per-shard progress regression: an idle shard's event pump must not be
/// woken by another shard's drain batches. Before the progress signal was
/// split per shard, every drain on any shard woke every waiter —
/// O(connections) spurious wakeups per batch at fleet scale.
#[test]
fn idle_shards_event_pump_is_not_woken_by_another_shards_progress() {
    let model = trained_model(61);
    let service = DetectionService::new(ServeConfig {
        workers: 2,
        ring_chunks: 8,
        ..ServeConfig::default()
    });
    // Two sessions on level shards: least-loaded placement puts them on
    // shards 0 and 1 (asserted below, not assumed).
    let mut busy = service.open_session("P-busy", &model).unwrap();
    let idle = service.open_session("P-idle", &model).unwrap();
    let shard_of = |session: u64| {
        service
            .stats()
            .per_session
            .iter()
            .find(|e| e.session == session)
            .expect("session is live")
            .shard
    };
    assert_ne!(shard_of(busy.id()), shard_of(idle.id()));

    let tap = idle.tap();
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let counter = {
        let stop = std::sync::Arc::clone(&stop);
        let tap = tap.clone();
        std::thread::spawn(move || {
            // Count how many times the idle session's progress signal
            // moves while the other shard churns. With per-shard signals
            // this must be zero: the idle shard's worker never finds
            // work, so it never bumps its own generation.
            let mut wakeups = 0u64;
            let mut seen = tap.progress_generation();
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                let now = tap.wait_progress(seen, std::time::Duration::from_millis(20));
                if now != seen {
                    wakeups += 1;
                    seen = now;
                }
            }
            wakeups
        })
    };

    // Churn the busy shard: many small chunks, each drain batch bumping
    // that shard's progress.
    for _ in 0..200 {
        let mut pending: Box<[f32]> = vec![0.0f32; 4 * 64].into();
        loop {
            match busy.try_push_chunk(pending) {
                Ok(()) => break,
                Err(PushError::Full(back)) => {
                    pending = back;
                    std::thread::yield_now();
                }
                Err(e) => panic!("unexpected push error: {e}"),
            }
        }
    }
    busy.close();
    service.flush();
    stop.store(true, std::sync::atomic::Ordering::Release);
    let wakeups = counter.join().expect("counter thread survives");
    assert_eq!(
        wakeups, 0,
        "idle shard's waiter was woken {wakeups} times by the busy shard"
    );
    // Sanity: the busy shard really did work the whole time.
    assert_eq!(busy.stats().frames_processed, 200 * 64);
}

/// Refused pushes (closed/failed session) are counted, so offered load
/// is always `frames_in + frames_dropped + frames_refused`.
#[test]
fn lossy_pushes_on_a_closed_session_count_as_refused() {
    let model = trained_model(59);
    let service = DetectionService::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut handle = service.open_session("P", &model).unwrap();
    assert!(handle.push_chunk_lossy(&vec![0.0f32; 4 * 128]));
    handle.close();
    assert!(!handle.push_chunk_lossy(&vec![0.0f32; 4 * 128]));
    assert!(!handle.push_chunk_lossy(&vec![0.0f32; 4 * 64]));
    service.flush();
    let stats = handle.stats();
    assert_eq!(stats.frames_in, 128);
    assert_eq!(stats.frames_refused, 192);
    assert_eq!(stats.frames_dropped, 0);
    // The service totals surface the refusals too (live or retired).
    assert_eq!(service.stats().totals.frames_refused, 192);
}

/// New sessions land on the least-loaded shard, so retirements do not
/// skew placement the way `id % shards` did.
#[test]
fn new_sessions_fill_the_least_loaded_shard() {
    let model = trained_model(60);
    let service = DetectionService::new(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let shard_of = |service: &DetectionService, session: u64| {
        service
            .stats()
            .per_session
            .iter()
            .find(|e| e.session == session)
            .expect("session is live")
            .shard
    };
    let mut handles: Vec<_> = (0..4)
        .map(|i| service.open_session(&format!("P{i}"), &model).unwrap())
        .collect();
    // Round-robin while loads are level (ties go to the lowest shard).
    let placements: Vec<usize> = handles.iter().map(|h| shard_of(&service, h.id())).collect();
    assert_eq!(placements, vec![0, 1, 0, 1]);

    // Retire both shard-0 sessions; the next opens must refill shard 0
    // instead of continuing round-robin onto the loaded shard 1.
    handles[0].close();
    handles[2].close();
    service.flush();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while service.session_count() != 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "closed sessions never retired"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let refill_a = service.open_session("P4", &model).unwrap();
    let refill_b = service.open_session("P5", &model).unwrap();
    assert_eq!(shard_of(&service, refill_a.id()), 0);
    assert_eq!(shard_of(&service, refill_b.id()), 0);
}

#[test]
fn finished_sessions_retire_from_the_service() {
    let model = trained_model(56);
    let service = DetectionService::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut handle = service.open_session("P", &model).unwrap();
    handle.try_push_chunk(vec![0.0f32; 4 * 512].into()).unwrap();
    assert_eq!(service.session_count(), 1);
    handle.close();
    service.flush();
    // After close + drain the worker retires the session from its shard.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while service.session_count() != 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "closed session never retired"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    // The handle still serves events and stats after retirement, and the
    // service totals keep counting the retired session.
    assert_eq!(handle.stats().frames_in, 512);
    let stats = service.stats();
    assert_eq!(stats.retired_sessions, 1);
    assert_eq!(stats.totals.frames_in, 512);
    assert!(stats.per_session.is_empty());
    let _ = handle.take_events();
}

/// Polls `done` until it holds, failing the test if that takes longer
/// than half the pool's idle poll: a worker that was never woken only
/// finds work on a timeout rescan, if at all.
fn within_half_the_idle_poll(what: &str, mut done: impl FnMut() -> bool) {
    let budget = IDLE_POLL / 2;
    let start = std::time::Instant::now();
    while !done() {
        assert!(
            start.elapsed() < budget,
            "{what} took longer than {budget:?}"
        );
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
}

/// Dropping a handle closes its stream the way `close()` does, waking
/// the worker so that it retires the session at once. The worker is
/// parked when the handle goes, and nothing else would wake it.
#[test]
fn dropping_a_handle_retires_its_session_promptly() {
    let model = trained_model(62);
    let service = DetectionService::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut handle = service.open_session("P", &model).unwrap();
    handle.try_push_chunk(vec![0.0f32; 4 * 256].into()).unwrap();
    service.flush();
    // Let the worker park on its empty ready queue.
    std::thread::sleep(std::time::Duration::from_millis(50));
    drop(handle);
    within_half_the_idle_poll("retiring a dropped handle's session", || {
        service.session_count() == 0
    });
    assert_eq!(service.stats().retired_sessions, 1);
}

/// Every path that gives a caught-up session work without a push must
/// wake its worker itself: a swap request, `close`, dropping the handle,
/// and un-wedging a session whose chunk arrived while it was wedged. Each
/// trigger hits a session whose worker is parked, and no push follows.
#[test]
fn work_without_a_push_wakes_the_parked_worker() {
    let model = trained_model(63);
    let service = DetectionService::new(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let chunk = || -> Box<[f32]> { vec![0.0f32; 4 * 256].into() };
    let park = || std::thread::sleep(std::time::Duration::from_millis(50));
    let caught_up = || {
        let mut handle = service.open_session("P", &model).unwrap();
        handle.try_push_chunk(chunk()).unwrap();
        service.flush();
        park();
        handle
    };
    let live = |id: u64| service.stats().per_session.iter().any(|e| e.session == id);

    // A swap request: the staged model is the session's only work.
    let handle = caught_up();
    let next = std::sync::Arc::new(model.clone().with_generation(1));
    service.swap_session_model(handle.id(), &next).unwrap();
    let mut outputs = Vec::new();
    within_half_the_idle_poll("applying a swap to an idle session", || {
        outputs.extend(handle.take_outputs());
        outputs
            .iter()
            .any(|o| matches!(o, SessionOutput::ModelSwapped { .. }))
    });
    service.flush();
    outputs.extend(handle.take_outputs());
    let frames_in = handle.stats().frames_in;
    assert_eq!(
        outputs.last(),
        Some(&SessionOutput::ModelSwapped {
            generation: 1,
            at_frame: frames_in,
        }),
        "the swap lands after every accepted frame"
    );
    assert_eq!(handle.generation(), 1);

    // `close`: the closed stream is the work; the session retires.
    let mut closed = caught_up();
    closed.close();
    within_half_the_idle_poll("retiring a closed session", || !live(closed.id()));

    // Dropping the handle does what `close` does.
    let dropped = caught_up();
    let dropped_id = dropped.id();
    drop(dropped);
    within_half_the_idle_poll("retiring a dropped session", || !live(dropped_id));

    // Un-wedging: the chunk pushed during the wedge was passed over and
    // left queued; the unwedge alone must bring the worker back to it.
    let mut wedged = caught_up();
    service.debug_wedge_session(wedged.id(), true);
    wedged.try_push_chunk(chunk()).unwrap();
    park();
    assert!(!wedged.is_caught_up(), "a wedged session drains nothing");
    service.debug_wedge_session(wedged.id(), false);
    within_half_the_idle_poll("draining an unwedged session", || wedged.is_caught_up());
    assert_eq!(wedged.stats().frames_processed, 2 * 256);
}
