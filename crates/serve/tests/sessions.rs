//! End-to-end per-session observability: the heavy-hitter layer must
//! hold its `O(shards × 3 × top_k)` memory bound while thousands of
//! sessions stream through, and a single wedged session must trip the
//! [`SloRule::SessionStall`] watchdog — naming that session id in the
//! journal — surface over a live wire `SessionStatsRequest`, and
//! recover with zero lost frames once unwedged.

mod common;

use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::trained_model;
use laelaps_serve::net::IngestServer;
use laelaps_serve::wire::{read_message, write_message, Message};
use laelaps_serve::{
    DetectionService, HealthConfig, HealthSnapshot, HealthVerdict, ModelRegistry, PushError,
    ServeConfig, SessionObsConfig, SloRule,
};

const ELECTRODES: usize = 4;
const CHUNK_FRAMES: usize = 256;

fn chunk() -> Box<[f32]> {
    vec![0.0f32; CHUNK_FRAMES * ELECTRODES].into_boxed_slice()
}

/// Polls the service's health view until `pred` holds, panicking with
/// `what` (and the last snapshot) if five seconds pass first.
fn await_health(
    service: &DetectionService,
    what: &str,
    pred: impl Fn(&HealthSnapshot) -> bool,
) -> HealthSnapshot {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let snapshot = service.health_snapshot();
        if pred(&snapshot) {
            return snapshot;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; last snapshot: {snapshot:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Streams 4096 sessions through a two-shard service with tiny sketches
/// (`top_k = 2`): the per-session layer's state must stay bounded by
/// `shards × 3 dimensions × top_k` rows no matter how many sessions
/// churn through, and every accepted frame must still be processed.
#[test]
fn four_thousand_sessions_stay_within_the_sketch_bound() {
    const SESSIONS: usize = 4096;
    const LIVE_WINDOW: usize = 16;
    const WORKERS: usize = 2;
    const TOP_K: usize = 2;

    let model = trained_model(73);
    let service = Arc::new(DetectionService::new(ServeConfig {
        workers: WORKERS,
        sessions: SessionObsConfig {
            enabled: true,
            top_k: TOP_K,
        },
        ..ServeConfig::default()
    }));

    // Rolling window: at most LIVE_WINDOW sessions are open at once, so
    // the churn itself (not a giant live set) is what exercises the
    // sketches' eviction path.
    let mut live = std::collections::VecDeque::new();
    let mut pushed = 0u64;
    for i in 0..SESSIONS {
        let mut handle = service
            .open_session(&format!("P{:02}", i % 24), &model)
            .expect("session opens");
        handle.try_push_chunk(chunk()).expect("fresh ring has room");
        pushed += CHUNK_FRAMES as u64;
        live.push_back(handle);
        if live.len() > LIVE_WINDOW {
            live.pop_front().unwrap().close();
        }
    }
    service.flush();

    let bound = WORKERS * 3 * TOP_K;
    let snapshot = service.session_obs_snapshot(None);
    assert!(snapshot.enabled);
    assert!(snapshot.ticks > 0, "drain ticks advanced");
    assert!(
        snapshot.top.len() <= bound,
        "{} heavy-hitter rows exceed the shards×3×top_k bound of {}",
        snapshot.top.len(),
        bound
    );
    // Rows only ever reference live sessions (retired ones drop out of
    // the merged view even if their sketch slots have not been evicted).
    let live_ids: std::collections::BTreeSet<_> = live.iter().map(|h| h.id()).collect();
    for row in &snapshot.top {
        assert!(
            live_ids.contains(&row.session),
            "row for retired session {}",
            row.session
        );
        assert!(row.scores.combined() > 0, "heavy hitters carry scores");
    }

    // Any-session lookup works for a live session even if it is not a
    // heavy hitter.
    let probe = *live_ids.iter().next().unwrap();
    let looked = service.session_obs_snapshot(Some(probe));
    let row = looked.lookup.expect("live session resolves");
    assert_eq!(row.session, probe);
    assert_eq!(row.stats.frames_in, CHUNK_FRAMES as u64);

    for mut handle in live {
        handle.close();
    }
    service.flush();
    let stats = service.stats();
    assert_eq!(
        stats.totals.frames_processed, pushed,
        "churning 4096 sessions lost frames"
    );
}

/// Wedges ONE session on a shard that keeps serving its neighbour: the
/// `SessionStall` watchdog must go Critical naming that session id, the
/// wire `SessionStatsRequest` must show the victim's backlog, and
/// unwedging must drain every queued frame (zero loss) and walk the
/// verdict back to Ok.
#[test]
fn wedged_session_is_named_by_the_watchdog_and_recovers() {
    let model = trained_model(74);
    let dir = std::env::temp_dir().join(format!("laelaps-session-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = Arc::new(ModelRegistry::open(&dir).expect("registry opens"));
    registry.save("S00", &model).expect("model persists");

    // One worker, so both sessions share a shard: the healthy neighbour
    // keeps the shard heartbeat alive, isolating the session watchdog.
    let service = Arc::new(DetectionService::new(ServeConfig {
        workers: 1,
        ring_chunks: 4,
        sessions: SessionObsConfig::enabled(),
        health: HealthConfig {
            enabled: true,
            interval: Duration::from_millis(25),
            recover_after: 2,
            rules: vec![SloRule::SessionStall { max_missed: 2 }],
            ..HealthConfig::default()
        },
        ..ServeConfig::default()
    }));
    let server = IngestServer::bind("127.0.0.1:0", Arc::clone(&service), Arc::clone(&registry))
        .expect("server binds");
    let addr = server.local_addr();

    let mut victim = service.open_session("S00", &model).expect("victim opens");
    let mut healthy = service.open_session("S00", &model).expect("healthy opens");
    let victim_id = victim.id();

    await_health(&service, "a first Ok evaluation", |s| {
        s.enabled && s.ticks >= 2 && s.verdict == HealthVerdict::Ok
    });

    // Wedge the victim, then fill its ring; the healthy session keeps
    // flowing so only the per-session watchdog can fire.
    service.debug_wedge_session(victim_id, true);
    let mut queued = 0u64;
    loop {
        match victim.try_push_chunk(chunk()) {
            Ok(()) => queued += 1,
            Err(PushError::Full(_)) => break,
            Err(e) => panic!("push failed: {e}"),
        }
    }
    assert!(queued > 0, "the wedged ring accepted some chunks");
    healthy
        .try_push_chunk(chunk())
        .expect("healthy ring has room");

    // Critical, with the offending session id in the journal entry.
    let stall_rule = format!("session_stall:{victim_id}");
    let critical = await_health(&service, "the session-stall verdict", |s| {
        s.verdict == HealthVerdict::Critical
    });
    assert!(
        critical
            .transitions
            .iter()
            .any(|t| t.rule == stall_rule && t.to == HealthVerdict::Critical),
        "journal names the wedged session: {:?}",
        critical.transitions
    );

    // A live operator sees the same story over the wire: the health
    // journal carries the named transition, and a SessionStatsRequest
    // lookup on the same connection shows the victim's backlog.
    let mut stream = TcpStream::connect(addr).expect("introspection connects");
    write_message(&mut stream, &Message::HealthRequest).unwrap();
    let Some(Message::HealthSnapshot { health }) = read_message(&mut stream).unwrap() else {
        panic!("expected a HealthSnapshot reply");
    };
    assert_eq!(health.verdict, HealthVerdict::Critical);
    assert!(
        health
            .transitions
            .iter()
            .any(|t| t.rule == stall_rule && t.to == HealthVerdict::Critical),
        "wire journal names the wedged session"
    );
    write_message(
        &mut stream,
        &Message::SessionStatsRequest {
            session: Some(victim_id),
        },
    )
    .unwrap();
    let Some(Message::SessionStatsSnapshot { sessions }) = read_message(&mut stream).unwrap()
    else {
        panic!("expected a SessionStatsSnapshot reply");
    };
    assert!(sessions.enabled);
    let row = sessions.lookup.as_ref().expect("victim resolves");
    assert_eq!(row.session, victim_id);
    assert_eq!(row.stats.frames_in, queued * CHUNK_FRAMES as u64);
    assert!(
        row.stats.frames_processed < row.stats.frames_in,
        "the wedged session has a visible backlog"
    );
    drop(stream);

    // Unwedge: queued chunks drain, the verdict recovers through the
    // hysteresis, and not a single accepted frame was lost.
    service.debug_wedge_session(victim_id, false);
    let recovered = await_health(&service, "recovery to Ok", |s| {
        s.verdict == HealthVerdict::Ok
    });
    // Downgrades journal under the plain rule name — offender ids are
    // only attached on the way up.
    assert!(
        recovered
            .transitions
            .iter()
            .any(|t| t.rule == "session_stall" && t.to == HealthVerdict::Ok),
        "the recovery is journaled: {:?}",
        recovered.transitions
    );
    victim.close();
    healthy.close();
    service.flush();
    let stats = service.stats();
    assert_eq!(
        stats.totals.frames_processed,
        (queued + 1) * CHUNK_FRAMES as u64,
        "every accepted frame (wedged backlog included) was processed"
    );
    assert_eq!(stats.totals.frames_dropped, 0);

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
