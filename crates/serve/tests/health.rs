//! End-to-end health pillar: a wedged shard worker must be detected by
//! the [`SloRule::ShardStall`] watchdog, surface as `Critical` over a
//! live TCP `HealthRequest` (what `laelapsctl health` sends), and the
//! verdict must recover to `Ok` — through the downgrade hysteresis —
//! once the shard drains again. The default rule set's latency ceilings
//! must watch stages the drain actually records.

mod common;

use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{interleave, trained_model, two_state_signal};
use laelaps_serve::net::IngestServer;
use laelaps_serve::wire::{read_message, write_message, Message};
use laelaps_serve::{
    DetectionService, HealthConfig, HealthSnapshot, HealthVerdict, ModelRegistry, PushError,
    ServeConfig, SloRule, Stage, SAMPLE_WORDS,
};

const ELECTRODES: usize = 4;
const CHUNK_FRAMES: usize = 256;

/// A tight evaluator (25 ms ticks) watching only the shard watchdog, so
/// the folded verdict maps one-to-one onto worker liveness.
fn watchdog_config() -> HealthConfig {
    HealthConfig {
        enabled: true,
        interval: Duration::from_millis(25),
        recover_after: 2,
        rules: vec![SloRule::ShardStall { max_missed: 2 }],
        ..HealthConfig::default()
    }
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

#[test]
fn wedged_shard_goes_critical_over_tcp_and_recovers() {
    let model = trained_model(71);
    let dir = std::env::temp_dir().join(format!("laelaps-health-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = Arc::new(ModelRegistry::open(&dir).expect("registry opens"));
    registry.save("H00", &model).expect("model persists");

    // One worker = one shard, so the wedge flag and the watchdog verdict
    // talk about the same thing. A small ring keeps queued work visible.
    let service = Arc::new(DetectionService::new(ServeConfig {
        workers: 1,
        ring_chunks: 4,
        health: watchdog_config(),
        ..ServeConfig::default()
    }));
    let server = IngestServer::bind("127.0.0.1:0", Arc::clone(&service), Arc::clone(&registry))
        .expect("server binds");
    let addr = server.local_addr();

    let mut handle = service.open_session("H00", &model).expect("session opens");

    // Healthy baseline: the evaluator ticks and holds Ok.
    let baseline = await_health(&service, "a first Ok evaluation", |s| {
        s.enabled && s.ticks >= 2 && s.verdict == HealthVerdict::Ok
    });
    assert_eq!(baseline.rules.len(), 1, "only the watchdog is configured");
    assert_eq!(baseline.rules[0].name, "shard_stall");

    // Wedge the only shard, then queue work it can no longer drain.
    service.debug_wedge_shard(0, true);
    let chunk = vec![0.0f32; CHUNK_FRAMES * ELECTRODES];
    let mut queued = 0;
    loop {
        match handle.try_push_chunk(chunk.clone().into_boxed_slice()) {
            Ok(()) => queued += 1,
            Err(PushError::Full(_)) => break,
            Err(e) => panic!("push failed: {e}"),
        }
    }
    assert!(queued > 0, "the wedged ring accepted some chunks");

    // The watchdog must flag the stall: queued work, no heartbeat, for
    // max_missed consecutive ticks — Critical on the spot, no Degraded
    // stop on the way up.
    let critical = await_health(&service, "the stall verdict", |s| {
        s.verdict == HealthVerdict::Critical
    });
    assert!(critical.transitions.iter().any(|t| t.rule == "shard_stall"
        && t.from == HealthVerdict::Ok
        && t.to == HealthVerdict::Critical));
    assert!(
        critical.rules[0].fast_burn >= 1.0,
        "the watchdog burn expresses missed/allowance"
    );
    for row in &critical.series {
        assert_eq!(row.words.len(), SAMPLE_WORDS, "full sample rows");
    }

    // A live operator sees the same thing over TCP: a HealthRequest on a
    // fresh introspection connection (exactly what `laelapsctl health`
    // sends) answers with the Critical snapshot.
    let mut stream = TcpStream::connect(addr).expect("introspection connects");
    write_message(&mut stream, &Message::HealthRequest).unwrap();
    let Some(Message::HealthSnapshot { health }) = read_message(&mut stream).unwrap() else {
        panic!("expected a HealthSnapshot reply");
    };
    assert!(health.enabled);
    assert_eq!(health.verdict, HealthVerdict::Critical);
    let stall = health
        .rules
        .iter()
        .find(|r| r.name == "shard_stall")
        .expect("watchdog rule on the wire");
    assert_eq!(stall.verdict, HealthVerdict::Critical);
    assert!(!health.transitions.is_empty(), "journal travels too");
    drop(stream);

    // Unwedge: the worker drains the queued chunks, heartbeats resume,
    // and after `recover_after` cleaner ticks the verdict walks back to
    // Ok — hysteresis delays the downgrade but does not block it.
    service.debug_wedge_shard(0, false);
    let recovered = await_health(&service, "recovery to Ok", |s| {
        s.verdict == HealthVerdict::Ok
    });
    assert!(recovered.transitions.iter().any(|t| t.rule == "shard_stall"
        && t.from == HealthVerdict::Critical
        && t.to == HealthVerdict::Ok));
    handle.close();
    service.flush();
    let stats = service.stats();
    assert_eq!(
        stats.totals.frames_processed,
        (queued * CHUNK_FRAMES) as u64,
        "every queued frame was processed after the unwedge"
    );

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `StageP99` rule on a stage nothing records reads p99 = 0 forever
/// and can never fire. Stream a short cohort on the default service
/// (stage timing is on by default) and check that every stage the
/// default rules put a latency ceiling on has samples.
#[test]
fn default_latency_rules_watch_recorded_stages() {
    let watched: Vec<Stage> = SloRule::default_rules()
        .into_iter()
        .filter_map(|rule| match rule {
            SloRule::StageP99 { stage, .. } => Some(stage),
            _ => None,
        })
        .collect();
    assert!(
        !watched.is_empty(),
        "the default rules carry a latency ceiling"
    );

    let service = DetectionService::new(ServeConfig::default());
    for i in 0..3u64 {
        let model = trained_model(81 + i);
        let mut handle = service
            .open_session(&format!("D{i}"), &model)
            .expect("session opens");
        let signal = interleave(&two_state_signal(ELECTRODES, 512 * 8, 0..0, 91 + i));
        for chunk in signal.chunks(CHUNK_FRAMES * ELECTRODES) {
            let mut pending: Box<[f32]> = chunk.into();
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
        handle.close();
    }
    service.flush();

    let stats = service.stats();
    assert!(stats.telemetry.enabled, "stage timing is on by default");
    for stage in watched {
        assert!(
            stats.telemetry.stages.get(stage).count > 0,
            "a default rule watches {} but nothing recorded it",
            stage.name()
        );
    }
}
